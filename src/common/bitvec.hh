/**
 * @file
 * A fixed-length, dynamically-sized bit vector used for pin words, data
 * bursts and codewords throughout the simulator.
 */

#ifndef AIECC_COMMON_BITVEC_HH
#define AIECC_COMMON_BITVEC_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace aiecc
{

/**
 * A fixed-length vector of bits with word-parallel bulk operations.
 *
 * The length is set at construction (or by resize()) and bounds are
 * checked in debug-style asserts.  Storage is little-endian within
 * 64-bit words: bit i lives in word i/64 at position i%64.
 *
 * Vectors up to 576 bits — a full 72-pin burst, and every payload,
 * chip lane and CRC window the protection stack handles — live in a
 * small inline buffer, so the hot data path constructs, copies and
 * returns BitVecs without heap traffic.  Longer vectors spill to a
 * heap block transparently.
 */
class BitVec
{
  public:
    /** Construct an all-zero vector of @p nbits bits. */
    explicit BitVec(size_t nbits = 0);

    /**
     * Construct from the low @p nbits of an integer.
     *
     * @param nbits Vector length.
     * @param value Initial contents, bit 0 = LSB of value.
     */
    BitVec(size_t nbits, uint64_t value);

    /** Number of bits in the vector. */
    size_t size() const { return numBits; }

    /** Read bit @p pos. */
    bool get(size_t pos) const;

    /** Set bit @p pos to @p value. */
    void set(size_t pos, bool value);

    /** Flip bit @p pos. */
    void flip(size_t pos);

    /** Set all bits to zero. */
    void clear();

    /** Resize to @p nbits, zero-filling any new bits. */
    void resize(size_t nbits);

    /** Number of one bits. */
    size_t popcount() const;

    /** True if every bit is zero. */
    bool zero() const { return popcount() == 0; }

    /** Even parity: true if the popcount is odd. */
    bool parity() const { return popcount() & 1; }

    /**
     * Read the @p nbits-wide field starting at @p first as an integer.
     *
     * @param first First (lowest) bit of the field.
     * @param nbits Field width, at most 64.
     * @return The field, right-aligned; bits past the end read as 0.
     */
    uint64_t getField(size_t first, size_t nbits) const;

    /** Write the @p nbits-wide field starting at @p first. */
    void setField(size_t first, size_t nbits, uint64_t value);

    /**
     * Copy @p n bytes out, starting at byte @p first: byte i of @p out
     * holds bits 8(first + i) .. 8(first + i) + 7, bit j of the byte
     * being bit 8(first + i) + j.  Bits past size() read as 0.
     */
    void getBytes(size_t first, uint8_t *out, size_t n) const;

    /**
     * Inverse of getBytes(): overwrite bytes [first, first + n).  Bits
     * of the last byte past size() are dropped.
     */
    void setBytes(size_t first, const uint8_t *in, size_t n);

    /** XOR another vector of the same length into this one. */
    BitVec &operator^=(const BitVec &other);

    /** Exact content and length equality. */
    bool operator==(const BitVec &other) const;
    bool operator!=(const BitVec &other) const { return !(*this == other); }

    /** Extract bits [first, first + nbits) as a new vector. */
    BitVec slice(size_t first, size_t nbits) const;

    /** Overwrite bits [first, first + other.size()) with @p other. */
    void insert(size_t first, const BitVec &other);

    /** Render as a 0/1 string, bit 0 rightmost. */
    std::string toString() const;

    /**
     * Pack into bytes, 8 bits per byte, bit (8i + j) -> byte i bit j.
     * The final byte is zero-padded.
     */
    std::vector<uint8_t> toBytes() const;

    /** Inverse of toBytes() for a vector of @p nbits bits. */
    static BitVec fromBytes(const std::vector<uint8_t> &bytes, size_t nbits);

  private:
    /** Inline capacity: 9 words = 576 bits (72 pins x 8 beats). */
    static constexpr size_t inlineWords = 9;

    size_t numBits;
    std::array<uint64_t, inlineWords> inl{};
    std::vector<uint64_t> heap; ///< engaged only beyond inlineWords

    size_t wordCount() const { return (numBits + 63) / 64; }
    bool isInline() const { return wordCount() <= inlineWords; }
    uint64_t *words() { return isInline() ? inl.data() : heap.data(); }
    const uint64_t *
    words() const
    {
        return isInline() ? inl.data() : heap.data();
    }

    /** Zero any bits beyond numBits in the last storage word. */
    void trimTail();
};

/** XOR of two equal-length vectors. */
BitVec operator^(BitVec lhs, const BitVec &rhs);

} // namespace aiecc

#endif // AIECC_COMMON_BITVEC_HH
