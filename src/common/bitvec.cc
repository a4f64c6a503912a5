#include "common/bitvec.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.hh"

namespace aiecc
{

namespace
{

/** Low @p nbits set, nbits in [0, 64]. */
uint64_t
lowMask(size_t nbits)
{
    return nbits >= 64 ? ~uint64_t(0) : ((uint64_t(1) << nbits) - 1);
}

} // namespace

BitVec::BitVec(size_t nbits) : numBits(nbits)
{
    if (!isInline())
        heap.assign(wordCount(), 0);
}

BitVec::BitVec(size_t nbits, uint64_t value)
    : BitVec(nbits)
{
    setField(0, std::min<size_t>(nbits, 64), value);
}

bool
BitVec::get(size_t pos) const
{
    AIECC_ASSERT(pos < numBits, "BitVec::get out of range: " << pos);
    return (words()[pos / 64] >> (pos % 64)) & 1;
}

void
BitVec::set(size_t pos, bool value)
{
    AIECC_ASSERT(pos < numBits, "BitVec::set out of range: " << pos);
    const uint64_t m = 1ULL << (pos % 64);
    if (value)
        words()[pos / 64] |= m;
    else
        words()[pos / 64] &= ~m;
}

void
BitVec::flip(size_t pos)
{
    AIECC_ASSERT(pos < numBits, "BitVec::flip out of range: " << pos);
    words()[pos / 64] ^= 1ULL << (pos % 64);
}

void
BitVec::clear()
{
    std::fill_n(words(), wordCount(), 0);
}

void
BitVec::resize(size_t nbits)
{
    // Invariant maintained everywhere: storage words at index >=
    // wordCount() are zero and trimTail() keeps the last word's tail
    // clean, so growth never exposes stale bits.
    const size_t oldWc = wordCount();
    const size_t newWc = (nbits + 63) / 64;
    const bool wasInline = oldWc <= inlineWords;
    const bool nowInline = newWc <= inlineWords;

    if (!nowInline) {
        if (wasInline) {
            heap.assign(newWc, 0);
            std::copy_n(inl.data(), oldWc, heap.data());
            inl.fill(0);
        } else {
            heap.resize(newWc, 0);
        }
    } else {
        if (!wasInline) {
            std::copy_n(heap.data(), newWc, inl.data());
            heap.clear();
        } else if (newWc < oldWc) {
            std::fill(inl.data() + newWc, inl.data() + oldWc, 0);
        }
    }
    numBits = nbits;
    trimTail();
}

size_t
BitVec::popcount() const
{
    size_t count = 0;
    const uint64_t *w = words();
    for (size_t i = 0; i < wordCount(); ++i)
        count += std::popcount(w[i]);
    return count;
}

uint64_t
BitVec::getField(size_t first, size_t nbits) const
{
    AIECC_ASSERT(nbits <= 64, "field too wide: " << nbits);
    if (nbits == 0 || first >= numBits)
        return 0;
    // Bits past the end read as zero: the tail of the last word is
    // clean, so clamping the width covers all the masking needed.
    const size_t avail = std::min(nbits, numBits - first);
    const uint64_t *w = words();
    const size_t wi = first / 64;
    const size_t off = first % 64;
    uint64_t out = w[wi] >> off;
    if (off != 0 && wi + 1 < wordCount())
        out |= w[wi + 1] << (64 - off);
    if (avail < 64)
        out &= lowMask(avail);
    return out;
}

void
BitVec::setField(size_t first, size_t nbits, uint64_t value)
{
    AIECC_ASSERT(nbits <= 64, "field too wide: " << nbits);
    AIECC_ASSERT(first + nbits <= numBits, "field out of range");
    if (nbits == 0)
        return;
    const uint64_t m = lowMask(nbits);
    value &= m;
    uint64_t *w = words();
    const size_t wi = first / 64;
    const size_t off = first % 64;
    w[wi] = (w[wi] & ~(m << off)) | (value << off);
    if (off + nbits > 64) {
        const size_t rem = off + nbits - 64;
        w[wi + 1] = (w[wi + 1] & ~lowMask(rem)) | (value >> (64 - off));
    }
}

// Storage is little-endian within each word, so on a little-endian
// host byte i of the word array is bits 8i..8i+7 and the byte
// accessors are plain copies.
static_assert(std::endian::native == std::endian::little,
              "BitVec byte accessors assume a little-endian host");

void
BitVec::getBytes(size_t first, uint8_t *out, size_t n) const
{
    AIECC_ASSERT(first + n <= (numBits + 7) / 8, "getBytes out of range");
    std::memcpy(out, reinterpret_cast<const uint8_t *>(words()) + first, n);
}

void
BitVec::setBytes(size_t first, const uint8_t *in, size_t n)
{
    AIECC_ASSERT(first + n <= (numBits + 7) / 8, "setBytes out of range");
    std::memcpy(reinterpret_cast<uint8_t *>(words()) + first, in, n);
    trimTail();
}

BitVec &
BitVec::operator^=(const BitVec &other)
{
    AIECC_ASSERT(numBits == other.numBits, "BitVec xor length mismatch");
    uint64_t *w = words();
    const uint64_t *o = other.words();
    for (size_t i = 0; i < wordCount(); ++i)
        w[i] ^= o[i];
    return *this;
}

bool
BitVec::operator==(const BitVec &other) const
{
    return numBits == other.numBits &&
           std::equal(words(), words() + wordCount(), other.words());
}

BitVec
BitVec::slice(size_t first, size_t nbits) const
{
    AIECC_ASSERT(first + nbits <= numBits, "slice out of range");
    BitVec out(nbits);
    uint64_t *ow = out.words();
    for (size_t done = 0; done < nbits; done += 64) {
        ow[done / 64] =
            getField(first + done, std::min<size_t>(64, nbits - done));
    }
    return out;
}

void
BitVec::insert(size_t first, const BitVec &other)
{
    AIECC_ASSERT(first + other.size() <= numBits, "insert out of range");
    for (size_t done = 0; done < other.numBits; done += 64) {
        const size_t chunk = std::min<size_t>(64, other.numBits - done);
        setField(first + done, chunk, other.getField(done, chunk));
    }
}

std::string
BitVec::toString() const
{
    std::string out(numBits, '0');
    for (size_t i = 0; i < numBits; ++i) {
        if (get(i))
            out[numBits - 1 - i] = '1';
    }
    return out;
}

std::vector<uint8_t>
BitVec::toBytes() const
{
    std::vector<uint8_t> out((numBits + 7) / 8);
    getBytes(0, out.data(), out.size());
    return out;
}

BitVec
BitVec::fromBytes(const std::vector<uint8_t> &bytes, size_t nbits)
{
    AIECC_ASSERT(bytes.size() * 8 >= nbits, "fromBytes: too few bytes");
    BitVec out(nbits);
    out.setBytes(0, bytes.data(), (nbits + 7) / 8);
    return out;
}

void
BitVec::trimTail()
{
    const size_t used = numBits % 64;
    if (used)
        words()[wordCount() - 1] &= lowMask(used);
}

BitVec
operator^(BitVec lhs, const BitVec &rhs)
{
    lhs ^= rhs;
    return lhs;
}

} // namespace aiecc
