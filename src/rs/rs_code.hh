/**
 * @file
 * A shortened Reed-Solomon codec over GF(2^8) with errors-and-erasures
 * decoding.
 *
 * This is the coding engine behind every chipkill ECC organization in
 * the repository: AMD chipkill uses RS(18,16), QPC Bamboo ECC uses
 * RS(72,64), and the eDECC variants extend those to RS(19,17) and
 * RS(76,68) by appending virtual address symbols (Section IV-A of the
 * AIECC paper).
 *
 * Syndromes and parity are linear in the symbols, so the hot path
 * computes each as an XOR of one precomputed column per symbol, all
 * check bytes packed in one uint64_t.  The columns are indexed by
 * codeword degree rather than position, so every code with the same
 * number of check symbols shares one immutable table set, built once
 * per process in static storage.  Callers hand the codec raw symbol
 * buffers plus a reusable RsWorkspace, so nothing touches the heap;
 * the std::vector API remains as a thin wrapper for tests and cold
 * callers.
 *
 * A clean word costs one syndrome pass; everything else lives in an
 * out-of-line dirty path that works a word at a time too.  The Chien
 * search is a linear map of the same kind: Lambda(X^-1) at degree d is
 * an XOR of one precomputed row per nonzero locator coefficient, eight
 * positions per uint64_t, followed by a zero-byte scan that stops at
 * the deg(Lambda)-th root; Forney reads its evaluations from the same
 * rows.  Berlekamp-Massey multiplies through zero-absorbing log tables
 * without branches, and the final codeword screen XORs the applied
 * corrections' syndrome columns into the received syndrome instead of
 * recomputing it.
 */

#ifndef AIECC_RS_RS_CODE_HH
#define AIECC_RS_RS_CODE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "gf/gf256.hh"

namespace aiecc
{

/** Most check symbols a codec may have: one uint64_t holds them all. */
constexpr unsigned rsMaxRoots = 8;

/**
 * Scratch buffers for one decode: syndromes, the BM polynomials, the
 * error evaluator, and the Chien/Forney bookkeeping.  One instance
 * serves any RS(n, k) with n <= 255 and n - k <= rsMaxRoots; codecs
 * embed one per owner so the steady-state decode path never touches
 * the heap.  The buffers carry no state between calls.
 */
struct RsWorkspace
{
    static constexpr unsigned polyLen = rsMaxRoots + 1;

    std::array<GfElem, polyLen> synd;    ///< S_j, nroots entries
    std::array<GfElem, polyLen> lambda;  ///< error locator, nroots+1
    std::array<GfElem, polyLen> bpoly;   ///< BM correction poly
    std::array<GfElem, polyLen> tpoly;   ///< BM temporary
    std::array<GfElem, polyLen> omega;   ///< error evaluator, nroots
    std::array<GfElem, polyLen> saved;   ///< pre-correction symbols
    std::array<uint8_t, polyLen> chien;  ///< located codeword positions
    std::array<GfElem, 256> lane;        ///< batch de-interleave buffer
};

/**
 * Systematic shortened RS(n, k) codec over GF(2^8).
 *
 * Codewords are stored message-first: positions [0, k) carry the
 * message, positions [k, n) the parity.  Position 0 corresponds to the
 * highest-degree codeword-polynomial coefficient (the standard
 * transmission order), so shortening simply prepends implicit zero
 * symbols that are never transmitted.
 *
 * The decoder runs syndrome computation, errors-and-erasures
 * Berlekamp-Massey, Chien search, and Forney's algorithm.  It corrects
 * any pattern with 2 * numErrors + numErasures <= n - k and flags
 * heavier patterns as detected-uncorrectable unless they alias into a
 * different codeword (a miscorrection), which callers can measure by
 * comparing against the original codeword.
 */
class RsCodec
{
  public:
    /** Outcome of a decode attempt. */
    enum class Status
    {
        Ok,              ///< Syndromes were all zero: codeword accepted.
        Corrected,       ///< Errors were located and corrected.
        Uncorrectable,   ///< Detected, but beyond the correction power.
    };

    /** Everything the decoder learned about a received word. */
    struct Result
    {
        Status status = Status::Ok;
        /** Corrected codeword (valid for Ok/Corrected). */
        std::vector<GfElem> codeword;
        /** Codeword positions the decoder corrected. */
        std::vector<unsigned> positions;

        bool ok() const { return status != Status::Uncorrectable; }
    };

    /** Per-lane outcome of a batch decode. */
    struct LaneResult
    {
        Status status = Status::Ok;
        uint8_t numPositions = 0;
        /** Corrected positions, ascending; at most nroots() entries. */
        std::array<uint8_t, rsMaxRoots> positions{};
    };

    /** Widest batch the interleaved entry points accept. */
    static constexpr unsigned maxLanes = 4;

    /**
     * Build an RS(n, k) codec whose generator has the roots
     * alpha^1 .. alpha^(n-k).  The first codec with a given n - k
     * builds that geometry's shared tables (thread-safe); later ones
     * only point at them.
     *
     * @param n Codeword length in symbols, k < n <= 255.
     * @param k Message length in symbols, n - k <= rsMaxRoots.
     */
    RsCodec(unsigned n, unsigned k);

    unsigned n() const { return nLen; }
    unsigned k() const { return kLen; }
    /** Number of parity symbols (n - k). */
    unsigned nroots() const { return nLen - kLen; }
    /** Guaranteed symbol-error correction capability floor((n-k)/2). */
    unsigned t() const { return nroots() / 2; }

    // ---- Allocation-free entry points (the hot path) ----

    /**
     * Compute the n-k parity symbols of @p message (k symbols) into
     * @p parity as an XOR of per-symbol columns; no heap traffic.
     */
    void parityInto(const GfElem *message, GfElem *parity) const;

    /** Systematic encode: @p codeword receives all n symbols. */
    void encodeInto(const GfElem *message, GfElem *codeword) const;

    /** True iff the n symbols at @p word have all-zero syndromes. */
    bool isCodewordRaw(const GfElem *word) const;

    /**
     * Decode @p received (n symbols) in place.
     *
     * On Ok/Corrected the buffer holds the corrected codeword; on
     * Uncorrectable it is restored to the received word.  Corrected
     * positions (ascending, nonzero magnitude only) are written to
     * @p positions (room for nroots() entries) with the count in
     * @p numPositions.
     *
     * @param erasures Known-suspect codeword positions (each < n),
     *                 or nullptr when there are none.
     */
    Status decodeInto(GfElem *received, RsWorkspace &ws,
                      uint8_t *positions, unsigned &numPositions,
                      const unsigned *erasures = nullptr,
                      unsigned numErasures = 0) const;

    // ---- Batched entry points (the 4 codewords of one MTB) ----
    //
    // Symbols are interleaved lane-minor: symbol i of lane c lives at
    // buf[i * lanes + c], matching how the AMD organizations gather
    // one chip's four codeword symbols in one touch.  Each lane runs
    // the scalar kernels with a stride, so no de-interleave copy is
    // made unless a lane's syndrome is nonzero.

    /**
     * Compute parity for @p lanes interleaved messages at once.
     *
     * @param messages k * lanes symbols, interleaved.
     * @param parities nroots() * lanes symbols out, interleaved.
     */
    void parityBatch(const GfElem *messages, GfElem *parities,
                     unsigned lanes) const;

    /**
     * Decode @p lanes interleaved received words in place.
     *
     * Clean lanes finish at the syndrome; dirty lanes de-interleave
     * into the workspace and run the dirty decode.  Per-lane
     * status/positions land in @p results.
     */
    void decodeBatch(GfElem *received, unsigned lanes,
                     LaneResult *results, RsWorkspace &ws) const;

    // ---- std::vector wrappers (tests and cold callers) ----

    /**
     * Systematically encode @p message.
     *
     * @param message Exactly k symbols.
     * @return The n-symbol codeword, message-first.
     */
    std::vector<GfElem> encode(const std::vector<GfElem> &message) const;

    /** Compute only the n-k parity symbols of @p message. */
    std::vector<GfElem>
    parity(const std::vector<GfElem> &message) const;

    /** True iff @p word (n symbols) has all-zero syndromes. */
    bool isCodeword(const std::vector<GfElem> &word) const;

    /**
     * Decode a received word.
     *
     * @param received Exactly n symbols.
     * @param erasures Known-suspect codeword positions (each < n).
     * @return Decode status, corrected word and error positions.
     */
    Result decode(const std::vector<GfElem> &received,
                  const std::vector<unsigned> &erasures = {}) const;

  private:
    /** Degree-indexed syndrome and parity columns for one nroots. */
    struct LinearMap;
    /** Degree-indexed Chien rows, one per locator coefficient. */
    struct ChienMap;

    unsigned nLen;
    unsigned kLen;
    /** Shared tables for this nroots; static storage, never freed. */
    const LinearMap *map;
    /** Shared by every geometry; static storage, never freed. */
    const ChienMap *chien;

    /**
     * The body of decodeInto() for a word whose syndrome word
     * @p packed is nonzero; @p numPositions must be 0 on entry.  Out
     * of line so the clean path stays one syndrome pass.
     */
    [[gnu::noinline]] Status
    decodeDirty(GfElem *received, uint64_t packed, RsWorkspace &ws,
                uint8_t *positions, unsigned &numPositions,
                const unsigned *erasures = nullptr,
                unsigned numErasures = 0) const;

    /** Syndromes of n strided symbols, S_j in byte j; 0 on a codeword. */
    uint64_t syndromeWord(const GfElem *word, size_t stride) const;

    /** Parity of k strided symbols, parity symbol j in byte j. */
    uint64_t parityWord(const GfElem *message, size_t stride) const;
};

} // namespace aiecc

#endif // AIECC_RS_RS_CODE_HH
