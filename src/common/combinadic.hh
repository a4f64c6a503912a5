/**
 * @file
 * Combinadic (combinatorial number system) ranking for exhaustive
 * fault-enumeration campaigns.
 *
 * An exhaustive sweep over all C(n, k) k-pin error combinations must
 * not materialize the combination list — at billions of combinations
 * that is the difference between a runnable campaign and an OOM.
 * Instead, a CombinationSpace maps a combination's lexicographic rank
 * (a plain uint64_t trial index) to the combination itself and back,
 * in O(n) time with no allocation on the hot path.  Shard-parallel
 * runners then hand each shard a contiguous rank interval
 * [shard * shardSize, ...) exactly as they already do for Monte-Carlo
 * trial indices, so `--jobs` stays bit-identical and checkpoints only
 * need to remember the next unrun shard.
 *
 * Order contract: ranks enumerate combinations of {0, .., n-1} in
 * lexicographic order of the ascending element tuple — rank 0 is
 * {0, 1, .., k-1}, rank C(n,k)-1 is {n-k, .., n-1}.  This matches the
 * nested i<j loop order existing sweeps use, so an exhaustive sweep
 * reproduces the materialized sweep's trial sequence bit for bit.
 */

#ifndef AIECC_COMMON_COMBINADIC_HH
#define AIECC_COMMON_COMBINADIC_HH

#include <cstdint>
#include <vector>

namespace aiecc
{

/** True iff C(n, k) fits in uint64_t. */
bool binomialFits(unsigned n, unsigned k);

/**
 * Exact binomial coefficient C(n, k).  Panics when the value
 * overflows uint64_t (use binomialFits() to probe first); k > n is
 * the usual empty set, 0.
 */
uint64_t binomial(unsigned n, unsigned k);

/**
 * The space of all k-element subsets of {0, .., n-1}, addressed by
 * lexicographic rank.  Construction panics when C(n, k) overflows
 * uint64_t — such a space cannot be indexed by a trial counter and
 * the campaign must be decomposed first — and when n exceeds maxN,
 * the reach of the Pascal table rank() and unrank() read.
 */
class CombinationSpace
{
  public:
    /** Largest set size: a 65 x 65 table serves every space. */
    static constexpr unsigned maxN = 64;

    CombinationSpace(unsigned n, unsigned k);

    unsigned n() const { return setSize; }
    unsigned k() const { return comboSize; }

    /** Number of combinations, C(n, k). */
    uint64_t size() const { return count; }

    /**
     * Write the @p rank 'th combination (ascending elements) into
     * @p out, which must hold k() slots.  Panics when @p rank is out
     * of range.
     */
    void unrank(uint64_t rank, unsigned *out) const;

    /** Allocating convenience form of unrank(). */
    std::vector<unsigned> unrank(uint64_t rank) const;

    /**
     * Lexicographic rank of @p combo (k() strictly ascending elements
     * below n(); panics otherwise).  Inverse of unrank().
     */
    uint64_t rank(const unsigned *combo) const;
    uint64_t rank(const std::vector<unsigned> &combo) const;

  private:
    unsigned setSize;
    unsigned comboSize;
    uint64_t count;
};

} // namespace aiecc

#endif // AIECC_COMMON_COMBINADIC_HH
