/**
 * @file
 * Unit tests for the deterministic RNG: reproducibility, range
 * constraints, and rough distribution sanity.
 */

#include <algorithm>
#include <array>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.hh"

namespace aiecc
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(3);
    for (uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng rng(4);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 2000; ++i) {
        const uint64_t v = rng.range(10, 12);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 12u);
        sawLo |= v == 10;
        sawHi |= v == 12;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(5);
    double sum = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / trials, 0.5, 0.02);
}

TEST(Rng, ChanceRate)
{
    Rng rng(6);
    int hits = 0;
    const int trials = 50000;
    for (int i = 0; i < trials; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(static_cast<double>(hits) / trials, 0.25, 0.02);
}

TEST(Rng, SampleDistinct)
{
    Rng rng(7);
    for (int rep = 0; rep < 50; ++rep) {
        const auto s = rng.sample(27, 2);
        ASSERT_EQ(s.size(), 2u);
        EXPECT_NE(s[0], s[1]);
        EXPECT_LT(s[0], 27u);
        EXPECT_LT(s[1], 27u);
    }
}

TEST(Rng, SampleFullPopulation)
{
    Rng rng(8);
    const auto s = rng.sample(10, 10);
    std::set<unsigned> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), 10u);
    EXPECT_EQ(*uniq.begin(), 0u);
    EXPECT_EQ(*uniq.rbegin(), 9u);
}

TEST(Rng, SampleCoversAllPairs)
{
    // Over many draws of 2-of-5, every unordered pair should appear.
    Rng rng(9);
    std::set<std::pair<unsigned, unsigned>> seen;
    for (int i = 0; i < 2000; ++i) {
        auto s = rng.sample(5, 2);
        std::sort(s.begin(), s.end());
        seen.emplace(s[0], s[1]);
    }
    EXPECT_EQ(seen.size(), 10u);
}

// ---- forStream: the shard-determinism primitive ----

TEST(Rng, ForStreamIsDeterministic)
{
    Rng a = Rng::forStream(0xDEADBEEF, 17);
    Rng b = Rng::forStream(0xDEADBEEF, 17);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ForStreamStreamsDiverge)
{
    // Adjacent stream indices — the worst case for naive seed+index
    // mixing — must yield uncorrelated sequences, and stream 0 must
    // not alias the plain single-stream generator.
    Rng plain(0xABCD);
    Rng s0 = Rng::forStream(0xABCD, 0);
    Rng s1 = Rng::forStream(0xABCD, 1);
    int samePlain = 0, sameAdjacent = 0;
    for (int i = 0; i < 64; ++i) {
        const uint64_t v0 = s0.next();
        samePlain += v0 == plain.next();
        sameAdjacent += v0 == s1.next();
    }
    EXPECT_LT(samePlain, 2);
    EXPECT_LT(sameAdjacent, 2);
}

TEST(Rng, ForStreamSameStreamDifferentSeedsDiverge)
{
    Rng a = Rng::forStream(1, 5);
    Rng b = Rng::forStream(2, 5);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

// ---- statistical quality ----

TEST(Rng, BelowIsUniformChiSquare)
{
    // 16 bins, 40000 draws => expected 2500/bin.  Chi-square with
    // df=15: P(X > 37.7) ~ 0.001, so a healthy generator virtually
    // never trips the 60 threshold while a modulo-biased or stuck
    // one blows straight through it.
    Rng rng(0x5EED);
    constexpr unsigned bins = 16;
    constexpr int draws = 40000;
    unsigned counts[bins] = {};
    for (int i = 0; i < draws; ++i)
        ++counts[rng.below(bins)];
    const double expected = static_cast<double>(draws) / bins;
    double chi2 = 0.0;
    for (unsigned b = 0; b < bins; ++b) {
        const double d = static_cast<double>(counts[b]) - expected;
        chi2 += d * d / expected;
    }
    EXPECT_LT(chi2, 60.0) << "chi2=" << chi2;
}

TEST(Rng, BelowUniformForNonPowerOfTwoBound)
{
    // bound 12 is where a lazy `next() % bound` shows modulo bias;
    // rejection sampling must keep every residue equally likely.
    Rng rng(0x5EED5EED);
    constexpr unsigned bound = 12;
    constexpr int draws = 48000;
    unsigned counts[bound] = {};
    for (int i = 0; i < draws; ++i)
        ++counts[rng.below(bound)];
    const double expected = static_cast<double>(draws) / bound;
    double chi2 = 0.0;
    for (unsigned b = 0; b < bound; ++b) {
        const double d = static_cast<double>(counts[b]) - expected;
        chi2 += d * d / expected;
    }
    EXPECT_LT(chi2, 50.0) << "chi2=" << chi2; // df=11, p~0.001 at 31.3
}

TEST(Rng, SampleAlwaysDistinctAndUnbiased)
{
    // Property: every draw of k-of-n is k distinct in-range values,
    // and across many draws each element appears with frequency k/n.
    Rng rng(0xFACADE);
    constexpr unsigned n = 20, k = 5;
    constexpr int draws = 20000;
    unsigned appearances[n] = {};
    for (int i = 0; i < draws; ++i) {
        const auto s = rng.sample(n, k);
        ASSERT_EQ(s.size(), k);
        std::set<unsigned> uniq(s.begin(), s.end());
        ASSERT_EQ(uniq.size(), k) << "draw " << i << " not distinct";
        ASSERT_LT(*uniq.rbegin(), n);
        for (unsigned v : s)
            ++appearances[v];
    }
    const double expected = static_cast<double>(draws) * k / n;
    for (unsigned v = 0; v < n; ++v) {
        EXPECT_NEAR(static_cast<double>(appearances[v]), expected,
                    expected * 0.05)
            << "element " << v;
    }
}

// ---- known-answer stream: every campaign artifact rests on it ----

// Recorded from the generator while below() was still out of line, so
// no bound could fold.  Each row is the first 64 draws of a fresh
// Rng(katSeed); it is checked through a compile-time bound, which
// folds once below() inlines (below(256) becomes next() & 0xFF), and
// through a volatile one, which keeps the runtime division path.
constexpr uint64_t katSeed = 0xA1ECC;

/** The 65th raw word of the stream: each draw consumed one next(). */
constexpr uint64_t katNextAfter64 = 0xff0804e681a9e0cbULL;

struct BelowKat
{
    uint64_t bound;
    std::array<uint64_t, 64> draws;
};

const BelowKat belowKats[] = {
    {1,
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {8,
     {0, 3, 1, 1, 6, 7, 1, 4, 2, 6, 2, 2, 7, 0, 2, 6,
      3, 6, 4, 5, 4, 1, 4, 4, 3, 5, 0, 6, 7, 3, 0, 3,
      6, 0, 6, 0, 7, 4, 7, 2, 1, 4, 3, 1, 1, 0, 7, 1,
      7, 5, 6, 3, 4, 6, 3, 2, 5, 5, 7, 3, 6, 1, 4, 2}},
    {18,
     {2, 11, 13, 11, 0, 7, 15, 10, 8, 8, 0, 14, 11, 16, 8, 0,
      1, 0, 12, 15, 14, 5, 6, 14, 7, 11, 12, 6, 9, 7, 10, 1,
      16, 0, 6, 6, 5, 14, 7, 16, 15, 16, 9, 3, 1, 12, 13, 9,
      17, 11, 0, 7, 8, 2, 15, 14, 1, 3, 9, 5, 6, 15, 10, 6}},
    {32,
     {0, 27, 25, 17, 6, 15, 9, 4, 2, 14, 10, 18, 31, 8, 2, 6,
      19, 22, 20, 21, 12, 9, 4, 12, 27, 5, 16, 22, 15, 19, 24, 19,
      22, 8, 14, 16, 7, 28, 7, 10, 9, 20, 27, 9, 1, 0, 15, 9,
      23, 29, 30, 27, 20, 14, 27, 2, 21, 13, 23, 3, 14, 1, 4, 2}},
    {72,
     {56, 11, 49, 65, 54, 7, 33, 28, 26, 62, 18, 50, 47, 16, 26, 54,
      19, 54, 12, 69, 68, 41, 60, 68, 43, 29, 48, 6, 63, 43, 64, 19,
      70, 0, 6, 24, 23, 68, 7, 34, 33, 52, 27, 57, 1, 48, 31, 9,
      71, 29, 54, 43, 44, 38, 51, 50, 37, 21, 63, 59, 6, 33, 28, 42}},
    {256,
     {32, 155, 153, 113, 230, 79, 73, 164, 194, 206, 74, 242,
      31, 168, 98, 134, 51, 118, 180, 117, 44, 137, 4, 108,
      59, 37, 176, 246, 207, 51, 184, 19, 54, 168, 46, 240,
      103, 252, 199, 170, 73, 52, 59, 201, 193, 96, 79, 41,
      183, 125, 222, 251, 212, 46, 91, 130, 181, 237, 183, 99,
      142, 97, 4, 226}},
    {1000,
     {520, 355, 201, 921, 486, 367, 313, 668, 282, 158, 170, 802,
      503, 368, 850, 102, 411, 662, 396, 573, 844, 321, 660, 980,
      907, 941, 760, 134, 183, 651, 456, 787, 798, 368, 646, 400,
      647, 340, 351, 274, 457, 4, 467, 865, 633, 736, 807, 617,
      887, 877, 654, 683, 68, 430, 995, 890, 677, 445, 847, 795,
      46, 545, 236, 338}},
    {(1ULL << 40) + 1,
     {928367602801ULL, 991422194656ULL, 157249175240ULL, 736153054352ULL,
      493012031570ULL, 942925804686ULL, 395150134059ULL, 109480922836ULL,
      763642194171ULL, 189778557057ULL, 1085004298487ULL, 341782200807ULL,
      506368984002ULL, 620421229914ULL, 769008093083ULL, 889124094997ULL,
      778918493644ULL, 276144353842ULL, 524115019603ULL, 451543173691ULL,
      565591068749ULL, 605499282335ULL, 845075707488ULL, 458345143371ULL,
      1009273256358ULL, 739845477950ULL, 32377056953ULL, 470256071950ULL,
      42173013616ULL, 474710476076ULL, 680201177281ULL, 841354234766ULL,
      826548299968ULL, 426298644923ULL, 1061105869988ULL, 105227099938ULL,
      461414194588ULL, 83081137741ULL, 364599858431ULL, 491757671509ULL,
      970840653144ULL, 41862340989ULL, 459786857471ULL, 223751032467ULL,
      591330643844ULL, 1024705963505ULL, 262858266049ULL, 1048442957032ULL,
      606048919285ULL, 742492712690ULL, 186103410186ULL, 200073950857ULL,
      403029517075ULL, 628449317403ULL, 1046215001717ULL, 454244121173ULL,
      29977204147ULL, 65916928058ULL, 40937122346ULL, 643791153882ULL,
      756069467929ULL, 893182801060ULL, 851562029088ULL, 50033841587ULL}},
};

template <uint64_t Bound>
void
checkBelowKat(const BelowKat &kat)
{
    ASSERT_EQ(kat.bound, Bound);
    Rng folded(katSeed), runtime(katSeed);
    volatile uint64_t bound = Bound;
    for (unsigned i = 0; i < kat.draws.size(); ++i) {
        EXPECT_EQ(folded.below(Bound), kat.draws[i])
            << "constant bound " << Bound << ", draw " << i;
        EXPECT_EQ(runtime.below(bound), kat.draws[i])
            << "runtime bound " << Bound << ", draw " << i;
    }
    EXPECT_EQ(folded.next(), katNextAfter64) << "bound " << Bound;
    EXPECT_EQ(runtime.next(), katNextAfter64) << "bound " << Bound;
}

TEST(RngKat, BelowStreamIsPinned)
{
    checkBelowKat<1>(belowKats[0]);
    checkBelowKat<8>(belowKats[1]);
    checkBelowKat<18>(belowKats[2]);
    checkBelowKat<32>(belowKats[3]);
    checkBelowKat<72>(belowKats[4]);
    checkBelowKat<256>(belowKats[5]);
    checkBelowKat<1000>(belowKats[6]);
    checkBelowKat<(1ULL << 40) + 1>(belowKats[7]);
}

TEST(RngKat, ChanceAndUniformStreamsArePinned)
{
    // Bit i of each mask is draw i.
    for (const auto &[p, mask] : {std::pair{0.5, 0x3f647d3fd762315aULL},
                                  std::pair{0.05, 0x0104000100000000ULL}}) {
        Rng rng(katSeed);
        for (unsigned i = 0; i < 64; ++i)
            EXPECT_EQ(rng.chance(p), ((mask >> i) & 1) != 0)
                << "chance(" << p << "), draw " << i;
        EXPECT_EQ(rng.next(), katNextAfter64);
    }

    static constexpr double uniforms[64] = {
        0x1.021b5fb04f0cfp-1, 0x1.ce977cdaad93p-5, 0x1.b2e1a2493b42dp-1,
        0x1.e91c356cc66ep-5, 0x1.390e51cb28736p-2, 0x1.247783b716a86p-1,
        0x1.abec797004cep-2, 0x1.0709a032fc2bap-1, 0x1.8b4c7b1ccb7d8p-4,
        0x1.0fba9a58606dap-1, 0x1.6302a7f93ffa7p-1, 0x1.f534169f29923p-1,
        0x1.448975d7990a8p-2, 0x1.85fa7483a16b4p-3, 0x1.1c158f661a04ap-1,
        0x1.0030e39e08da3p-1, 0x1.a3f2cf6ab7f5ep-1, 0x1.ab9222025d8fp-3,
        0x1.b5e8c2f41116fp-1, 0x1.71de74d24595fp-1, 0x1.a5e5bf07615b8p-1,
        0x1.ce57aa33ec15ap-2, 0x1.494d262614c9p-3, 0x1.338842d570334p-1,
        0x1.3decaf57ec3b8p-3, 0x1.8b173d62135bcp-3, 0x1.756fdc1e28c02p-2,
        0x1.ffffd0dafce46p-1, 0x1.e1957c2748b6p-2, 0x1.e6f00edd0fccfp-1,
        0x1.6a27bcf2fa9c4p-3, 0x1.2536170f93a06p-2, 0x1.d19db01c895ap-6,
        0x1.f82f6b1a0d00cp-3, 0x1.beaa2bdc3d192p-2, 0x1.45673862015dep-2,
        0x1.a8232dadbb5f8p-2, 0x1.69c2bc4d617fep-2, 0x1.680b90a9c918bp-1,
        0x1.66deaae4ff7cp-1, 0x1.6157c7882bd44p-2, 0x1.33a36e137f94ep-1,
        0x1.6e59e3586ce38p-3, 0x1.6351b1a0c631cp-3, 0x1.17f0f626b94e2p-2,
        0x1.eb8dfdd2a97p-5, 0x1.af5471e99e46p-3, 0x1.26a683e8394a8p-1,
        0x1.245d851a37cd9p-1, 0x1.b7b51759c1bf1p-1, 0x1.89ea15aa51ep-7,
        0x1.c398e45d2c7p-1, 0x1.9e2782bbae7aep-1, 0x1.d462724a51c6p-5,
        0x1.a0a39bce5eb8ap-2, 0x1.6adc5ad387895p-1, 0x1.5aa040df5a55p-5,
        0x1.f93d987ac99dp-3, 0x1.6828d09882168p-4, 0x1.70b6265795366p-2,
        0x1.67abad804b6bcp-3, 0x1.329dee7faff24p-3, 0x1.96f7c98c8bb1bp-1,
        0x1.ccd45e174e4c7p-1
    };
    Rng rng(katSeed);
    for (unsigned i = 0; i < 64; ++i)
        EXPECT_EQ(rng.uniform(), uniforms[i]) << "draw " << i;
    EXPECT_EQ(rng.next(), katNextAfter64);
}

TEST(RngDeathTest, BelowZeroBoundPanics)
{
    Rng rng(1);
    volatile uint64_t zero = 0;
    EXPECT_DEATH(rng.below(zero), "zero bound");
}


} // namespace
} // namespace aiecc
