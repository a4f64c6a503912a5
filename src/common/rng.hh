/**
 * @file
 * Deterministic pseudo-random number generation for fault injection and
 * Monte-Carlo experiments.  A self-contained xoshiro256** keeps results
 * reproducible across standard libraries.
 */

#ifndef AIECC_COMMON_RNG_HH
#define AIECC_COMMON_RNG_HH

#include <cstdint>
#include <vector>

namespace aiecc
{

/**
 * xoshiro256** 1.0 pseudo-random generator (Blackman & Vigna).
 *
 * Seeded via splitmix64 so that any 64-bit seed yields a well-mixed
 * state.  Deterministic across platforms, unlike std::mt19937 paired
 * with std:: distributions.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed. */
    explicit Rng(uint64_t seed = 0x41454343ULL); // "AECC"

    /**
     * Deterministic stream derivation for sharded campaigns: the
     * generator for stream @p stream of base seed @p seed.  The
     * stream index is decorrelated through splitmix64 before it is
     * folded into the seed, so adjacent indices yield well-separated
     * state — shard k of a campaign always draws the same sequence no
     * matter how many worker threads execute it.  forStream(seed, a)
     * and forStream(seed, b) never alias Rng(seed) or each other for
     * a != b in any way observable at campaign scale.
     */
    static Rng forStream(uint64_t seed, uint64_t stream);

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(state[1] * 5, 7) * 9;
        const uint64_t t = state[1] << 17;

        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);

        return result;
    }

    /**
     * Uniform integer in [0, bound), bound > 0, rejection-sampled.
     * Inline so a constant bound folds: below(256) is next() & 0xFF,
     * and only a runtime bound pays the two divisions.
     */
    uint64_t
    below(uint64_t bound)
    {
        if (bound == 0) [[unlikely]]
            belowZero();
        // Rejection sampling to avoid modulo bias.
        const uint64_t limit = ~0ULL - (~0ULL % bound + 1) % bound;
        uint64_t v;
        do {
            v = next();
        } while (v > limit);
        return v % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    uint64_t range(uint64_t lo, uint64_t hi);

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 random mantissa bits.
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p of returning true. */
    bool chance(double p) { return uniform() < p; }

    /**
     * Choose @p k distinct values from [0, n) (Floyd's algorithm).
     *
     * @param n Population size.
     * @param k Sample size, k <= n.
     * @return k distinct indices in unspecified order.
     */
    std::vector<unsigned> sample(unsigned n, unsigned k);

  private:
    uint64_t state[4];

    /** below()'s failure path, out of line so below() stays small. */
    [[noreturn]] static void belowZero();

    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }
};

} // namespace aiecc

#endif // AIECC_COMMON_RNG_HH
