#include "common/rng.hh"

#include <algorithm>

#include "common/logging.hh"

namespace aiecc
{

namespace
{

/** splitmix64 step, used only for seeding. */
uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t s = seed;
    for (auto &word : state)
        word = splitmix64(s);
}

Rng
Rng::forStream(uint64_t seed, uint64_t stream)
{
    // One splitmix64 round decorrelates the (typically small, dense)
    // stream index; the constructor's splitmix chain then mixes the
    // folded seed into full 256-bit state.  The added odd constant
    // keeps stream 0 distinct from the plain Rng(seed) construction.
    uint64_t s = stream + 0x9E3779B97F4A7C15ULL;
    return Rng(seed ^ splitmix64(s));
}

void
Rng::belowZero()
{
    AIECC_PANIC("Rng::below with zero bound");
}

uint64_t
Rng::range(uint64_t lo, uint64_t hi)
{
    AIECC_ASSERT(lo <= hi, "Rng::range with lo > hi");
    return lo + below(hi - lo + 1);
}

std::vector<unsigned>
Rng::sample(unsigned n, unsigned k)
{
    AIECC_ASSERT(k <= n, "Rng::sample with k > n");
    // Floyd's algorithm: O(k) expected draws, distinct by construction.
    std::vector<unsigned> out;
    out.reserve(k);
    for (unsigned j = n - k; j < n; ++j) {
        const unsigned t = static_cast<unsigned>(below(j + 1));
        if (std::find(out.begin(), out.end(), t) == out.end())
            out.push_back(t);
        else
            out.push_back(j);
    }
    return out;
}

} // namespace aiecc
