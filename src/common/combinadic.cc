#include "common/combinadic.hh"

#include <array>

#include "common/logging.hh"

namespace aiecc
{

namespace
{

/**
 * C(n, k) by the exact multiplicative ladder: after step i the
 * accumulator holds C(n - k + i, i), an integer, so every division is
 * exact.  The 128-bit intermediate makes the overflow test precise.
 */
bool
binomialImpl(unsigned n, unsigned k, uint64_t &out)
{
    if (k > n) {
        out = 0;
        return true;
    }
    if (k > n - k)
        k = n - k;
    unsigned __int128 r = 1;
    for (unsigned i = 1; i <= k; ++i) {
        r = r * (n - k + i) / i;
        if (r > ~static_cast<uint64_t>(0))
            return false;
    }
    out = static_cast<uint64_t>(r);
    return true;
}

/**
 * Pascal's triangle up to CombinationSpace::maxN, saturating at
 * 2^64 - 1 where C(m, j) overflows and 0 for j > m.  Every C(m, j)
 * that rank() and unrank() read for a constructible space is at most
 * C(n, k), so they never see a saturated entry.
 */
constexpr auto pascal = [] {
    constexpr unsigned rows = CombinationSpace::maxN + 1;
    std::array<std::array<uint64_t, rows>, rows> c{};
    for (unsigned m = 0; m < rows; ++m) {
        c[m][0] = 1;
        for (unsigned j = 1; j <= m; ++j) {
            const uint64_t a = c[m - 1][j - 1];
            const uint64_t b = c[m - 1][j];
            c[m][j] = a > ~uint64_t{0} - b ? ~uint64_t{0} : a + b;
        }
    }
    return c;
}();

} // namespace

bool
binomialFits(unsigned n, unsigned k)
{
    uint64_t unused;
    return binomialImpl(n, k, unused);
}

uint64_t
binomial(unsigned n, unsigned k)
{
    uint64_t value;
    if (!binomialImpl(n, k, value)) {
        AIECC_PANIC("binomial(" << n << ", " << k
                                << ") overflows uint64_t");
    }
    return value;
}

CombinationSpace::CombinationSpace(unsigned n, unsigned k)
    : setSize(n), comboSize(k), count(binomial(n, k))
{
    if (k > n) {
        AIECC_PANIC("combination space needs k <= n, got C("
                    << n << ", " << k << ")");
    }
    if (n > maxN) {
        AIECC_PANIC("combination space needs n <= " << maxN << ", got C("
                                                    << n << ", " << k
                                                    << ")");
    }
}

void
CombinationSpace::unrank(uint64_t rank, unsigned *out) const
{
    if (rank >= count) {
        AIECC_PANIC("combination rank " << rank << " out of range [0, "
                                        << count << ")");
    }
    // Walk candidate elements in ascending order; taking value v as
    // the next element covers C(n - 1 - v, remaining) combinations,
    // so skip whole blocks until the rank falls inside one.
    unsigned v = 0;
    for (unsigned i = 0; i < comboSize; ++i) {
        for (;;) {
            const uint64_t block =
                pascal[setSize - 1 - v][comboSize - 1 - i];
            if (rank < block)
                break;
            rank -= block;
            ++v;
        }
        out[i] = v++;
    }
}

std::vector<unsigned>
CombinationSpace::unrank(uint64_t rank) const
{
    std::vector<unsigned> combo(comboSize);
    unrank(rank, combo.data());
    return combo;
}

uint64_t
CombinationSpace::rank(const unsigned *combo) const
{
    uint64_t r = 0;
    unsigned prev = 0;
    for (unsigned i = 0; i < comboSize; ++i) {
        if (combo[i] >= setSize ||
            (i > 0 && combo[i] <= combo[i - 1])) {
            AIECC_PANIC("rank() needs strictly ascending elements "
                        "below " << setSize);
        }
        // Every combination whose i'th element is some v < combo[i]
        // (and whose prefix matches) ranks earlier.
        for (unsigned v = prev; v < combo[i]; ++v)
            r += pascal[setSize - 1 - v][comboSize - 1 - i];
        prev = combo[i] + 1;
    }
    return r;
}

uint64_t
CombinationSpace::rank(const std::vector<unsigned> &combo) const
{
    if (combo.size() != comboSize)
        AIECC_PANIC("rank() needs exactly " << comboSize << " elements");
    return rank(combo.data());
}

} // namespace aiecc
