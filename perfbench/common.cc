#include <algorithm>
#include <cstdio>

#include "common/rng.hh"
#include "perfbench.hh"

namespace perfbench
{

void
RunResult::check(bool ok, const std::string &what)
{
    if (!ok && std::find(errors.begin(), errors.end(), what) == errors.end())
        errors.push_back(what);
}

void
noteDigest(RunResult &out, uint64_t h)
{
    char line[120];
    std::snprintf(line, sizeof(line),
                  "simulated statistics digest %016llx (same for every run "
                  "with this seed)",
                  static_cast<unsigned long long>(h));
    out.note(line);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

namespace
{

/** Exact quantile of sorted @p v: the sample with floor(q*n) below it. */
double
quantileSorted(const std::vector<double> &v, double q)
{
    if (v.empty())
        return 0.0;
    size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
    if (rank >= v.size())
        rank = v.size() - 1;
    return v[rank];
}

} // namespace

void
PassTimes::addWindow(uint64_t n, double windowNs)
{
    opsPerSec.push_back(static_cast<double>(n) * 1e9 / windowNs);
    ops += n;
    ns += windowNs;
}

void
PassTimes::addLatencies(std::vector<double> &lat)
{
    std::sort(lat.begin(), lat.end());
    p50.push_back(quantileSorted(lat, 0.50));
    p99.push_back(quantileSorted(lat, 0.99));
    samples += lat.size();
}

void
reportTimes(RunResult &out, const PassTimes &t)
{
    out.set("ops_per_s", median(t.opsPerSec));
    out.set("op_p50_ns", median(t.p50));
    out.set("op_p99_ns", median(t.p99));
    const size_t perPass = t.p50.empty() ? 0 : t.samples / t.p50.size();
    char line[240];
    const auto [lo, hi] =
        std::minmax_element(t.opsPerSec.begin(), t.opsPerSec.end());
    std::snprintf(line, sizeof(line),
                  "ops_per_s %.0f 1/s (median of %zu windows, range "
                  "%.0f-%.0f, %llu ops)",
                  median(t.opsPerSec), t.opsPerSec.size(), *lo, *hi,
                  static_cast<unsigned long long>(t.ops));
    out.note(line);
    std::snprintf(line, sizeof(line),
                  "op_p50_ns %.1f ns, op_p99_ns %.1f ns: exact quantiles of "
                  "the raw samples of each pass (n=%zu per pass, %zu above "
                  "p99), median of %zu passes",
                  median(t.p50), median(t.p99), perPass,
                  perPass - 1 - static_cast<size_t>(0.99 * perPass),
                  t.p50.size());
    out.note(line);
}

std::vector<Access>
makeStream(uint64_t seed, size_t n)
{
    aiecc::Rng rng(seed ^ 0x5EED57EA);
    const aiecc::Geometry geom;
    std::vector<unsigned> lastRow(geom.numBanks(), 0);
    std::vector<Access> stream(n);
    for (Access &a : stream) {
        a.addr.bg = static_cast<unsigned>(rng.below(geom.numBankGroups()));
        a.addr.ba = static_cast<unsigned>(rng.below(geom.banksPerGroup()));
        const unsigned bank = a.addr.flatBank(geom);
        a.addr.row = rng.chance(rowHitRate)
                         ? lastRow[bank]
                         : static_cast<unsigned>(rng.below(rowSpace));
        lastRow[bank] = a.addr.row;
        a.addr.col = static_cast<unsigned>(rng.below(colSpace));
        a.read = rng.chance(readFrac);
        a.word = rng.next();
    }
    return stream;
}

} // namespace perfbench
