/**
 * @file
 * Shared pieces of the repository benchmark: command-line options, the
 * result record every workload fills, pass timing with exact
 * quantiles, and the seeded access stream the two mix workloads (and
 * the layer probes) replay.
 *
 * Every workload is a closed loop with one caller on one thread: the
 * next access or trial starts only after the previous call returned.
 * A run repeats fixed-size *passes* of that loop until --seconds have
 * elapsed.  Each pass starts from freshly built library objects and
 * replays the same seeded inputs, so every pass must reproduce the
 * same simulated statistics bit for bit (the in-run determinism
 * check), and host-time metrics are medians over passes.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ddr4/address.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Nanoseconds from @p since to now. */
inline double
nsSince(Clock::time_point since)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - since)
        .count();
}

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/**
 * Everything one run reports.  `attempted` counts every op the timed
 * region ran; `failed` counts ops the benchmark's own output checks
 * rejected (simulated DUE/SDC outcomes are results, not failures).
 */
struct RunResult
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors;
    std::map<std::string, double> values;
    std::vector<std::string> notes;

    /** Record a failed output check when @p ok is false. */
    void check(bool ok, const std::string &what);
    void note(const std::string &line) { notes.push_back(line); }
    void set(const std::string &name, double value) { values[name] = value; }
};

/** FNV-1a over @p len bytes, chained from @p h. */
inline uint64_t
digest(const void *data, size_t len, uint64_t h = 0xCBF29CE484222325ULL)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < len; ++i)
        h = (h ^ p[i]) * 0x100000001B3ULL;
    return h;
}

/**
 * Print the digest of a pass's simulated statistics: two runs with
 * the same seed must print the same line.
 */
void noteDigest(RunResult &out, uint64_t h);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/**
 * Host-time record of one run: throughput per timing window and exact
 * per-pass quantiles of the raw per-op latency samples.  The run
 * reports medians over windows and passes, so a burst of interference
 * from outside the process spoils a window, not the run.
 */
struct PassTimes
{
    std::vector<double> opsPerSec; ///< one entry per window
    std::vector<double> p50;       ///< one entry per latency pass
    std::vector<double> p99;
    uint64_t ops = 0;
    uint64_t samples = 0;
    double ns = 0.0;

    /** One timing window of @p ops ops that took @p ns. */
    void addWindow(uint64_t ops, double ns);
    /** One pass of raw latency samples (sorts @p lat). */
    void addLatencies(std::vector<double> &lat);
    void
    add(uint64_t ops, double ns, std::vector<double> &lat)
    {
        addWindow(ops, ns);
        addLatencies(lat);
    }
};

/** Fill the end-to-end timing metrics from @p t. */
void reportTimes(RunResult &out, const PassTimes &t);

/** Call @p onePass(i) until @p seconds elapsed and @p minPasses ran. */
template <class F>
void
repeatFor(double seconds, unsigned minPasses, F onePass)
{
    const auto start = Clock::now();
    for (unsigned i = 0; i < minPasses || nsSince(start) < seconds * 1e9;
         ++i)
        onePass(i);
}

/**
 * Median of @p samples repeated set-ups, reported as setup_s.  Each
 * call of @p once does the whole set-up and returns its host time.
 */
template <class F>
void
measureSetup(RunResult &out, unsigned samples, F once)
{
    std::vector<double> s;
    for (unsigned i = 0; i < samples; ++i)
        s.push_back(once());
    out.set("setup_s", median(s));
}

// ---- the access stream of the mix workloads ---------------------------

/** Working-set bounds: 16 banks x 64 rows x 128 MTB columns (~9 MB). */
constexpr unsigned rowSpace = 64;
constexpr unsigned colSpace = 128;
constexpr double readFrac = 0.67;
constexpr double rowHitRate = 0.6;

/** One access: where, which direction, and the payload's varying word. */
struct Access
{
    aiecc::MtbAddress addr;
    bool read = false;
    uint64_t word = 0;
};

/** The seeded access stream: @p n accesses over the working set. */
std::vector<Access> makeStream(uint64_t seed, size_t n);

/** Dense index of @p addr inside the working set (shadow memory). */
inline size_t
slotOf(const aiecc::MtbAddress &addr)
{
    const size_t bank = addr.bg * 4 + addr.ba;
    return (bank * rowSpace + addr.row) * colSpace + addr.col;
}
constexpr size_t numSlots = 16 * rowSpace * colSpace;

// ---- workloads -------------------------------------------------------

RunResult runMix(const Options &opt, bool faulty);
RunResult runDataCampaign(const Options &opt);
RunResult runCccaCampaign(const Options &opt);

/**
 * The traced run's isolated layer measurements: replay @p stream
 * through a composition built from the public layers (DramRank +
 * MemController + eDECC-c codec), then feed the recorded commands and
 * codewords to the pin codec, eWCRC, CSTC, RS and ECC entry points.
 * Repeats for @p seconds (at least once) and keeps each metric's
 * median.  Fills the aiecc.ctor/ecc/rs/controller/ddr4/crc/dram
 * metrics, plus unprinted "_replay.*" per-op costs of the stack's
 * children that the mix attribution table subtracts.
 */
void probeLayers(RunResult &out, uint64_t seed,
                 const std::vector<Access> &stream, double seconds);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
