/**
 * @file
 * Wall-clock profiling for the hot paths of the simulation stack.
 *
 * Simulation stats (src/obs/stats.hh) count what the *modelled*
 * hardware did, in controller cycles; the profiler measures where
 * *host* cycles go, in nanoseconds of std::chrono::steady_clock.  The
 * two deliberately live in separate registries so a stats dump never
 * mixes model time with wall time.
 *
 * A ProfileRegistry hands out named Histograms of nanosecond samples
 * (same log2 buckets and p50/p90/p99 interpolation as every other
 * Histogram).  Producers resolve a `Histogram *` once at construction
 * — nullptr when profiling is off — and open a ScopedTimer on the hot
 * path: with a null target the timer never reads the clock, so the
 * disabled cost is one pointer test, the same contract the stats
 * layer established.
 */

#ifndef AIECC_OBS_PROFILE_HH
#define AIECC_OBS_PROFILE_HH

#include <chrono>
#include <map>
#include <memory>
#include <string>

#include "obs/json.hh"
#include "obs/memprof.hh"
#include "obs/stats.hh"

namespace aiecc
{
namespace obs
{

/**
 * Find-or-create registry of named nanosecond-distribution timers.
 *
 * Names follow the stats registry's dotted convention ("stack.read",
 * "controller.issue"); addresses are stable across reset(), so
 * producers may keep resolved pointers for the process lifetime.
 */
class ProfileRegistry
{
  public:
    /** Find-or-create the timer called @p name (idempotent). */
    Histogram &timer(const std::string &name,
                     const std::string &description = "");

    /** Timer lookup without creating; nullptr when absent. */
    const Histogram *find(const std::string &name) const;

    /**
     * The allocation scope paired with timer @p name (nullptr when
     * the timer was never registered).  Every timer owns one: while a
     * ScopedTimer on @p name is the innermost active scope on its
     * thread, all heap activity is attributed here (obs/memprof.hh).
     */
    const memprof::AllocStats *findAlloc(const std::string &name) const;

    size_t size() const { return timers.size(); }

    /** Zero every distribution; registrations and addresses survive. */
    void reset();

    /**
     * Fold @p other into this registry: same-named timers merge
     * bucket-wise, timers absent here are registered first.  The
     * join-time aggregation API for sharded campaigns, mirroring
     * StatsRegistry::merge.
     */
    void merge(const ProfileRegistry &other);

    /**
     * Serialize as one JSON object value keyed by full dotted timer
     * name: {"stack.read": {count,total_ns,mean_ns,min_ns,max_ns,
     * p50_ns,p90_ns,p99_ns}, ...}.  Flat keys keep the artifact easy
     * to diff across runs.
     */
    void writeJson(JsonWriter &w) const;

    /**
     * Serialize the per-scope allocation dimension as one JSON object
     * keyed by timer name: {"stack.read": {calls,allocs,frees,
     * alloc_bytes,free_bytes,peak_live_bytes,allocs_per_call}, ...}.
     * Becomes the artifact's "alloc.scopes" member.
     */
    void writeAllocJson(JsonWriter &w) const;

    /** Sum of attributed allocations across every scope. */
    uint64_t totalScopedAllocs() const;

    /**
     * Checkpoint layout (obs/state.hh), one line per timer: its name
     * (dotted, no whitespace), full histogram state, then the six
     * allocation counters.  Like StatsRegistry's, descriptions are not
     * carried — a restored registry adopts them on re-registration.
     */
    template <class Self, class Archive>
    static void
    layout(Self &reg, Archive &ar)
    {
        if constexpr (Archive::reading)
            reg = ProfileRegistry();
        ar.entries(
            "profile", reg.timers, [&](auto &name) { ar.word(name); },
            [&](const auto &name) { return &reg.timer(name); },
            [&](auto &t) {
                Histogram::layout(t, ar);
                auto &a = *reg.allocs.at(t.name());
                ar(a.allocs, a.frees, a.allocBytes, a.freeBytes, a.liveBytes,
                   a.peakLiveBytes);
            });
    }

    std::string serializeState() const { return writeState(*this); }
    /** Replace this registry with @p text; malformed input panics. */
    void deserializeState(const std::string &s) { restoreState(*this, s); }

    /** Human-readable dump, one line per timer, sorted by name. */
    std::string str() const;

  private:
    std::map<std::string, std::unique_ptr<Histogram>> timers;
    /** One allocation scope per timer, same keys as `timers`. */
    std::map<std::string, std::unique_ptr<memprof::AllocStats>> allocs;
};

/**
 * RAII nanosecond timer: samples the enclosing scope's duration into
 * @p target on destruction.  A null target skips the clock reads
 * entirely, so instrumented code pays one branch when profiling is
 * disabled.  Timers nest naturally — each scope samples its own
 * histogram, and an inner scope's time is included in the outer's.
 *
 * When the target carries an allocation scope (every ProfileRegistry
 * timer does), the timer also pushes it onto the thread's memprof
 * attribution stack for its lifetime: heap activity inside the scope
 * is attributed to the *innermost* open timer, so nested scopes
 * partition allocations instead of double counting them.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Histogram *target) : hist(target)
    {
        if (hist) {
            scope = hist->allocScope();
            if (scope)
                memprof::pushScope(scope);
            begin = std::chrono::steady_clock::now();
        }
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

    ~ScopedTimer()
    {
        if (hist) {
            hist->sample(elapsedNs());
            if (scope)
                memprof::popScope();
        }
    }

    /** Nanoseconds since construction (0 when disabled). */
    uint64_t
    elapsedNs() const
    {
        if (!hist)
            return 0;
        const auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - begin)
                .count();
        return ns > 0 ? static_cast<uint64_t>(ns) : 0;
    }

  private:
    Histogram *hist;
    memprof::AllocStats *scope = nullptr;
    std::chrono::steady_clock::time_point begin{};
};

} // namespace obs
} // namespace aiecc

#endif // AIECC_OBS_PROFILE_HH
