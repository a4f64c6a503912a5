/**
 * @file
 * A gem5-style registry of named simulation statistics.
 *
 * Stats are registered under hierarchical dotted names
 * ("stack.retries", "cstc.alerts", "stack.detect.eDECC") and come in
 * three kinds: monotonically incremented Counters, assignable Scalars
 * and value-distribution Histograms.  Registration is idempotent —
 * asking for an existing name returns the same object — so producers
 * can resolve their counters once at construction time and bump a raw
 * pointer on the hot path.  reset() zeroes every value while keeping
 * all registrations (and resolved pointers) alive.
 */

#ifndef AIECC_OBS_STATS_HH
#define AIECC_OBS_STATS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "obs/json.hh"
#include "obs/state.hh"

namespace aiecc
{
namespace obs
{

/** A monotonically increasing event count. */
class Counter
{
  public:
    const std::string &name() const { return nm; }
    const std::string &description() const { return desc; }
    uint64_t value() const { return val; }

    Counter &operator++()
    {
        ++val;
        return *this;
    }
    Counter &operator+=(uint64_t delta)
    {
        val += delta;
        return *this;
    }
    void reset() { val = 0; }

  private:
    friend class StatsRegistry;
    Counter(std::string name, std::string description)
        : nm(std::move(name)), desc(std::move(description))
    {
    }
    std::string nm, desc;
    uint64_t val = 0;
};

/** A last-writer-wins scalar (rates, fractions, configuration echo). */
class Scalar
{
  public:
    const std::string &name() const { return nm; }
    const std::string &description() const { return desc; }
    double value() const { return val; }
    Scalar &operator=(double v)
    {
        val = v;
        return *this;
    }
    void reset() { val = 0.0; }

  private:
    friend class StatsRegistry;
    Scalar(std::string name, std::string description)
        : nm(std::move(name)), desc(std::move(description))
    {
    }
    std::string nm, desc;
    double val = 0.0;
};

/** A value distribution: count/sum/min/max plus log2 buckets. */
class Histogram
{
  public:
    static constexpr unsigned numBuckets = 65; ///< [0], [1,2), [2,4)...

    /**
     * Standalone construction is allowed for transient analysis
     * (trace post-processing, bench-local latency capture); stats
     * that live for a run belong in a StatsRegistry, which
     * guarantees stable addresses.
     */
    explicit Histogram(std::string name = "", std::string description = "")
        : nm(std::move(name)), desc(std::move(description))
    {
    }

    const std::string &name() const { return nm; }
    const std::string &description() const { return desc; }

    void sample(uint64_t v);

    uint64_t count() const { return cnt; }
    double sum() const { return total; }
    uint64_t min() const { return cnt ? mn : 0; }
    uint64_t max() const { return mx; }
    double mean() const { return cnt ? total / static_cast<double>(cnt) : 0.0; }
    /** Samples in bucket @p b: b=0 holds value 0, b>=1 holds [2^(b-1), 2^b). */
    uint64_t bucket(unsigned b) const { return buckets[b]; }

    /**
     * Estimate the @p q quantile (q in [0,1]) by linear interpolation
     * across the log2 bucket a rank of q*(count-1) lands in, clamped
     * to the observed [min, max].  Exact for q=0/q=1; for uniform
     * in-bucket distributions the interpolation error is small, and
     * it is never off by more than one bucket width.  Returns 0 with
     * no samples.
     */
    double quantile(double q) const;

    /**
     * Fold @p other into this distribution: counts, sum and buckets
     * add, min/max widen.  Merging shard-local histograms in shard
     * order is the lock-free alternative to sampling a shared
     * histogram from worker threads.
     */
    void merge(const Histogram &other);

    void reset();

    /**
     * Checkpoint layout (obs/state.hh), one space-separated line
     * without its newline: count, sum as raw IEEE-754 bits, min, max,
     * buckets.  Distribution state only: the name and description
     * belong to the owning registry.
     */
    template <class Self, class Archive>
    static void
    layout(Self &h, Archive &ar)
    {
        ar(h.cnt, h.total, h.mn, h.mx);
        for (auto &b : h.buckets)
            ar(b);
    }

    std::string serializeState() const { return writeState(*this); }
    /** Replace distribution state with @p text; malformed input panics. */
    void deserializeState(const std::string &s) { restoreState(*this, s); }

  private:
    friend class StatsRegistry;
    std::string nm, desc;
    uint64_t cnt = 0;
    double total = 0.0;
    uint64_t mn = 0, mx = 0;
    uint64_t buckets[numBuckets] = {};
};

/**
 * The registry: owns every stat, guarantees stable addresses across
 * reset(), and serializes the whole tree as nested JSON.
 */
class StatsRegistry
{
  public:
    /**
     * Find-or-create a counter.  Names are dotted hierarchies of
     * [A-Za-z0-9_+-] components; a name may not be reused for a
     * different stat kind, nor may a leaf name double as a group
     * prefix of another stat ("stack" vs "stack.retries").
     *
     * Descriptions are part of the contract: re-resolving an existing
     * stat with an empty description is fine (hot-path lookups), and
     * a bare registration adopts the first description offered, but
     * two *different* non-empty descriptions for one name — e.g. when
     * merging shards whose producers disagree about a counter's
     * meaning — is a hard error (panic), never a silent overwrite.
     */
    Counter &counter(const std::string &name,
                     const std::string &description = "");

    /** Find-or-create a scalar (same naming rules). */
    Scalar &scalar(const std::string &name,
                   const std::string &description = "");

    /** Find-or-create a histogram (same naming rules). */
    Histogram &histogram(const std::string &name,
                         const std::string &description = "");

    /** Counter lookup without creating; nullptr when absent. */
    const Counter *findCounter(const std::string &name) const;

    /** Value of a counter, 0 when it was never registered. */
    uint64_t counterValue(const std::string &name) const;

    size_t size() const
    {
        return counters.size() + scalars.size() + histograms.size();
    }

    /** Zero every value; registrations and addresses survive. */
    void reset();

    /**
     * Fold @p other into this registry: counters add, histograms
     * merge bucket-wise, scalars take @p other's value (last writer
     * wins, matching assignment semantics).  Stats absent here are
     * registered first, so merging into an empty registry clones the
     * source.  A name registered as different kinds in the two
     * registries is a caller bug and panics.
     *
     * This is the explicit join-time aggregation API for sharded
     * campaigns: workers populate thread-local registries with no
     * locking, and the owner merges them in shard order, which keeps
     * the merged result bit-identical for any worker count.
     */
    void merge(const StatsRegistry &other);

    /**
     * Serialize as one nested JSON object value: dotted names become
     * nested objects, histograms become
     * {count,sum,min,max,mean,p50,p90,p99}.
     */
    void writeJson(JsonWriter &w) const;

    /**
     * Checkpoint layout (obs/state.hh): counter values, scalar values
     * (raw bits, so the round trip is exact) and full histogram
     * state, one "name fields" line each under a "kind N" header.
     * Descriptions are not carried — a restored registry adopts them
     * on first live re-registration, exactly as merge() does for
     * stats absent on one side.  The reader rejects any name
     * registerName() would panic on.
     */
    template <class Self, class Archive>
    static void
    layout(Self &reg, Archive &ar)
    {
        if constexpr (Archive::reading)
            reg = StatsRegistry();
        // Stat names are [A-Za-z0-9_+-.] only (registerName), so
        // space-separated fields are unambiguous.
        const auto table = [&](const char *tag, auto &stats, auto find,
                               auto value) {
            const auto slot = [&](const auto &name) {
                const std::string problem =
                    stats.count(name) ? "" : reg.nameProblem(name, tag);
                ar.check(problem.empty(), problem);
                return problem.empty() ? &(reg.*find)(name, "") : nullptr;
            };
            ar.entries(tag, stats, [&](auto &n) { ar.word(n); }, slot, value);
        };
        table("counters", reg.counters, &StatsRegistry::counter,
              [&](auto &c) { ar(c.val); });
        table("scalars", reg.scalars, &StatsRegistry::scalar,
              [&](auto &s) { ar(s.val); });
        table("histograms", reg.histograms, &StatsRegistry::histogram,
              [&](auto &h) { Histogram::layout(h, ar); });
    }

    std::string serializeState() const { return writeState(*this); }
    /** Replace this registry with @p text; malformed input panics. */
    void deserializeState(const std::string &s) { restoreState(*this, s); }

  private:
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Scalar>> scalars;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
    std::set<std::string> leaves; ///< all registered full names
    std::set<std::string> groups; ///< every proper dotted prefix

    /** Validate @p name and record its leaf/group structure. */
    void registerName(const std::string &name, const char *kind);

    /** Why registerName(@p name, @p kind) would panic ("" = it won't). */
    std::string nameProblem(const std::string &name,
                            const char *kind) const;

    /**
     * Enforce description consistency on re-resolution: adopt into an
     * empty @p existing, accept equal or empty, panic on conflict.
     */
    static void checkDescription(std::string &existing,
                                 const std::string &description,
                                 const std::string &name);
};

} // namespace obs
} // namespace aiecc

#endif // AIECC_OBS_STATS_HH
