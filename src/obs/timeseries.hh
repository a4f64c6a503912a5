/**
 * @file
 * Fixed-capacity bucketed sliding-window counters.
 *
 * A SlidingWindow counts events over the last `numBuckets *
 * bucketCycles` cycles by folding each event into the bucket its
 * cycle stamp lands in and expiring buckets lazily as time advances.
 * Everything lives in a fixed-size array, so recording is
 * allocation-free, and the class follows the registry contract the
 * rest of src/obs obeys: shard-local instances merge bucket-aligned
 * in shard order (bit-identical for any --jobs value) and the full
 * state round-trips through one layout() for campaign checkpoints.
 */

#ifndef AIECC_OBS_TIMESERIES_HH
#define AIECC_OBS_TIMESERIES_HH

#include <cstdint>
#include <string>

#include "obs/json.hh"
#include "obs/state.hh"

namespace aiecc
{
namespace obs
{

/** A bucketed event counter over a sliding cycle window. */
class SlidingWindow
{
  public:
    static constexpr unsigned numBuckets = 16;

    /**
     * @param bucketCycles Width of one bucket in cycles; the window
     *                     spans numBuckets * bucketCycles cycles.
     */
    explicit SlidingWindow(uint64_t bucketCycles = 1ull << 16);

    uint64_t bucketCycles() const { return bucketWidth; }
    uint64_t windowCycles() const { return bucketWidth * numBuckets; }

    /**
     * Count @p n events at @p cycle.  Advancing time expires old
     * buckets (bounded by numBuckets zeroing steps); an event older
     * than the current window is counted in the lifetime total only.
     */
    void record(uint64_t cycle, uint64_t n = 1);

    /** Expire buckets up to @p cycle without counting anything. */
    void advanceTo(uint64_t cycle);

    /** Events still inside the window (as of the newest recorded cycle). */
    uint64_t windowTotal() const;

    /** Every event ever recorded, expired or not. */
    uint64_t lifetimeTotal() const { return life; }

    /**
     * Window event rate per kilocycle.  The denominator is the span
     * actually covered so far (ramping up to the full window), which
     * keeps early-run rates honest instead of zero-diluted.
     */
    double ratePerKilocycle() const;

    /** Cycles the window currently covers (<= windowCycles()). */
    uint64_t coveredCycles() const;

    /**
     * Fold @p other in, aligning buckets by absolute bucket index so
     * the merge is commutative and associative: merging shard-local
     * windows in shard order gives the same bytes for any shard
     * count.  Both windows must share bucketCycles (panic otherwise).
     */
    void merge(const SlidingWindow &other);

    void reset();

    /**
     * Checkpoint layout (obs/state.hh), one space-separated line
     * without its newline: bucket width, any-flag, head and first
     * bucket index, lifetime total, buckets.
     */
    template <class Self, class Archive>
    static void
    layout(Self &w, Archive &ar)
    {
        ar(w.bucketWidth, w.any, w.head, w.first, w.life);
        for (auto &b : w.buckets)
            ar(b);
        ar.check(w.bucketWidth > 0, "zero bucket width");
    }

    std::string serializeState() const { return writeState(*this); }
    /** Replace state with @p text; malformed input panics. */
    void deserializeState(const std::string &s) { restoreState(*this, s); }

    /**
     * Emit the standard JSON members (window_total, lifetime,
     * rate_per_kcycle) into an already-open object.
     */
    void writeJsonMembers(JsonWriter &w, const std::string &prefix) const;

  private:
    uint64_t bucketWidth;
    bool any = false;      ///< has record() ever been called
    uint64_t head = 0;     ///< absolute index of the newest bucket
    uint64_t first = 0;    ///< absolute index of the oldest-ever bucket
    uint64_t life = 0;
    uint64_t buckets[numBuckets] = {};

    /** Advance head to absolute bucket @p idx, zeroing skipped slots. */
    void advanceHead(uint64_t idx);
};

} // namespace obs
} // namespace aiecc

#endif // AIECC_OBS_TIMESERIES_HH
