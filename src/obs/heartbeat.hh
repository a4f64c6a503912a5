/**
 * @file
 * Live campaign progress telemetry (DESIGN.md §13).
 *
 * Checkpointed campaigns run for minutes to hours and, before this
 * module, emitted nothing between checkpoints.  A HeartbeatEmitter
 * appends one flat JSON object per period to a JSONL file (the
 * `--heartbeat PATH` bench flag): campaign id, shards/trials done and
 * total, session throughput, an ETA, the process-wide allocation
 * totals, and any bench-supplied flat payload (live coverage and cost
 * counters).  `aiecc-trace progress FILE` summarizes one.
 *
 * Contracts:
 *  - observability only — ticking never changes campaign results,
 *    heartbeat state is excluded from checkpoint digests, and the
 *    `--jobs` bit-identity / crash-resume guarantees are untouched;
 *  - records are flat scalars only (the trace_reader parser's
 *    schema), so one parser serves traces and heartbeats;
 *  - tick() is thread-safe (progress callbacks may fire from shard
 *    workers) and rate-limited by AIECC_HEARTBEAT_INTERVAL_MS
 *    (default 1000; 0 = every tick), and its records never step back:
 *    shards_done and trials_done are the furthest any tick reported,
 *    whichever worker reaches the lock first;
 *  - SIGUSR1 forces the next tick to emit immediately, so a stuck
 *    run can be interrogated without waiting for the interval;
 *  - rate and ETA are session-relative (measured from the first tick
 *    after open), so a resumed campaign's ETA is not skewed by work
 *    done in earlier sessions.
 */

#ifndef AIECC_OBS_HEARTBEAT_HH
#define AIECC_OBS_HEARTBEAT_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>

#include "obs/json.hh"

namespace aiecc
{
namespace obs
{

class HeartbeatEmitter
{
  public:
    HeartbeatEmitter() = default;
    ~HeartbeatEmitter() { close(); }

    HeartbeatEmitter(const HeartbeatEmitter &) = delete;
    HeartbeatEmitter &operator=(const HeartbeatEmitter &) = delete;

    /**
     * Open @p path for appending (a resumed campaign extends its
     * earlier heartbeat log) and install the SIGUSR1 force-dump
     * handler.  Returns false (and stays disabled) when the file
     * cannot be opened.  With an empty path the emitter is inert and
     * every other call is a cheap no-op.
     */
    bool open(const std::string &path, const std::string &campaignId);

    /** Totals the progress fields and the ETA are computed against. */
    void setTotals(uint64_t totalShards, uint64_t totalTrials);

    /** Free-text progress note carried on each record (e.g. unit). */
    void setNote(const std::string &note);

    /**
     * Bench-supplied extra payload, called under the emitter lock
     * whenever a record is written.  Must emit *flat* key/value
     * members only (w.kv(...)), e.g. live coverage and cost
     * counters; nested values would break the flat-schema parser.
     */
    void setPayload(std::function<void(JsonWriter &)> payload);

    /**
     * Report progress; writes a record when the interval elapsed (or
     * a SIGUSR1 arrived, or it is the first tick).  Safe from any
     * thread; the caller needs no rate limiting of its own.
     */
    void tick(uint64_t shardsDone, uint64_t trialsDone);

    /** Unconditionally write a final record (end of run / interrupt). */
    void finalTick(uint64_t shardsDone, uint64_t trialsDone);

    /** Flush and close the file; further ticks are no-ops. */
    void close();

    bool enabled() const { return out != nullptr; }

    /** Records written so far by this emitter. */
    uint64_t records() const { return seq; }

  private:
    void emit(uint64_t shardsDone, uint64_t trialsDone, bool forced);

    std::FILE *out = nullptr;
    std::string campaign;
    std::string note;
    std::function<void(JsonWriter &)> payload;
    uint64_t totalShards = 0;
    uint64_t totalTrials = 0;
    uint64_t seq = 0;
    uint64_t maxShards = 0; ///< records never report less than this
    uint64_t maxTrials = 0;
    uint64_t intervalMs = 1000;
    bool ticked = false; ///< first tick (rate baseline) taken
    uint64_t baseTrials = 0; ///< trialsDone at the first tick
    std::chrono::steady_clock::time_point opened{};
    std::chrono::steady_clock::time_point lastEmit{};
    std::mutex mtx;
};

} // namespace obs
} // namespace aiecc

#endif // AIECC_OBS_HEARTBEAT_HH
