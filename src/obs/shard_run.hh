/**
 * @file
 * The one sharded-campaign driver (DESIGN.md §9, §12).
 *
 * Every campaign engine — the Table III Monte-Carlo, the CCCA and
 * GDDR5 injection campaigns, the e2e bench's campaign mode — splits a
 * budget into fixed-size shards, gives each shard private twins of
 * what the caller's Observer carries, runs the shards on a worker pool
 * and folds them back strictly in shard order, so merged artifacts
 * are bit-identical for any `--jobs` value.  runSharded() is that
 * shape, once; an engine supplies its shard body and its result fold.
 *
 * Plain and checkpointed runs differ only in the executor: the plain
 * run is one runShards() batch (no stop-flag check, no
 * AIECC_CRASH_AFTER_SHARD hook); the checkpointed run goes through
 * runShardsCheckpointed() and commits after each batch's fold.
 */

#ifndef AIECC_OBS_SHARD_RUN_HH
#define AIECC_OBS_SHARD_RUN_HH

#include <cstdint>
#include <functional>
#include <memory>

#include "common/checkpoint.hh"
#include "obs/observer.hh"

namespace aiecc
{
namespace obs
{

/**
 * One shard's private twins of what the parent Observer carries,
 * allocating only what it attached: stats, cost (same model) and
 * lineage ledger wired into observer(), plus an unbounded
 * event buffer as its first sink when the parent traces.
 */
class ShardObservers
{
  public:
    /** @p parent may be null (nothing to twin). */
    explicit ShardObservers(const Observer *parent);

    /** Shard-local observer; engines may add sinks of their own. */
    Observer &observer() { return obs; }
    /**
     * True when observer() carries stats, cost or sinks —
     * what a stack or engine would act on.  A ledger alone does not
     * count: engines record lineage themselves.
     */
    bool observed() const;

    /** Merge into @p parent and re-emit the buffered events. */
    void foldInto(const Observer &parent);

  private:
    Observer obs;
    std::unique_ptr<StatsRegistry> stats;
    std::unique_ptr<CostAccountant> costAcct;
    std::unique_ptr<VectorTraceSink> events;
    std::unique_ptr<LineageLedger> ledger;
};

/** The checkpointed form's extra inputs. */
struct ShardCheckpoint
{
    uint64_t batchShards = 1;
    /** First uncommitted shard; advanced after each commit. */
    uint64_t *nextShard = nullptr;
    /** Persist hook: commit(batchBegin, batchEnd), after the fold. */
    std::function<void(uint64_t, uint64_t)> commit;
};

/** Shard body: (shard index, first item, item count, shard state). */
using ShardBody =
    std::function<void(uint64_t, uint64_t, uint64_t, ShardObservers &)>;

/**
 * Run @p total items in shards of @p shardSize on @p jobs workers.
 * @p shardFn runs concurrently and may write only its own shard's
 * slots.  After the shards join (per batch when checkpointed), each
 * shard's twins fold into @p parent (null = nothing attached) and
 * then @p foldFn(shard) folds the engine's results — in shard order,
 * on the calling thread, after which the twins are released.  @p progress goes to the pool.
 *
 * Without @p checkpoint the run always completes.  With it, the run
 * resumes at *nextShard, commits per batch, and returns Interrupted
 * on a pending stop request.
 */
RunStatus runSharded(uint64_t total, uint64_t shardSize, unsigned jobs,
                     const Observer *parent, const ShardBody &shardFn,
                     const std::function<void(uint64_t)> &foldFn,
                     const ShardCheckpoint *checkpoint = nullptr,
                     const std::function<void(uint64_t)> &progress = {});

} // namespace obs
} // namespace aiecc

#endif // AIECC_OBS_SHARD_RUN_HH
