#include "obs/shard_run.hh"

#include <vector>

#include "common/logging.hh"
#include "common/parallel.hh"

namespace aiecc
{
namespace obs
{

ShardObservers::ShardObservers(const Observer *parent)
{
    if (!parent)
        return;
    if (parent->stats()) {
        stats = std::make_unique<StatsRegistry>();
        obs.setStats(stats.get());
    }
    if (parent->cost()) {
        // Same model, private integer tallies: the shard-order merge
        // is bit-identical for any jobs value.
        costAcct = std::make_unique<CostAccountant>(parent->cost()->model());
        obs.setCost(costAcct.get());
    }
    if (parent->lineage()) {
        ledger = std::make_unique<LineageLedger>();
        obs.setLineage(ledger.get());
    }
    if (parent->tracing()) {
        // Unbounded capture: the per-trial event count is variable
        // and the shard-order re-emit needs the stream loss-free.
        events = std::make_unique<obs::VectorTraceSink>();
        obs.addSink(events.get());
    }
}

bool
ShardObservers::observed() const
{
    return obs.stats() || obs.cost() || obs.tracing();
}

void
ShardObservers::foldInto(const Observer &parent)
{
    if (stats)
        parent.stats()->merge(*stats);
    if (costAcct)
        parent.cost()->merge(*costAcct);
    if (ledger)
        parent.lineage()->merge(*ledger);
    if (events) {
        for (TraceEvent &event : events->take())
            parent.emit(event);
    }
}

RunStatus
runSharded(uint64_t total, uint64_t shardSize, unsigned jobs,
           const Observer *parent, const ShardBody &shardFn,
           const std::function<void(uint64_t)> &foldFn,
           const ShardCheckpoint *checkpoint,
           const std::function<void(uint64_t)> &progress)
{
    AIECC_ASSERT(shardSize > 0, "shard size must be positive");
    const uint64_t shards = shardCount(total, shardSize);
    std::vector<std::unique_ptr<ShardObservers>> slots(shards);

    const auto run = [&](uint64_t shard) {
        slots[shard] = std::make_unique<ShardObservers>(parent);
        shardFn(shard, shard * shardSize,
                shardLength(total, shardSize, shard), *slots[shard]);
    };
    const auto fold = [&](uint64_t begin, uint64_t end) {
        for (uint64_t shard = begin; shard < end; ++shard) {
            if (parent)
                slots[shard]->foldInto(*parent);
            slots[shard].reset();
            foldFn(shard);
        }
    };

    if (!checkpoint) {
        runShards(shards, jobs, run, progress);
        fold(0, shards);
        return RunStatus::Completed;
    }
    return runShardsCheckpointed(
        shards, checkpoint->batchShards, jobs, *checkpoint->nextShard, run,
        [&](uint64_t begin, uint64_t end) {
            // Fold, trace re-emit included, before the commit persists:
            // the on-disk state is always a clean shard-order prefix.
            fold(begin, end);
            checkpoint->commit(begin, end);
        },
        progress);
}

} // namespace obs
} // namespace aiecc
