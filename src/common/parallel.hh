/**
 * @file
 * Deterministic shard-parallel execution for campaign fan-out.
 *
 * A campaign's trial budget is split into fixed-size shards; each
 * shard is a self-contained unit of work identified only by its index
 * (its RNG stream, stack instances and output slot all derive from
 * that index).  runShards() executes the shards on a pool of worker
 * threads that claim indices from an atomic counter, so the *set* of
 * shards — and therefore every shard's result — is identical for any
 * worker count.  Callers pre-size an output vector, let each shard
 * write its own slot, and merge the slots in shard order after the
 * join, which keeps merged statistics bit-identical across
 * `--jobs 1/2/8`.  The campaign engines get that whole pattern from
 * obs::runSharded() (obs/shard_run.hh).
 */

#ifndef AIECC_COMMON_PARALLEL_HH
#define AIECC_COMMON_PARALLEL_HH

#include <cstdint>
#include <functional>

namespace aiecc
{

/**
 * How a campaign decomposes and executes its trial budget.
 *
 * shardSize is output-affecting: it fixes which trials share an RNG
 * stream, so changing it changes (reshuffles) campaign results.  jobs
 * is never output-affecting — it only decides how many threads run
 * the fixed shard set.
 */
struct ShardPlan
{
    uint64_t shardSize = 1024; ///< trials per shard (>= 1)
    unsigned jobs = 0;         ///< worker threads; 0 = hardware auto
};

/**
 * Worker count a `--jobs 0` / "auto" request resolves to: the
 * hardware concurrency, clamped to at least 1.
 */
unsigned hardwareJobs();

/** @p jobs with 0 resolved to hardwareJobs(). */
unsigned resolveJobs(unsigned jobs);

/**
 * Execute @p fn(shard) once for every shard in [0, numShards) on
 * min(jobs, numShards) threads (jobs == 0 resolves to
 * hardwareJobs()).  With one effective worker the shards run inline
 * on the calling thread, in index order, with no thread spawned.
 *
 * @p fn must confine its writes to per-shard state (its output slot,
 * shard-local registries); it is invoked concurrently from multiple
 * threads otherwise.
 *
 * @p progress(done), when set, is invoked after each shard completes,
 * where @p done counts shards finished so far (1..numShards, monotone
 * per call site but interleaved across workers).  Observability only
 * — heartbeat ticking, progress bars — and therefore invoked
 * concurrently from worker threads; the callback must be internally
 * synchronized (HeartbeatEmitter::tick is).  Never output-affecting:
 * the shard set and execution are identical with or without it.
 */
void runShards(uint64_t numShards, unsigned jobs,
               const std::function<void(uint64_t)> &fn,
               const std::function<void(uint64_t)> &progress = {});

/**
 * Number of fixed-size shards covering @p total items.  Overflow-safe
 * for any (total, shardSize) pair: the naive
 * `(total + shardSize - 1) / shardSize` wraps when the sum exceeds
 * 2^64 (e.g. total near UINT64_MAX), silently dropping ~all shards.
 */
inline uint64_t
shardCount(uint64_t total, uint64_t shardSize)
{
    if (!shardSize)
        return total ? 1 : 0; // degenerate: one catch-all shard
    return total / shardSize + (total % shardSize != 0);
}

/**
 * Item count of shard @p index (the last shard may be short).
 * Overflow-safe: `index * shardSize` is only formed once @p index is
 * known to be in range, where it provably fits (begin <= total - 1),
 * so billion-scale exhaustive spaces can't wrap into a phantom shard.
 */
inline uint64_t
shardLength(uint64_t total, uint64_t shardSize, uint64_t index)
{
    if (!shardSize)
        return index == 0 ? total : 0;
    const uint64_t count = shardCount(total, shardSize);
    if (index >= count)
        return 0;
    if (index + 1 == count)
        return total - (count - 1) * shardSize;
    return shardSize;
}

} // namespace aiecc

#endif // AIECC_COMMON_PARALLEL_HH
