#include "common/parallel.hh"

#include <atomic>
#include <thread>
#include <vector>

#include "common/logging.hh"

namespace aiecc
{

unsigned
hardwareJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

unsigned
resolveJobs(unsigned jobs)
{
    return jobs ? jobs : hardwareJobs();
}

void
runShards(uint64_t numShards, unsigned jobs,
          const std::function<void(uint64_t)> &fn,
          const std::function<void(uint64_t)> &progress)
{
    if (!numShards)
        return;
    AIECC_ASSERT(fn, "runShards needs a shard function");
    uint64_t workers = resolveJobs(jobs);
    if (workers > numShards)
        workers = numShards;

    if (workers <= 1) {
        for (uint64_t shard = 0; shard < numShards; ++shard) {
            fn(shard);
            if (progress)
                progress(shard + 1);
        }
        return;
    }

    // Work stealing off a shared counter: which thread runs which
    // shard is scheduling-dependent, but each shard's computation
    // depends only on its index, so results never are.
    std::atomic<uint64_t> next{0};
    std::atomic<uint64_t> done{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
        pool.emplace_back([&]() {
            for (uint64_t shard = next.fetch_add(1);
                 shard < numShards; shard = next.fetch_add(1)) {
                fn(shard);
                if (progress)
                    progress(done.fetch_add(1) + 1);
            }
        });
    }
    for (std::thread &t : pool)
        t.join();
}

} // namespace aiecc
