/**
 * @file
 * Tests for the heap-allocation accounting (obs/memprof.hh): the
 * process-wide totals and the per-thread allocation count the
 * zero-allocation access-path gate reads.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "obs/memprof.hh"

namespace aiecc
{
namespace
{

/**
 * One heap round trip that the optimizer cannot elide: direct
 * operator new/delete calls are observable behaviour, unlike a
 * new-expression pair, which C++14 allows to be removed.
 */
void
heapRoundTrip(size_t bytes)
{
    void *p = ::operator new(bytes);
    ::operator delete(p);
}

// ---- process-wide totals ----

TEST(MemprofProcessTotals, CountEveryHeapEventScopedOrNot)
{
    const obs::memprof::ProcessTotals before =
        obs::memprof::processTotals();
    heapRoundTrip(2048);
    const obs::memprof::ProcessTotals after =
        obs::memprof::processTotals();
    EXPECT_GE(after.allocs, before.allocs + 1);
    EXPECT_GE(after.frees, before.frees + 1);
    EXPECT_GE(after.allocBytes, before.allocBytes + 2048);
    EXPECT_GE(after.peakLiveBytes, before.peakLiveBytes);
}

// ---- per-thread count ----

TEST(MemprofThreadAllocs, CountsOnlyTheCallingThread)
{
    // The worker allocates while this thread holds still between two
    // reads; the handshake is lock-free so neither side allocates
    // outside the round trips.
    std::atomic<int> stage{0};
    uint64_t workerDelta = 0;
    std::thread worker([&] {
        while (stage.load() != 1)
            std::this_thread::yield();
        const uint64_t begin = obs::memprof::threadAllocs();
        for (int i = 0; i < 5; ++i)
            heapRoundTrip(256);
        workerDelta = obs::memprof::threadAllocs() - begin;
        stage.store(2);
    });
    const uint64_t before = obs::memprof::threadAllocs();
    stage.store(1);
    while (stage.load() != 2)
        std::this_thread::yield();
    const uint64_t after = obs::memprof::threadAllocs();
    worker.join();

    EXPECT_EQ(workerDelta, 5u);
    EXPECT_EQ(after - before, 0u);

    // This thread's own allocations land on its own count.
    const uint64_t mine = obs::memprof::threadAllocs();
    heapRoundTrip(64);
    EXPECT_EQ(obs::memprof::threadAllocs() - mine, 1u);
}

} // namespace
} // namespace aiecc
