/**
 * @file
 * Heap-allocation accounting (DESIGN.md §13).
 *
 * A global operator new/delete interposition counts every heap event
 * into process-wide totals and bumps a per-thread allocation count.
 * The totals feed the artifacts' "alloc" section and the repo
 * benchmark's peak-heap metric; the per-thread count is what the
 * zero-allocation access-path gate reads: take threadAllocs() before
 * and after a call on one thread, and the delta is what that call
 * allocated, whatever the other threads were doing.
 *
 * Design constraints the implementation lives under:
 *  - the interposed operators may never allocate (no recursion),
 *    which is why the per-thread count is a zero-initialised POD;
 *  - accounting must be exact under ASan/TSan, so byte counts come
 *    from malloc_usable_size() symmetry (counted identically at
 *    allocation and at free) rather than from size headers;
 *  - process-wide totals are relaxed atomics, safe from any thread;
 *  - everything here is observability: it is excluded from checkpoint
 *    digests and never output-affecting, so `--jobs` bit-identity and
 *    crash-resume guarantees are untouched.
 */

#ifndef AIECC_OBS_MEMPROF_HH
#define AIECC_OBS_MEMPROF_HH

#include <cstdint>

namespace aiecc
{
namespace obs
{
namespace memprof
{

/** Process-wide totals since start (or the last resetProcessTotals). */
struct ProcessTotals
{
    uint64_t allocs = 0;
    uint64_t frees = 0;
    uint64_t allocBytes = 0;
    uint64_t freeBytes = 0;
    int64_t liveBytes = 0;
    int64_t peakLiveBytes = 0;
};

/**
 * Heap allocations made by the calling thread since it started
 * (never reset).  Take the difference of two reads on one thread.
 */
uint64_t threadAllocs() noexcept;

/** Snapshot the process-wide totals (relaxed reads; advisory). */
ProcessTotals processTotals() noexcept;

/** Zero the process-wide totals (test and pass isolation). */
void resetProcessTotals() noexcept;

} // namespace memprof
} // namespace obs
} // namespace aiecc

#endif // AIECC_OBS_MEMPROF_HH
