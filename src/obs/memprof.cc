#include "obs/memprof.hh"

#include <atomic>
#include <cstdlib>
#include <new>

#if defined(__GLIBC__) || defined(__linux__)
#include <malloc.h>
#define AIECC_HAVE_MALLOC_USABLE_SIZE 1
#endif

namespace aiecc
{
namespace obs
{
namespace memprof
{

namespace
{

// The calling thread's allocation count.  POD with static zero
// initialization only: a thread's very first allocation may happen
// before any dynamic TLS constructor would have run, and the
// interposed operators must never trigger one.
thread_local uint64_t tAllocs = 0;

// Process-wide totals.  Relaxed ordering throughout: these are
// advisory observability counters, never synchronization.
std::atomic<uint64_t> gAllocs{0};
std::atomic<uint64_t> gFrees{0};
std::atomic<uint64_t> gAllocBytes{0};
std::atomic<uint64_t> gFreeBytes{0};
std::atomic<int64_t> gLiveBytes{0};
std::atomic<int64_t> gPeakLiveBytes{0};

uint64_t
usableBytes(void *p, std::size_t requested) noexcept
{
#if AIECC_HAVE_MALLOC_USABLE_SIZE
    // Symmetric at allocation and free — the only way byte totals
    // balance exactly without a size header (which ASan would
    // poison).
    (void)requested;
    return static_cast<uint64_t>(malloc_usable_size(p));
#else
    (void)p;
    return static_cast<uint64_t>(requested);
#endif
}

void
accountAlloc(uint64_t bytes) noexcept
{
    ++tAllocs;
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    gAllocBytes.fetch_add(bytes, std::memory_order_relaxed);
    const int64_t live = gLiveBytes.fetch_add(
                             static_cast<int64_t>(bytes),
                             std::memory_order_relaxed) +
                         static_cast<int64_t>(bytes);
    int64_t peak = gPeakLiveBytes.load(std::memory_order_relaxed);
    while (live > peak &&
           !gPeakLiveBytes.compare_exchange_weak(
               peak, live, std::memory_order_relaxed))
        ;
}

void
accountFree(uint64_t bytes) noexcept
{
    gFrees.fetch_add(1, std::memory_order_relaxed);
    gFreeBytes.fetch_add(bytes, std::memory_order_relaxed);
    gLiveBytes.fetch_sub(static_cast<int64_t>(bytes),
                         std::memory_order_relaxed);
}

void *
allocate(std::size_t size, bool throwOnFailure)
{
    for (;;) {
        void *p = std::malloc(size ? size : 1);
        if (p) {
            accountAlloc(usableBytes(p, size));
            return p;
        }
        const std::new_handler handler = std::get_new_handler();
        if (!handler) {
            if (throwOnFailure)
                throw std::bad_alloc();
            return nullptr;
        }
        handler();
    }
}

void *
allocateAligned(std::size_t size, std::size_t alignment,
                bool throwOnFailure)
{
    for (;;) {
        void *p = nullptr;
        // posix_memalign (unlike aligned_alloc) accepts any size and
        // yields a pointer free() and malloc_usable_size understand.
        if (posix_memalign(&p, alignment < sizeof(void *)
                                   ? sizeof(void *)
                                   : alignment,
                           size ? size : 1) == 0) {
            accountAlloc(usableBytes(p, size));
            return p;
        }
        const std::new_handler handler = std::get_new_handler();
        if (!handler) {
            if (throwOnFailure)
                throw std::bad_alloc();
            return nullptr;
        }
        handler();
    }
}

void
deallocate(void *p) noexcept
{
    if (!p)
        return;
    accountFree(usableBytes(p, 0));
    std::free(p);
}

} // namespace

uint64_t
threadAllocs() noexcept
{
    return tAllocs;
}

ProcessTotals
processTotals() noexcept
{
    ProcessTotals t;
    t.allocs = gAllocs.load(std::memory_order_relaxed);
    t.frees = gFrees.load(std::memory_order_relaxed);
    t.allocBytes = gAllocBytes.load(std::memory_order_relaxed);
    t.freeBytes = gFreeBytes.load(std::memory_order_relaxed);
    t.liveBytes = gLiveBytes.load(std::memory_order_relaxed);
    t.peakLiveBytes = gPeakLiveBytes.load(std::memory_order_relaxed);
    return t;
}

void
resetProcessTotals() noexcept
{
    gAllocs.store(0, std::memory_order_relaxed);
    gFrees.store(0, std::memory_order_relaxed);
    gAllocBytes.store(0, std::memory_order_relaxed);
    gFreeBytes.store(0, std::memory_order_relaxed);
    gLiveBytes.store(0, std::memory_order_relaxed);
    gPeakLiveBytes.store(0, std::memory_order_relaxed);
}

} // namespace memprof
} // namespace obs
} // namespace aiecc

// ---- global operator new/delete interposition ----------------------
//
// Strong definitions that replace the standard library's allocation
// functions for the whole process (linked in whenever anything in
// this translation unit is referenced — every bench's artifact and
// heartbeat read the process totals).
// Every variant funnels into the two accounting helpers above so the
// byte totals stay symmetric no matter which form the compiler picks.

using aiecc::obs::memprof::allocate;
using aiecc::obs::memprof::allocateAligned;
using aiecc::obs::memprof::deallocate;

void *
operator new(std::size_t size)
{
    return allocate(size, true);
}

void *
operator new[](std::size_t size)
{
    return allocate(size, true);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return allocate(size, false);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return allocate(size, false);
}

void *
operator new(std::size_t size, std::align_val_t alignment)
{
    return allocateAligned(size, static_cast<std::size_t>(alignment),
                           true);
}

void *
operator new[](std::size_t size, std::align_val_t alignment)
{
    return allocateAligned(size, static_cast<std::size_t>(alignment),
                           true);
}

void *
operator new(std::size_t size, std::align_val_t alignment,
             const std::nothrow_t &) noexcept
{
    return allocateAligned(size, static_cast<std::size_t>(alignment),
                           false);
}

void *
operator new[](std::size_t size, std::align_val_t alignment,
               const std::nothrow_t &) noexcept
{
    return allocateAligned(size, static_cast<std::size_t>(alignment),
                           false);
}

void
operator delete(void *p) noexcept
{
    deallocate(p);
}

void
operator delete[](void *p) noexcept
{
    deallocate(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    deallocate(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    deallocate(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    deallocate(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    deallocate(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    deallocate(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    deallocate(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    deallocate(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    deallocate(p);
}

void
operator delete(void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    deallocate(p);
}

void
operator delete[](void *p, std::align_val_t,
                  const std::nothrow_t &) noexcept
{
    deallocate(p);
}
