#include "obs/timeseries.hh"

#include "common/logging.hh"

namespace aiecc
{
namespace obs
{

SlidingWindow::SlidingWindow(uint64_t bucketCycles)
    : bucketWidth(bucketCycles)
{
    AIECC_ASSERT(bucketWidth > 0, "sliding window: zero bucket width");
}

void
SlidingWindow::advanceHead(uint64_t idx)
{
    if (!any) {
        any = true;
        head = idx;
        first = idx;
        return;
    }
    if (idx <= head)
        return;
    const uint64_t steps = idx - head;
    if (steps >= numBuckets) {
        for (unsigned s = 0; s < numBuckets; ++s)
            buckets[s] = 0;
    } else {
        for (uint64_t i = head + 1; i <= idx; ++i)
            buckets[i % numBuckets] = 0;
    }
    head = idx;
}

void
SlidingWindow::record(uint64_t cycle, uint64_t n)
{
    life += n;
    const uint64_t idx = cycle / bucketWidth;
    advanceHead(idx);
    // An event older than the window has no live bucket left; it
    // stays in the lifetime total only.
    if (idx < head && head - idx >= numBuckets)
        return;
    buckets[idx % numBuckets] += n;
}

void
SlidingWindow::advanceTo(uint64_t cycle)
{
    advanceHead(cycle / bucketWidth);
}

uint64_t
SlidingWindow::windowTotal() const
{
    uint64_t total = 0;
    for (unsigned s = 0; s < numBuckets; ++s)
        total += buckets[s];
    return total;
}

uint64_t
SlidingWindow::coveredCycles() const
{
    if (!any)
        return 0;
    const uint64_t elapsed = head - first + 1;
    return (elapsed < numBuckets ? elapsed : numBuckets) * bucketWidth;
}

double
SlidingWindow::ratePerKilocycle() const
{
    const uint64_t covered = coveredCycles();
    if (!covered)
        return 0.0;
    return static_cast<double>(windowTotal()) * 1000.0 /
           static_cast<double>(covered);
}

void
SlidingWindow::merge(const SlidingWindow &other)
{
    AIECC_ASSERT(bucketWidth == other.bucketWidth,
                 "sliding window merge: bucket width mismatch");
    if (!other.any)
        return;
    life += other.life;
    advanceHead(other.head);
    if (other.first < first)
        first = other.first;
    for (unsigned k = 0; k < numBuckets; ++k) {
        if (k > other.head)
            break;
        const uint64_t idx = other.head - k;
        if (idx < head && head - idx >= numBuckets)
            continue;
        buckets[idx % numBuckets] += other.buckets[idx % numBuckets];
    }
}

void
SlidingWindow::reset()
{
    any = false;
    head = 0;
    first = 0;
    life = 0;
    for (unsigned s = 0; s < numBuckets; ++s)
        buckets[s] = 0;
}

void
SlidingWindow::writeJsonMembers(JsonWriter &w,
                                const std::string &prefix) const
{
    w.kv(prefix + "_window", windowTotal())
        .kv(prefix + "_total", lifetimeTotal())
        .kv(prefix + "_rate_per_kcycle", ratePerKilocycle());
}

} // namespace obs
} // namespace aiecc
