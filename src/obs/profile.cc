#include "obs/profile.hh"

#include <sstream>

#include "common/logging.hh"

namespace aiecc
{
namespace obs
{

Histogram &
ProfileRegistry::timer(const std::string &name,
                       const std::string &description)
{
    const auto it = timers.find(name);
    if (it != timers.end())
        return *it->second;
    auto stat = std::make_unique<Histogram>(name, description);
    auto scope = std::make_unique<memprof::AllocStats>();
    stat->setAllocScope(scope.get());
    Histogram &ref = *stat;
    timers.emplace(name, std::move(stat));
    allocs.emplace(name, std::move(scope));
    return ref;
}

const Histogram *
ProfileRegistry::find(const std::string &name) const
{
    const auto it = timers.find(name);
    return it == timers.end() ? nullptr : it->second.get();
}

const memprof::AllocStats *
ProfileRegistry::findAlloc(const std::string &name) const
{
    const auto it = allocs.find(name);
    return it == allocs.end() ? nullptr : it->second.get();
}

void
ProfileRegistry::reset()
{
    for (auto &[name, timer] : timers)
        timer->reset();
    for (auto &[name, scope] : allocs)
        scope->reset();
}

void
ProfileRegistry::merge(const ProfileRegistry &other)
{
    for (const auto &[name, t] : other.timers) {
        timer(name, t->description()).merge(*t);
        const auto scope = other.allocs.find(name);
        if (scope != other.allocs.end())
            allocs.at(name)->merge(*scope->second);
    }
}

void
ProfileRegistry::writeJson(JsonWriter &w) const
{
    w.beginObject();
    for (const auto &[name, t] : timers) {
        w.key(name)
            .beginObject()
            .kv("count", t->count())
            .kv("total_ns", t->sum())
            .kv("mean_ns", t->mean())
            .kv("min_ns", t->min())
            .kv("max_ns", t->max())
            .kv("p50_ns", t->quantile(0.50))
            .kv("p90_ns", t->quantile(0.90))
            .kv("p99_ns", t->quantile(0.99))
            .endObject();
    }
    w.endObject();
}

void
ProfileRegistry::writeAllocJson(JsonWriter &w) const
{
    w.beginObject();
    for (const auto &[name, scope] : allocs) {
        const Histogram *t = find(name);
        const uint64_t calls = t ? t->count() : 0;
        w.key(name)
            .beginObject()
            .kv("calls", calls)
            .kv("allocs", scope->allocs)
            .kv("frees", scope->frees)
            .kv("alloc_bytes", scope->allocBytes)
            .kv("free_bytes", scope->freeBytes)
            .kv("peak_live_bytes", scope->peakLiveBytes)
            .kv("allocs_per_call",
                calls ? static_cast<double>(scope->allocs) /
                            static_cast<double>(calls)
                      : 0.0)
            .endObject();
    }
    w.endObject();
}

uint64_t
ProfileRegistry::totalScopedAllocs() const
{
    uint64_t total = 0;
    for (const auto &[name, scope] : allocs)
        total += scope->allocs;
    return total;
}

std::string
ProfileRegistry::str() const
{
    std::ostringstream out;
    for (const auto &[name, t] : timers) {
        out << name << " count=" << t->count()
            << " total_ns=" << t->sum() << " mean_ns=" << t->mean()
            << " p50_ns=" << t->quantile(0.50)
            << " p90_ns=" << t->quantile(0.90)
            << " p99_ns=" << t->quantile(0.99) << "\n";
    }
    return out.str();
}

} // namespace obs
} // namespace aiecc
