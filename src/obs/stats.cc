#include "obs/stats.hh"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <vector>

#include "common/logging.hh"

namespace aiecc
{
namespace obs
{

void
Histogram::sample(uint64_t v)
{
    if (!cnt || v < mn)
        mn = v;
    if (!cnt || v > mx)
        mx = v;
    ++cnt;
    total += static_cast<double>(v);
    unsigned b = 0;
    while (v) {
        ++b;
        v >>= 1;
    }
    ++buckets[b];
}

double
Histogram::quantile(double q) const
{
    if (!cnt)
        return 0.0;
    q = std::min(std::max(q, 0.0), 1.0);
    // The extreme quantiles are tracked exactly; in-bucket
    // interpolation would under-shoot q=1 (and over-shoot q=0)
    // whenever several samples share the extreme bucket.
    if (q == 0.0)
        return static_cast<double>(mn);
    if (q == 1.0)
        return static_cast<double>(mx);
    // Continuous rank in [0, cnt-1]; the sample holding it is found
    // by walking the cumulative bucket counts.
    const double rank = q * static_cast<double>(cnt - 1);
    uint64_t seen = 0;
    for (unsigned b = 0; b < numBuckets; ++b) {
        if (!buckets[b])
            continue;
        const double inBucket = static_cast<double>(buckets[b]);
        if (rank < static_cast<double>(seen) + inBucket) {
            // Interpolate linearly across the bucket's value range:
            // bucket 0 holds exactly 0, bucket b>=1 holds [2^(b-1), 2^b).
            double lo = 0.0, hi = 0.0;
            if (b >= 1) {
                lo = static_cast<double>(uint64_t{1} << (b - 1));
                hi = b < 64 ? static_cast<double>(uint64_t{1} << b)
                            : 2.0 * lo;
            }
            const double frac =
                (rank - static_cast<double>(seen)) / inBucket;
            const double v = lo + frac * (hi - lo);
            return std::min(std::max(v, static_cast<double>(mn)),
                            static_cast<double>(mx));
        }
        seen += buckets[b];
    }
    return static_cast<double>(mx);
}

void
Histogram::merge(const Histogram &other)
{
    if (!other.cnt)
        return;
    if (!cnt || other.mn < mn)
        mn = other.mn;
    if (!cnt || other.mx > mx)
        mx = other.mx;
    cnt += other.cnt;
    total += other.total;
    for (unsigned b = 0; b < numBuckets; ++b)
        buckets[b] += other.buckets[b];
}

void
Histogram::reset()
{
    cnt = 0;
    total = 0.0;
    mn = mx = 0;
    std::fill(std::begin(buckets), std::end(buckets), 0);
}

namespace
{

bool
validComponentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '+' || c == '-';
}

std::vector<std::string>
splitName(const std::string &name)
{
    std::vector<std::string> parts;
    std::string cur;
    for (const char c : name) {
        if (c == '.') {
            parts.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    parts.push_back(cur);
    return parts;
}

} // namespace

void
StatsRegistry::checkDescription(std::string &existing,
                                const std::string &description,
                                const std::string &name)
{
    if (description.empty() || description == existing)
        return;
    // Re-resolving with no description is fine (hot-path lookups);
    // adopting a first description into a bare registration is fine
    // (shard merges into pre-resolved registries).  Two *different*
    // claims about what the stat means is a producer bug — silently
    // keeping either one would let merged shards disagree about the
    // semantics of a shared counter.
    if (existing.empty()) {
        existing = description;
        return;
    }
    AIECC_PANIC("stat '" << name << "' re-registered with a different "
                << "description: '" << existing << "' vs '"
                << description << "'");
}

std::string
StatsRegistry::nameProblem(const std::string &name, const char *kind) const
{
    if (name.empty())
        return "empty stat name";
    for (const auto &part : splitName(name)) {
        if (part.empty())
            return "empty component in stat name '" + name + "'";
        for (const char c : part) {
            if (!validComponentChar(c)) {
                return std::string("invalid character '") + c +
                       "' in stat name '" + name + "'";
            }
        }
    }
    if (leaves.count(name)) {
        return "stat '" + name + "' re-registered as a different kind (" +
               kind + ")";
    }
    if (groups.count(name))
        return "stat '" + name + "' already names a group of other stats";
    for (size_t dot = name.find('.'); dot != std::string::npos;
         dot = name.find('.', dot + 1)) {
        const std::string prefix = name.substr(0, dot);
        if (leaves.count(prefix)) {
            return "stat group '" + prefix + "' of '" + name +
                   "' already names a leaf stat";
        }
    }
    return "";
}

void
StatsRegistry::registerName(const std::string &name, const char *kind)
{
    const std::string problem = nameProblem(name, kind);
    AIECC_ASSERT(problem.empty(), problem);
    for (size_t dot = name.find('.'); dot != std::string::npos;
         dot = name.find('.', dot + 1))
        groups.insert(name.substr(0, dot));
    leaves.insert(name);
}

Counter &
StatsRegistry::counter(const std::string &name,
                       const std::string &description)
{
    const auto it = counters.find(name);
    if (it != counters.end()) {
        checkDescription(it->second->desc, description, name);
        return *it->second;
    }
    registerName(name, "counter");
    auto stat = std::unique_ptr<Counter>(new Counter(name, description));
    Counter &ref = *stat;
    counters.emplace(name, std::move(stat));
    return ref;
}

Scalar &
StatsRegistry::scalar(const std::string &name,
                      const std::string &description)
{
    const auto it = scalars.find(name);
    if (it != scalars.end()) {
        checkDescription(it->second->desc, description, name);
        return *it->second;
    }
    registerName(name, "scalar");
    auto stat = std::unique_ptr<Scalar>(new Scalar(name, description));
    Scalar &ref = *stat;
    scalars.emplace(name, std::move(stat));
    return ref;
}

Histogram &
StatsRegistry::histogram(const std::string &name,
                         const std::string &description)
{
    const auto it = histograms.find(name);
    if (it != histograms.end()) {
        checkDescription(it->second->desc, description, name);
        return *it->second;
    }
    registerName(name, "histogram");
    auto stat =
        std::unique_ptr<Histogram>(new Histogram(name, description));
    Histogram &ref = *stat;
    histograms.emplace(name, std::move(stat));
    return ref;
}

const Counter *
StatsRegistry::findCounter(const std::string &name) const
{
    const auto it = counters.find(name);
    return it == counters.end() ? nullptr : it->second.get();
}

uint64_t
StatsRegistry::counterValue(const std::string &name) const
{
    const Counter *c = findCounter(name);
    return c ? c->value() : 0;
}

void
StatsRegistry::reset()
{
    for (auto &[name, stat] : counters)
        stat->reset();
    for (auto &[name, stat] : scalars)
        stat->reset();
    for (auto &[name, stat] : histograms)
        stat->reset();
}

void
StatsRegistry::merge(const StatsRegistry &other)
{
    // The find-or-create accessors enforce the naming invariants, so
    // a kind clash between the registries panics inside registerName
    // with the usual "re-registered as a different kind" message.
    for (const auto &[name, stat] : other.counters)
        counter(name, stat->description()) += stat->value();
    for (const auto &[name, stat] : other.scalars)
        scalar(name, stat->description()) = stat->value();
    for (const auto &[name, stat] : other.histograms)
        histogram(name, stat->description()).merge(*stat);
}

namespace
{

/** One entry of the merged, name-sorted stat list. */
struct Entry
{
    const std::string *name;
    const Counter *counter = nullptr;
    const Scalar *scalar = nullptr;
    const Histogram *histogram = nullptr;
};

void
emitValue(JsonWriter &w, const Entry &e)
{
    if (e.counter) {
        w.value(e.counter->value());
    } else if (e.scalar) {
        w.value(e.scalar->value());
    } else {
        const Histogram &h = *e.histogram;
        w.beginObject()
            .kv("count", h.count())
            .kv("sum", h.sum())
            .kv("min", h.min())
            .kv("max", h.max())
            .kv("mean", h.mean())
            .kv("p50", h.quantile(0.50))
            .kv("p90", h.quantile(0.90))
            .kv("p99", h.quantile(0.99))
            .endObject();
    }
}

} // namespace

void
StatsRegistry::writeJson(JsonWriter &w) const
{
    std::vector<Entry> all;
    all.reserve(size());
    for (const auto &[name, stat] : counters)
        all.push_back({&name, stat.get(), nullptr, nullptr});
    for (const auto &[name, stat] : scalars)
        all.push_back({&name, nullptr, stat.get(), nullptr});
    for (const auto &[name, stat] : histograms)
        all.push_back({&name, nullptr, nullptr, stat.get()});
    std::sort(all.begin(), all.end(), [](const Entry &a, const Entry &b) {
        return *a.name < *b.name;
    });

    // Walk the sorted names, opening/closing nested objects as the
    // dotted paths diverge (leaf/group conflicts were rejected at
    // registration, so this is always well-formed).
    w.beginObject();
    std::vector<std::string> path;
    for (const Entry &e : all) {
        auto parts = splitName(*e.name);
        const std::string leaf = parts.back();
        parts.pop_back();
        size_t common = 0;
        while (common < path.size() && common < parts.size() &&
               path[common] == parts[common]) {
            ++common;
        }
        while (path.size() > common) {
            w.endObject();
            path.pop_back();
        }
        for (size_t i = common; i < parts.size(); ++i) {
            w.key(parts[i]).beginObject();
            path.push_back(parts[i]);
        }
        w.key(leaf);
        emitValue(w, e);
    }
    while (!path.empty()) {
        w.endObject();
        path.pop_back();
    }
    w.endObject();
}

std::string
StatsRegistry::str() const
{
    // Flat, gem5-stats.txt-style: "name  value  # description".
    std::map<std::string, std::string> lines;
    for (const auto &[name, stat] : counters)
        lines[name] = std::to_string(stat->value());
    for (const auto &[name, stat] : scalars) {
        std::ostringstream v;
        v << stat->value();
        lines[name] = v.str();
    }
    for (const auto &[name, stat] : histograms) {
        std::ostringstream v;
        v << "count=" << stat->count() << " mean=" << stat->mean()
          << " min=" << stat->min() << " max=" << stat->max();
        lines[name] = v.str();
    }
    std::ostringstream out;
    for (const auto &[name, value] : lines) {
        out << name << " " << value;
        if (const auto it = counters.find(name);
            it != counters.end() && !it->second->description().empty()) {
            out << " # " << it->second->description();
        }
        out << "\n";
    }
    return out.str();
}

} // namespace obs
} // namespace aiecc
