#include "obs/lineage.hh"

#include <sstream>

#include "common/logging.hh"

namespace aiecc
{
namespace obs
{

namespace
{

/** splitmix64 finalizer — the repo-wide stream-derivation mixer. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::Ccca: return "ccca";
      case FaultKind::Data: return "data";
      case FaultKind::Addr: return "addr";
      case FaultKind::DataAddr: return "data+addr";
    }
    AIECC_PANIC("unknown FaultKind " << static_cast<int>(kind));
}

const char *
faultTerminalName(FaultTerminal terminal)
{
    switch (terminal) {
      case FaultTerminal::Unaccounted: return "unaccounted";
      case FaultTerminal::Masked: return "masked";
      case FaultTerminal::Detected: return "detected";
      case FaultTerminal::Corrected: return "corrected";
      case FaultTerminal::Recovered: return "recovered";
      case FaultTerminal::Escaped: return "escaped";
    }
    AIECC_PANIC("unknown FaultTerminal " << static_cast<int>(terminal));
}

uint64_t
lineageHash(const std::string &text)
{
    uint64_t h = 0xcbf29ce484222325ULL; // FNV-1a offset basis
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL; // FNV prime
    }
    return h;
}

uint64_t
deriveFaultId(uint64_t salt, uint64_t stream, uint64_t trial)
{
    // Distinct multipliers keep (stream, trial) and (trial, stream)
    // from colliding before the finalizer; | 1 reserves 0 for "no
    // fault context" without measurably shrinking the ID space.
    return mix64(salt ^ (mix64(stream) * 0x9e3779b97f4a7c15ULL) ^
                 (mix64(trial) * 0xc2b2ae3d27d4eb4fULL)) |
           1;
}

uint32_t
LineageLedger::intern(std::vector<std::string> &table, NameIndex &index,
                      std::string_view name)
{
    const auto it = index.find(name);
    if (it != index.end())
        return it->second;
    const auto id = static_cast<uint32_t>(table.size());
    table.emplace_back(name);
    index.emplace(name, id);
    return id;
}

std::vector<std::pair<uint64_t, size_t>>::iterator
LineageLedger::findOpen(uint64_t faultId)
{
    // Newest first: the fault being resolved is almost always the one
    // just injected.
    for (auto it = open.end(); it != open.begin();) {
        --it;
        if (it->first == faultId)
            return it;
    }
    return open.end();
}

void
LineageLedger::recordInjection(uint64_t faultId, FaultKind kind,
                               std::string_view site)
{
    AIECC_ASSERT(faultId != 0, "fault ID 0 is reserved for no-context");
    if (findOpen(faultId) != open.end())
        AIECC_PANIC("lineage: duplicate injection of fault "
                    << faultId << " at site '" << site << "'");
    LineageRecord rec;
    rec.faultId = faultId;
    rec.kind = kind;
    rec.site = intern(sites, siteIndex, site);
    open.emplace_back(faultId, recs.size());
    recs.push_back(rec);
    ++unresolved;
}

void
LineageLedger::resolve(uint64_t faultId, FaultTerminal terminal,
                       std::string_view mechanism, uint32_t observations,
                       uint32_t attempts)
{
    AIECC_ASSERT(terminal != FaultTerminal::Unaccounted,
                 "Unaccounted is not a terminal state; fault " << faultId);
    const auto it = findOpen(faultId);
    if (it == open.end())
        AIECC_PANIC("lineage: resolve of fault " << faultId
                    << " which was never injected (or already resolved)");
    LineageRecord &rec = recs[it->second];
    rec.terminal = terminal;
    rec.mech = intern(mechs, mechIndex, mechanism);
    rec.observations = observations;
    rec.attempts = attempts;
    open.erase(it);
    --unresolved;
}

const std::string &
LineageLedger::siteName(uint32_t index) const
{
    AIECC_ASSERT(index < sites.size(), "site index " << index);
    return sites[index];
}

const std::string &
LineageLedger::mechanismLabel(uint32_t index) const
{
    AIECC_ASSERT(index < mechs.size(), "mechanism index " << index);
    return mechs[index];
}

uint64_t
LineageLedger::unaccounted() const
{
    return unresolved;
}

void
LineageLedger::merge(const LineageLedger &other)
{
    for (const LineageRecord &src : other.recs) {
        if (findOpen(src.faultId) != open.end())
            AIECC_PANIC("lineage: merge would duplicate open fault "
                        << src.faultId);
        LineageRecord rec = src;
        rec.site = intern(sites, siteIndex, other.sites[src.site]);
        rec.mech = intern(mechs, mechIndex, other.mechs[src.mech]);
        if (rec.terminal == FaultTerminal::Unaccounted) {
            open.emplace_back(rec.faultId, recs.size());
            ++unresolved;
        }
        recs.push_back(rec);
    }
}

std::string
LineageLedger::serialize() const
{
    std::ostringstream out;
    for (const LineageRecord &rec : recs) {
        out << rec.faultId << ' ' << faultKindName(rec.kind) << ' '
            << faultTerminalName(rec.terminal) << ' ' << sites[rec.site]
            << ' ' << (rec.mech ? mechs[rec.mech] : "-") << ' '
            << rec.observations << ' ' << rec.attempts << '\n';
    }
    return out.str();
}

uint64_t
LineageLedger::digest() const
{
    return lineageHash(serialize());
}

void
LineageLedger::reindex()
{
    siteIndex.clear();
    mechIndex.clear();
    open.clear();
    unresolved = 0;
    for (uint32_t i = 0; i < sites.size(); ++i)
        siteIndex.emplace(sites[i], i);
    for (uint32_t i = 0; i < mechs.size(); ++i)
        mechIndex.emplace(mechs[i], i);
    for (size_t i = 0; i < recs.size(); ++i) {
        if (recs[i].terminal == FaultTerminal::Unaccounted) {
            open.emplace_back(recs[i].faultId, i);
            ++unresolved;
        }
    }
}

void
LineageLedger::writeJson(JsonWriter &w, size_t maxRecords) const
{
    w.beginObject();
    w.kv("records", static_cast<uint64_t>(recs.size()));
    w.kv("unaccounted", unresolved);
    std::ostringstream hex;
    hex << std::hex << digest();
    w.kv("digest", hex.str());
    const size_t shown = recs.size() < maxRecords ? recs.size() : maxRecords;
    w.kv("records_shown", static_cast<uint64_t>(shown));
    w.key("lineage").beginArray();
    for (size_t i = 0; i < shown; ++i) {
        const LineageRecord &rec = recs[i];
        w.beginObject();
        std::ostringstream id;
        id << std::hex << rec.faultId;
        w.kv("fault", id.str());
        w.kv("kind", faultKindName(rec.kind));
        w.kv("terminal", faultTerminalName(rec.terminal));
        w.kv("site", sites[rec.site]);
        if (rec.mech)
            w.kv("mech", mechs[rec.mech]);
        if (rec.observations)
            w.kv("observations", rec.observations);
        if (rec.attempts)
            w.kv("attempts", rec.attempts);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

} // namespace obs
} // namespace aiecc
