#include "obs/cost.hh"

#include <sstream>

#include "common/logging.hh"
#include "obs/lineage.hh"

namespace aiecc
{
namespace obs
{

std::string
costLevelName(CostLevel level)
{
    switch (level) {
      case CostLevel::CaParity: return "eCAP";
      case CostLevel::Wcrc: return "eWCRC";
      case CostLevel::Cstc: return "CSTC";
      case CostLevel::DataEcc: return "data-ECC";
      case CostLevel::AddrEcc: return "eDECC";
      case CostLevel::Recovery: return "recovery";
    }
    return "?";
}

std::string
costCategoryName(CostCategory category)
{
    switch (category) {
      case CostCategory::Storage: return "storage_bits";
      case CostCategory::Bus: return "bus_bits";
      case CostCategory::Latency: return "latency_ps";
    }
    return "?";
}

void
CostModel::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.kv("ca_parity", caParity);
    w.kv("extended_ca", extendedCa);
    w.kv("wcrc", wcrc);
    w.kv("extended_wcrc", extendedWcrc);
    w.kv("cstc", cstc);
    w.kv("data_ecc", dataEcc);
    w.kv("addr_ecc", addrEcc);
    w.kv("ecc_name", eccName);
    w.kv("tck_ps", tckPs);
    w.kv("ecc_storage_bits_per_block", eccStorageBitsPerBlock);
    w.kv("ecc_bus_bits_per_access", eccBusBitsPerAccess);
    w.kv("wcrc_bus_bits_per_write", wcrcBusBitsPerWrite);
    w.kv("ca_bus_bits_per_command", caBusBitsPerCommand);
    w.kv("data_bus_bits_per_access", dataBusBitsPerAccess);
    w.kv("ecc_encode_ps_per_write", eccEncodePsPerWrite);
    w.kv("ecc_decode_ps_per_read", eccDecodePsPerRead);
    w.kv("addr_fold_ps_per_access", addrFoldPsPerAccess);
    w.kv("wcrc_compute_ps_per_write", wcrcComputePsPerWrite);
    w.kv("ca_parity_ps_per_command", caParityPsPerCommand);
    w.kv("cstc_check_ps_per_command", cstcCheckPsPerCommand);
    w.endObject();
}

CostAccountant::CostAccountant(const CostModel &model) : mdl(model) {}

void
CostAccountant::chargeCell(CostLevel level, CostCategory category,
                           uint64_t amount)
{
    if (!amount)
        return;
    cells[static_cast<unsigned>(level)][static_cast<unsigned>(category)] +=
        amount;
    totals[static_cast<unsigned>(category)] += amount;
}

void
CostAccountant::onCommand(bool isWrite, bool isRead)
{
    ++nCommands;
    if (isWrite)
        ++nWrites;
    if (isRead)
        ++nReads;

    const bool rec = recoveryDepth > 0;
    if (rec)
        ++nRecoveryCommands;
    else if (isWrite || isRead)
        ++nDemandAccesses;

    // While a recovery scope is open, the entire edge is overhead: the
    // per-mechanism charges and the payload itself land on the
    // recovery level (replay traffic would not exist without the
    // fault).  Outside recovery each mechanism is billed to itself.
    const auto lvl = [rec](CostLevel level) {
        return rec ? CostLevel::Recovery : level;
    };
    if (mdl.caParity) {
        chargeCell(lvl(CostLevel::CaParity), CostCategory::Bus,
                   mdl.caBusBitsPerCommand);
        chargeCell(lvl(CostLevel::CaParity), CostCategory::Latency,
                   mdl.caParityPsPerCommand);
    }
    if (mdl.cstc) {
        chargeCell(lvl(CostLevel::Cstc), CostCategory::Latency,
                   mdl.cstcCheckPsPerCommand);
    }
    if (isWrite && mdl.wcrc) {
        chargeCell(lvl(CostLevel::Wcrc), CostCategory::Bus,
                   mdl.wcrcBusBitsPerWrite);
        chargeCell(lvl(CostLevel::Wcrc), CostCategory::Latency,
                   mdl.wcrcComputePsPerWrite);
    }
    if ((isWrite || isRead) && mdl.dataEcc) {
        chargeCell(lvl(CostLevel::DataEcc), CostCategory::Bus,
                   mdl.eccBusBitsPerAccess);
    }
    if (rec && (isWrite || isRead)) {
        chargeCell(CostLevel::Recovery, CostCategory::Bus,
                   mdl.dataBusBitsPerAccess);
    }
}

void
CostAccountant::onEccEncode()
{
    const bool rec = recoveryDepth > 0;
    if (!rec) {
        // A replayed or scrubbed write re-encodes a block that is
        // already resident; only first-line writes grow the stored
        // redundancy footprint.
        ++nStoredBlocks;
        chargeCell(CostLevel::DataEcc, CostCategory::Storage,
                   mdl.eccStorageBitsPerBlock);
    }
    chargeCell(rec ? CostLevel::Recovery : CostLevel::DataEcc,
               CostCategory::Latency, mdl.eccEncodePsPerWrite);
    if (mdl.addrEcc) {
        chargeCell(rec ? CostLevel::Recovery : CostLevel::AddrEcc,
                   CostCategory::Latency, mdl.addrFoldPsPerAccess);
    }
}

void
CostAccountant::onEccDecode()
{
    const bool rec = recoveryDepth > 0;
    chargeCell(rec ? CostLevel::Recovery : CostLevel::DataEcc,
               CostCategory::Latency, mdl.eccDecodePsPerRead);
    if (mdl.addrEcc) {
        chargeCell(rec ? CostLevel::Recovery : CostLevel::AddrEcc,
                   CostCategory::Latency, mdl.addrFoldPsPerAccess);
    }
}

void
CostAccountant::onBackoff(uint64_t cycles)
{
    nBackoffCycles += cycles;
    chargeCell(CostLevel::Recovery, CostCategory::Latency,
               cycles * mdl.tckPs);
}

void
CostAccountant::beginRecovery()
{
    ++recoveryDepth;
}

void
CostAccountant::endRecovery()
{
    AIECC_ASSERT(recoveryDepth > 0,
                 "endRecovery() without a matching beginRecovery()");
    --recoveryDepth;
}

void
CostAccountant::merge(const CostAccountant &other)
{
    AIECC_ASSERT(mdl == other.mdl,
                 "merging cost accountants with different models");
    AIECC_ASSERT(other.recoveryDepth == 0,
                 "merging an accountant with an open recovery scope");
    for (unsigned l = 0; l < numCostLevels; ++l)
        for (unsigned c = 0; c < numCostCategories; ++c)
            cells[l][c] += other.cells[l][c];
    for (unsigned c = 0; c < numCostCategories; ++c)
        totals[c] += other.totals[c];
    nCommands += other.nCommands;
    nReads += other.nReads;
    nWrites += other.nWrites;
    nRecoveryCommands += other.nRecoveryCommands;
    nBackoffCycles += other.nBackoffCycles;
    nStoredBlocks += other.nStoredBlocks;
    nDemandAccesses += other.nDemandAccesses;
}

CostAccountant::Audit
CostAccountant::audit() const
{
    Audit a;
    for (unsigned c = 0; c < numCostCategories; ++c) {
        uint64_t sum = 0;
        for (unsigned l = 0; l < numCostLevels; ++l)
            sum += cells[l][c];
        if (sum != totals[c]) {
            std::ostringstream msg;
            msg << costCategoryName(static_cast<CostCategory>(c))
                << ": total " << totals[c] << " != per-level sum "
                << sum;
            a.violations.push_back(msg.str());
        }
    }
    if (recoveryDepth != 0) {
        a.violations.push_back(
            "recovery scope still open (depth " +
            std::to_string(recoveryDepth) + ")");
    }
    a.ok = a.violations.empty();
    return a;
}

uint64_t
CostAccountant::cell(CostLevel level, CostCategory category) const
{
    return cells[static_cast<unsigned>(level)]
                [static_cast<unsigned>(category)];
}

uint64_t
CostAccountant::total(CostCategory category) const
{
    return totals[static_cast<unsigned>(category)];
}

double
CostAccountant::storageOverheadPct() const
{
    const uint64_t dataBits = nStoredBlocks * mdl.dataBusBitsPerAccess;
    if (!dataBits)
        return 0.0;
    return 100.0 * static_cast<double>(total(CostCategory::Storage)) /
           static_cast<double>(dataBits);
}

double
CostAccountant::busOverheadPct() const
{
    const uint64_t baseline = nDemandAccesses * mdl.dataBusBitsPerAccess;
    if (!baseline)
        return 0.0;
    return 100.0 * static_cast<double>(total(CostCategory::Bus)) /
           static_cast<double>(baseline);
}

double
CostAccountant::latencyNsPerAccess() const
{
    if (!nDemandAccesses)
        return 0.0;
    return static_cast<double>(total(CostCategory::Latency)) / 1000.0 /
           static_cast<double>(nDemandAccesses);
}

uint64_t
CostAccountant::digest() const
{
    return lineageHash(serialize());
}

void
CostAccountant::writeJson(JsonWriter &w) const
{
    const Audit a = audit();
    w.beginObject();
    w.key("model");
    mdl.writeJson(w);
    w.key("accesses");
    w.beginObject();
    w.kv("commands", nCommands);
    w.kv("reads", nReads);
    w.kv("writes", nWrites);
    w.kv("demand_accesses", nDemandAccesses);
    w.kv("recovery_commands", nRecoveryCommands);
    w.kv("backoff_cycles", nBackoffCycles);
    w.kv("stored_blocks", nStoredBlocks);
    w.endObject();
    w.key("levels");
    w.beginObject();
    for (unsigned l = 0; l < numCostLevels; ++l) {
        w.key(costLevelName(static_cast<CostLevel>(l)));
        w.beginObject();
        const uint64_t storage =
            cells[l][static_cast<unsigned>(CostCategory::Storage)];
        const uint64_t bus =
            cells[l][static_cast<unsigned>(CostCategory::Bus)];
        const uint64_t ps =
            cells[l][static_cast<unsigned>(CostCategory::Latency)];
        w.kv("storage_bits", storage);
        w.kv("bus_bits", bus);
        w.kv("latency_ps", ps);
        w.kv("bus_bytes", static_cast<double>(bus) / 8.0);
        w.kv("latency_ns", static_cast<double>(ps) / 1000.0);
        w.endObject();
    }
    w.endObject();
    w.key("total");
    w.beginObject();
    w.kv("storage_bits", total(CostCategory::Storage));
    w.kv("bus_bits", total(CostCategory::Bus));
    w.kv("latency_ps", total(CostCategory::Latency));
    w.kv("bus_bytes",
         static_cast<double>(total(CostCategory::Bus)) / 8.0);
    w.kv("latency_ns",
         static_cast<double>(total(CostCategory::Latency)) / 1000.0);
    w.endObject();
    w.key("derived");
    w.beginObject();
    w.kv("storage_overhead_pct", storageOverheadPct());
    w.kv("bus_overhead_pct", busOverheadPct());
    w.kv("latency_ns_per_access", latencyNsPerAccess());
    w.endObject();
    w.kv("digest", digest());
    w.key("audit");
    w.beginObject();
    w.kv("ok", a.ok);
    w.key("violations");
    w.beginArray();
    for (const std::string &v : a.violations)
        w.value(v);
    w.endArray();
    w.endObject();
    w.endObject();
}

} // namespace obs
} // namespace aiecc
