/**
 * @file
 * Protection cost accounting: what every mechanism *costs*, attributed
 * per access, per protection level, per resource category.
 *
 * The coverage/lineage layers (obs/lineage.hh, obs/coverage.hh) answer
 * what each scheme catches; this module answers what it pays for that
 * — the other axis of the reliability×cost Pareto the paper argues
 * from.  A CostModel carries the per-level parameters (redundancy
 * storage bits, extra bus bits, modeled compute latency in
 * picoseconds) derived once from the scheme configuration; a
 * CostAccountant attributes those parameters to every access as it
 * flows through the protection stack, the controller and the recovery
 * engine, keeping one integer tally per (level, category) cell.
 *
 * Accounting rules:
 *  - All tallies are integers (bits, picoseconds), so shard-order
 *    merge() is bit-identical for any worker count — the same
 *    determinism contract the lineage ledger keeps (DESIGN.md §9).
 *  - Replay, reissue, scrub and patrol traffic runs while a recovery
 *    scope is open and is billed — in full, payload included — to the
 *    "recovery" level: that traffic would not exist without the
 *    fault, so every bit of it is protection overhead.
 *  - audit() enforces the conservation invariant mirroring
 *    CoverageMatrix: for every category, total == Σ per-level, and
 *    every beginRecovery() was balanced by endRecovery().
 */

#ifndef AIECC_OBS_COST_HH
#define AIECC_OBS_COST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "obs/state.hh"

namespace aiecc
{
namespace obs
{

/**
 * Attribution targets: the protection levels of the mechanism stack
 * plus the recovery engine.  Labels use the extended-mechanism names
 * ("eCAP"); the model records whether the plain DDR4 flavor is meant.
 */
enum class CostLevel
{
    CaParity, ///< CAP/eCAP: PAR pin, parity compute
    Wcrc,     ///< WCRC/eWCRC: CRC beats, CRC compute
    Cstc,     ///< protocol/timing checker compute
    DataEcc,  ///< chipkill check bits: storage, check-pin beats, codec
    AddrEcc,  ///< eDECC address fold: compute only (no extra bits)
    Recovery, ///< replay/reissue/scrub/patrol traffic and backoff
};

constexpr unsigned numCostLevels = 6;

/** Printable level label ("eCAP", "data-ECC", "recovery", ...). */
std::string costLevelName(CostLevel level);

/** The three resource categories every charge lands in. */
enum class CostCategory
{
    Storage, ///< redundancy bits resident in the array
    Bus,     ///< bits moved over CA/DQ pins beyond the payload
    Latency, ///< modeled compute/stall time in picoseconds
};

constexpr unsigned numCostCategories = 3;

/** Canonical category field name ("storage_bits", ...). */
std::string costCategoryName(CostCategory category);

/**
 * Per-level cost parameters, derived once from a scheme configuration
 * (aiecc/cost_model.hh builds one from a Mechanisms set).  All
 * quantities are integers: bits per event and picoseconds per event,
 * so attribution stays exact and merge-order independent.
 */
struct CostModel
{
    // Which levels are active (and which flavor).
    bool caParity = false;
    bool extendedCa = false; ///< eCAP (write-toggle bit) vs plain CAP
    bool wcrc = false;
    bool extendedWcrc = false; ///< eWCRC (address folded) vs plain WCRC
    bool cstc = false;
    bool dataEcc = false;
    bool addrEcc = false; ///< the data ECC binds the address (eDECC)
    std::string eccName;  ///< codec name ("" = no data ECC)

    /** Command-clock period (DDR4-2400: 833 ps) for cycle→time. */
    uint64_t tckPs = 833;

    // Storage: redundancy bits resident per stored block.
    uint64_t eccStorageBitsPerBlock = 0;

    // Bus: extra bits moved per event.
    uint64_t eccBusBitsPerAccess = 0;  ///< check-pin beats per RD/WR
    uint64_t wcrcBusBitsPerWrite = 0;  ///< CRC burst extension (BL8→BL10)
    uint64_t caBusBitsPerCommand = 0;  ///< PAR pin, one bit per edge
    uint64_t dataBusBitsPerAccess = 0; ///< payload baseline (ratios)

    // Latency: modeled compute picoseconds per event.
    uint64_t eccEncodePsPerWrite = 0;
    uint64_t eccDecodePsPerRead = 0;
    uint64_t addrFoldPsPerAccess = 0; ///< eDECC address-symbol work
    uint64_t wcrcComputePsPerWrite = 0;
    uint64_t caParityPsPerCommand = 0;
    uint64_t cstcCheckPsPerCommand = 0;

    bool operator==(const CostModel &other) const = default;

    /** Serialize the parameter set as one JSON object. */
    void writeJson(JsonWriter &w) const;
};

/**
 * Per-access cost attribution under one CostModel.
 *
 * Producers call the on*() hooks from the hot path (the null test on
 * Observer::cost() is the only cost when accounting is off); sharded
 * campaigns give each worker a private accountant over the same model
 * and merge() in shard order, which keeps every tally bit-identical
 * for any --jobs value.
 */
class CostAccountant
{
  public:
    explicit CostAccountant(const CostModel &model = CostModel{});

    const CostModel &model() const { return mdl; }

    // ---- Producer hooks ----

    /**
     * One command edge left the controller.  Bills CA parity and CSTC
     * per edge, WCRC per write, and ECC check-bit transfer per data
     * access; while a recovery scope is open the whole edge — payload
     * included — lands on the recovery level instead.
     */
    void onCommand(bool isWrite, bool isRead);

    /** One burst was ECC-encoded (storage + encode latency). */
    void onEccEncode();

    /** One received burst was ECC-decoded (decode latency). */
    void onEccDecode();

    /** The recovery engine idled the bus for @p cycles (backoff). */
    void onBackoff(uint64_t cycles);

    /**
     * Open/close a recovery billing scope (normally via
     * ScopedRecoveryCost).  Scopes nest; traffic is recovery-billed
     * while any scope is open.  endRecovery() without a matching
     * begin is a harness bug and panics.
     */
    void beginRecovery();
    void endRecovery();
    bool inRecovery() const { return recoveryDepth > 0; }

    // ---- Aggregation ----

    /**
     * Fold @p other's tallies into this accountant.  Both sides must
     * account under the same model (panic otherwise — merging costs
     * across different scheme configurations is a caller bug), and
     * @p other must have closed every recovery scope.
     */
    void merge(const CostAccountant &other);

    /** Result of the conservation audit. */
    struct Audit
    {
        bool ok = false;
        /** Human-readable violations (empty when ok). */
        std::vector<std::string> violations;
    };

    /**
     * Conservation checks, mirroring CoverageMatrix::audit(): every
     * category's running total must equal the sum of its per-level
     * cells, and every recovery scope must be closed.
     */
    Audit audit() const;

    // ---- Introspection ----

    uint64_t cell(CostLevel level, CostCategory category) const;
    uint64_t total(CostCategory category) const;

    uint64_t commands() const { return nCommands; }
    uint64_t reads() const { return nReads; }
    uint64_t writes() const { return nWrites; }
    /** Command edges issued inside a recovery scope. */
    uint64_t recoveryCommands() const { return nRecoveryCommands; }
    /** Idle cycles spent in retry backoff. */
    uint64_t backoffCycles() const { return nBackoffCycles; }
    /** Blocks encoded outside recovery (storage baseline). */
    uint64_t storedBlocks() const { return nStoredBlocks; }
    /** Data accesses (RD/WR) issued outside recovery. */
    uint64_t demandAccesses() const { return nDemandAccesses; }

    /** Redundancy bits per 100 stored data bits (0 with no writes). */
    double storageOverheadPct() const;
    /** Extra bus bits per 100 demand payload bits. */
    double busOverheadPct() const;
    /** Total modeled latency per demand access, in nanoseconds. */
    double latencyNsPerAccess() const;

    /**
     * Checkpoint layout (obs/state.hh), also the canonical digest
     * form: one "level category units" line per cell, zero cells
     * included, then the access counters.  The model is NOT in the
     * text — the caller reconstructs it from the campaign
     * configuration, exactly as on a fresh run — and the reader
     * recomputes totals as the sum of the cells.
     */
    template <class Self, class Archive>
    static void
    layout(Self &acct, Archive &ar)
    {
        for (unsigned l = 0; l < numCostLevels; ++l) {
            for (unsigned c = 0; c < numCostCategories; ++c) {
                ar.tag(costLevelName(static_cast<CostLevel>(l)));
                ar.tag(costCategoryName(static_cast<CostCategory>(c)));
                ar(acct.cells[l][c]).endl();
            }
        }
        ar.tag("commands")(acct.nCommands).tag("reads")(acct.nReads);
        ar.tag("writes")(acct.nWrites);
        ar.tag("recovery_commands")(acct.nRecoveryCommands);
        ar.tag("backoff_cycles")(acct.nBackoffCycles);
        ar.tag("stored_blocks")(acct.nStoredBlocks);
        ar.tag("demand_accesses")(acct.nDemandAccesses).endl();
        if constexpr (Archive::reading) {
            for (unsigned c = 0; c < numCostCategories; ++c) {
                acct.totals[c] = 0;
                for (unsigned l = 0; l < numCostLevels; ++l)
                    acct.totals[c] += acct.cells[l][c];
            }
            acct.recoveryDepth = 0; // checkpoints are written between batches
        }
    }

    /**
     * The layout's text.  Two accountants are equal iff their
     * serializations are equal; CI's --jobs determinism gate can
     * compare exactly this.
     */
    std::string serialize() const { return writeState(*this); }

    /** FNV-1a digest of serialize() — cheap cross-run equality. */
    uint64_t digest() const;

    /** Restore the tallies from serialize(); malformed input panics. */
    void deserializeState(const std::string &s) { restoreState(*this, s); }

    /**
     * Serialize as one JSON object: the model, access counts, the
     * per-level × per-category attribution (integer units plus
     * derived bytes/ns), totals, the derived Pareto metrics, and the
     * audit verdict.  This is the "cost" section of every bench
     * artifact.
     */
    void writeJson(JsonWriter &w) const;

  private:
    CostModel mdl;
    uint64_t cells[numCostLevels][numCostCategories] = {};
    uint64_t totals[numCostCategories] = {};
    uint64_t nCommands = 0;
    uint64_t nReads = 0;
    uint64_t nWrites = 0;
    uint64_t nRecoveryCommands = 0;
    uint64_t nBackoffCycles = 0;
    uint64_t nStoredBlocks = 0;
    uint64_t nDemandAccesses = 0;
    unsigned recoveryDepth = 0;

    /** The one write path into the tallies: cell and total together. */
    void chargeCell(CostLevel level, CostCategory category,
                    uint64_t amount);
};

/** RAII recovery billing scope (nullptr accountant = no-op). */
class ScopedRecoveryCost
{
  public:
    explicit ScopedRecoveryCost(CostAccountant *accountant)
        : acct(accountant)
    {
        if (acct)
            acct->beginRecovery();
    }
    ~ScopedRecoveryCost()
    {
        if (acct)
            acct->endRecovery();
    }
    ScopedRecoveryCost(const ScopedRecoveryCost &) = delete;
    ScopedRecoveryCost &operator=(const ScopedRecoveryCost &) = delete;

  private:
    CostAccountant *acct;
};

} // namespace obs
} // namespace aiecc

#endif // AIECC_OBS_COST_HH
