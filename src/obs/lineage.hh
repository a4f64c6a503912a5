/**
 * @file
 * Fault lineage tracing: account for every injected fault end-to-end.
 *
 * AIECC's claim is *thorough* protection — every injected CCCA or
 * data fault must end up detected, corrected, recovered, escaped, or
 * provably masked; never silently absorbed by the measurement harness
 * itself.  Aggregate outcome counters cannot prove that: a campaign
 * bug that drops one trial's classification is invisible in rates.
 * This module gives each injected fault a unique, deterministic
 * identity and a ledger entry that follows it from injection to its
 * single terminal state, so an auditor (obs/coverage.hh) can check
 * conservation — injected == masked + detected + corrected +
 * recovered + escaped — and fail loudly on anything unaccounted.
 *
 * Fault-ID derivation rule (DESIGN.md §10): a fault injected as the
 * @c trial 'th of stream @c stream under campaign salt @c salt gets
 * @code id = splitmix64(salt ^ mix(stream) ^ mix(trial)) | 1 @endcode
 * — a pure function of the campaign configuration and the trial's
 * global (shard-major) index, never of the worker count, so lineage
 * ledgers are bit-identical for any --jobs value.  ID 0 is reserved
 * for "no fault context" throughout the stack.
 */

#ifndef AIECC_OBS_LINEAGE_HH
#define AIECC_OBS_LINEAGE_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.hh"
#include "obs/state.hh"

namespace aiecc
{
namespace obs
{

/** What was injected (the coverage matrix's first axis). */
enum class FaultKind
{
    Ccca,     ///< command/clock/control/address transmission error
    Data,     ///< stored-data corruption (bit/chip/rank)
    Addr,     ///< read-address corruption
    DataAddr, ///< simultaneous data + address corruption
};

constexpr unsigned numFaultKinds = 4;

/** Printable fault-kind name ("ccca", "data", ...). */
const char *faultKindName(FaultKind kind);

/**
 * The single terminal state every injected fault must reach
 * (the coverage matrix's outcome axis).  Unaccounted is not a legal
 * end state: it marks a fault the campaign injected but never
 * classified, and the auditor treats any of them as a campaign error.
 */
enum class FaultTerminal
{
    Unaccounted, ///< injected, never resolved — a harness bug
    Masked,      ///< provably benign; no architectural effect
    Detected,    ///< flagged but not corrected (DUE delivered)
    Corrected,   ///< corrected in place, no recovery episode needed
    Recovered,   ///< corrected through in-band recovery retry
    Escaped,     ///< silent corruption reached the consumer (SDC/MDC)
};

constexpr unsigned numFaultTerminals = 6;

/** Printable terminal-state name ("masked", "recovered", ...). */
const char *faultTerminalName(FaultTerminal terminal);

/** FNV-1a of @p text — site/config salting for fault-ID streams. */
uint64_t lineageHash(const std::string &text);

/**
 * The deterministic fault-ID derivation rule (see file header).
 * Never returns 0; 0 means "no fault context" stack-wide.
 */
uint64_t deriveFaultId(uint64_t salt, uint64_t stream, uint64_t trial);

/**
 * One fault's ledger entry.  Site and mechanism strings are interned
 * in the owning ledger (records stay 40 bytes so million-trial
 * Monte-Carlo campaigns can afford full per-fault provenance).
 */
struct LineageRecord
{
    uint64_t faultId = 0;
    FaultKind kind = FaultKind::Ccca;
    FaultTerminal terminal = FaultTerminal::Unaccounted;
    /** Interned injection-site name (LineageLedger::siteName). */
    uint32_t site = 0;
    /** Interned first-detector label (0 = none; mechanismLabel()). */
    uint32_t mech = 0;
    /** Detection events attributed to this fault. */
    uint32_t observations = 0;
    /** In-band recovery attempts spent on this fault. */
    uint32_t attempts = 0;
};

/**
 * Accumulates lineage records in injection order.
 *
 * The write protocol is inject-then-resolve: recordInjection() opens
 * a record in the Unaccounted state, resolve() moves it to its one
 * terminal state.  Double injection of an ID, resolving an ID that
 * was never injected, and resolving twice are all harness bugs and
 * panic immediately — the auditor's conservation check then only has
 * to look for records still Unaccounted.
 *
 * Sharded campaigns give each worker a private ledger and merge() in
 * shard order after the join; because fault IDs and record order are
 * functions of the global trial index alone, the merged ledger is
 * byte-identical (serialize()) to a sequential run's.
 */
class LineageLedger
{
  public:
    /**
     * Open a record for @p faultId; panics on a duplicate ID.  Only a
     * site or mechanism name the ledger has not seen, and growth of
     * the record table, allocate.
     */
    void recordInjection(uint64_t faultId, FaultKind kind,
                         std::string_view site);

    /**
     * Move @p faultId to @p terminal, attributing the first detection
     * to @p mechanism ("" = none fired).  Panics when the ID was
     * never injected or was already resolved.
     */
    void resolve(uint64_t faultId, FaultTerminal terminal,
                 std::string_view mechanism = "",
                 uint32_t observations = 0, uint32_t attempts = 0);

    const std::vector<LineageRecord> &records() const { return recs; }
    size_t size() const { return recs.size(); }

    const std::string &siteName(uint32_t index) const;
    /** Label of interned mechanism @p index (0 = "", none). */
    const std::string &mechanismLabel(uint32_t index) const;

    /** Records still Unaccounted (injected, never resolved). */
    uint64_t unaccounted() const;

    /** Append @p other's records (and intern tables) after ours. */
    void merge(const LineageLedger &other);

    /**
     * Canonical byte-stable text form, one record per line:
     * "id kind terminal site mech observations attempts".  Two
     * ledgers are equal iff their serializations are equal; CI's
     * --jobs determinism gate compares exactly this.
     */
    std::string serialize() const;

    /** FNV-1a digest of serialize() — cheap cross-run equality. */
    uint64_t digest() const;

    /**
     * Checkpoint layout (obs/state.hh): intern tables one name per
     * line (site names may contain spaces, so the display-oriented
     * serialize() is not reversible), then numeric records.  A
     * restored ledger is behaviorally identical — serialize(),
     * digest(), merge() and further record/resolve calls all
     * continue as if the process had never died.
     */
    template <class Self, class Archive>
    static void
    layout(Self &led, Archive &ar)
    {
        const auto names = [&](const char *tag, auto &table) {
            uint64_t n = table.size();
            ar.tag(tag).count(n).endl();
            ar.items(table, n, [&](auto &name) { ar.line(name); });
        };
        names("sites", led.sites);
        names("mechs", led.mechs);
        uint64_t n = led.recs.size(), unresolved = led.unresolved;
        ar.tag("records").count(n).tag("unresolved")(unresolved).endl();
        ar.items(led.recs, n, [&](auto &rec) {
            ar(rec.faultId).below(rec.kind, numFaultKinds);
            ar.below(rec.terminal, numFaultTerminals);
            ar.below(rec.site, led.sites.size());
            ar.below(rec.mech, led.mechs.size());
            ar(rec.observations, rec.attempts).endl();
        });
        if constexpr (Archive::reading) {
            led.reindex();
            ar.check(led.unresolved == unresolved,
                     "unresolved count mismatch");
        }
    }

    std::string serializeState() const { return writeState(*this); }
    /** Replace this ledger with @p text; malformed input panics. */
    void deserializeState(const std::string &s) { restoreState(*this, s); }

    /**
     * Serialize as one JSON object: record/unaccounted counts, the
     * digest, and up to @p maxRecords full records (default caps the
     * artifact size; the digest still covers every record).
     */
    void writeJson(JsonWriter &w, size_t maxRecords = 64) const;

  private:
    std::vector<LineageRecord> recs;
    using NameIndex = std::map<std::string, uint32_t, std::less<>>;
    std::vector<std::string> sites;
    NameIndex siteIndex;
    std::vector<std::string> mechs{""}; ///< index 0 = no mechanism
    NameIndex mechIndex{{"", 0}};
    /**
     * (faultId, record index) of every unresolved record.  Campaigns
     * resolve each fault before injecting the next, so this stays a
     * handful long and, once grown, is reused without allocating.
     */
    std::vector<std::pair<uint64_t, size_t>> open;
    uint64_t unresolved = 0;

    uint32_t intern(std::vector<std::string> &table, NameIndex &index,
                    std::string_view name);
    /** The open-set slot of @p faultId, or open.end(). */
    std::vector<std::pair<uint64_t, size_t>>::iterator
    findOpen(uint64_t faultId);
    /** Rebuild the name indexes and the open set from the tables. */
    void reindex();
};

} // namespace obs
} // namespace aiecc

#endif // AIECC_OBS_LINEAGE_HH
