/**
 * @file
 * EDAC/MCE-style RAS health telemetry for one memory channel.
 *
 * A HealthMonitor is a TraceSink: attached to the same Observer the
 * protection stack reports through (or fed a recorded trace offline),
 * it aggregates symptoms — corrected/uncorrectable data-ECC
 * detections, CA/WCRC/CSTC alert families, retries, scrubs,
 * escalations — into sliding-window rates per component, infers the
 * fault *topology* behind a corrected-error address stream
 * (single-cell vs row vs column vs chip vs command/address link), and
 * runs a hysteresis health-state machine (healthy → degraded →
 * failing) per bank and for the rank.  State transitions enqueue
 * recommended actions (raise the patrol-scrub rate, retire a row,
 * quarantine a bank) that an opt-in mitigation mode feeds back into
 * the stack and its RecoveryEngine, so campaigns can measure coverage
 * with and without predictive maintenance.
 *
 * Like every registry in src/obs, a monitor is shard-mergeable in
 * shard order (bit-identical results for any --jobs value) and
 * checkpoint-serializable.  Per-event processing is allocation-free
 * on the no-fault path.
 */

#ifndef AIECC_RAS_HEALTH_HH
#define AIECC_RAS_HEALTH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ddr4/address.hh"
#include "ddr4/burst.hh"
#include "ddr4/pins.hh"
#include "obs/json.hh"
#include "obs/observer.hh"
#include "obs/state.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"

namespace aiecc
{
namespace ras
{

/** Component health, worst first when merging shards. */
enum class HealthState
{
    Healthy,
    Degraded, ///< elevated windowed error rate
    Failing,  ///< rate past the failure threshold or quarantined
};

/** Printable state name. */
const char *healthStateName(HealthState state);

/** Inferred fault topology classes (Section II fault models). */
enum class Topology
{
    None,       ///< not enough evidence, or no concentration
    SingleCell, ///< one (row, column) dominates
    Row,        ///< one row across many columns
    Column,     ///< one column across many rows
    Chip,       ///< one x4 chip's symbols keep getting corrected
    Link,       ///< CA/command-bus alert family (pin-class faults)
};

/** Printable topology name. */
const char *topologyName(Topology topology);

/** One confident topology inference. */
struct TopologyCall
{
    Topology kind = Topology::None;
    unsigned bank = 0;     ///< Row/Column/SingleCell calls
    unsigned row = 0;      ///< Row/SingleCell
    unsigned col = 0;      ///< Column/SingleCell
    unsigned chip = 0;     ///< Chip
    int pin = -1;          ///< Link: diagnosed CCCA pin index, -1 unknown
    uint64_t evidence = 0; ///< events backing the call
    double share = 0.0;    ///< dominant share of the component's events
};

/** What the monitor recommends doing about a failing component. */
enum class ActionKind
{
    RaisePatrol,    ///< increase the patrol-scrub rate (rank scope)
    RetireRow,      ///< remap a failing row to a spare
    QuarantineBank, ///< feed the escalation ladder pre-emptively
};

/** Printable action name (the RasAction trace-event label). */
const char *actionName(ActionKind kind);

/** One recommended action, in emission order. */
struct RecommendedAction
{
    ActionKind kind = ActionKind::RaisePatrol;
    unsigned bank = 0; ///< RetireRow / QuarantineBank target
    unsigned row = 0;  ///< RetireRow target
    uint64_t cycle = 0;
};

/** Tunable thresholds of the health-state machine and inference. */
struct HealthConfig
{
    Geometry geom{};

    /** Sliding-window bucket width in cycles (window = 16 buckets). */
    uint64_t bucketCycles = 1ull << 14;

    // ---- Health-state hysteresis (windowed counts per bank) ----
    uint64_t degradeCes = 4;  ///< window CEs: healthy -> degraded
    uint64_t failCes = 24;    ///< window CEs: degraded -> failing
    uint64_t degradeUes = 1;  ///< window UEs: healthy -> degraded
    uint64_t failUes = 2;     ///< window UEs: degraded -> failing
    /** Quiet cycles required before a state downgrades (hysteresis). */
    uint64_t recoverDwell = 1ull << 17;

    // ---- Topology inference ----
    uint64_t minEvidence = 6;    ///< events before any call is made
    double concentration = 0.5;  ///< dominant share for a call
    unsigned rowSpread = 3;      ///< distinct cols to call a Row
    unsigned colSpread = 3;      ///< distinct rows to call a Column
    /** A chip call must exceed this multiple of the median chip
     *  count (median, not mean: robust to multi-chip faults). */
    double chipDominance = 4.0;
    uint64_t linkAlerts = 4;     ///< alert-family events to call Link

    // ---- Actions ----
    /** Row-concentrated CEs that trigger a RetireRow recommendation. */
    uint64_t retireRowCes = 8;
};

/**
 * The monitor.  Attach with observer.addSink(&monitor) — after any
 * JSONL sink, so emitted RasHealth/RasAction events trail the
 * triggering symptom in the file — or replay a recorded trace through
 * record() offline.  Give it an Observer (setObserver) to emit
 * RasHealth/RasAction events on transitions; it ignores those kinds
 * on input, so the feedback loop terminates.  It reads the events'
 * kinds and typed symptom fields, never their text.
 */
class HealthMonitor : public obs::TraceSink
{
  public:
    explicit HealthMonitor(const HealthConfig &config = {});

    const HealthConfig &config() const { return cfg; }

    /** Emission hookup for RasHealth/RasAction events (may be null). */
    void setObserver(obs::Observer *observer) { obsHook = observer; }

    // ---- Ingest ----

    void record(const obs::TraceEvent &event) override;

    // ---- Health queries ----

    HealthState rankState() const { return rank.state; }
    HealthState bankState(unsigned bank) const;
    unsigned degradedBanks() const;
    unsigned failingBanks() const;

    // ---- Topology queries ----

    /** Inference for one bank (None without enough concentration). */
    TopologyCall bankTopology(unsigned bank) const;

    /** Chip-level inference across the rank (heaviest suspect). */
    TopologyCall chipTopology() const;

    /** Every chip passing the dominance test (multi-chip faults). */
    std::vector<TopologyCall> chipTopologies() const;

    /** Command/address-link inference (CA alert families). */
    TopologyCall linkTopology() const;

    /** Every confident call, banks then chip then link. */
    std::vector<TopologyCall> topologies() const;

    // ---- Actions ----

    /**
     * Move every not-yet-drained recommended action into @p out
     * (appended); returns how many.  The mitigation loop polls this.
     */
    size_t drainActions(std::vector<RecommendedAction> &out);

    /** All actions ever recommended, in order (log is bounded). */
    const std::vector<RecommendedAction> &actionLog() const
    {
        return log;
    }
    uint64_t actionCount(ActionKind kind) const
    {
        return actionCounts[static_cast<unsigned>(kind)];
    }

    // ---- Counters (for reports) ----

    uint64_t eventsSeen() const { return seen; }
    uint64_t faultsInjected() const { return injects; }
    uint64_t faultsResolved() const { return resolves; }

    // ---- Registry contract ----

    /**
     * Fold a shard-local monitor in: windows add bucket-aligned,
     * states take the worse value, frequency sketches and counters
     * add, logs append.  Merging in shard order keeps the result
     * bit-identical for any shard count.
     */
    void merge(const HealthMonitor &other);

    /**
     * Checkpoint layout (obs/state.hh): counters, rank and per-bank
     * health with their sliding windows, sketches, action log,
     * pending actions and retired rows.  Bank count and window width
     * come from the configuration: the reader checks them against its
     * own.
     */
    template <class Self, class Archive>
    static void
    layout(Self &mon, Archive &ar)
    {
        uint64_t banks = mon.banks.size(), width = mon.cfg.bucketCycles;
        ar.tag("rasv1")(banks, width).endl();
        ar.check(banks == mon.banks.size() && width == mon.cfg.bucketCycles,
                 "geometry/config mismatch");
        ar.tag("ctr")(mon.seen, mon.injects, mon.resolves, mon.droppedLog,
                      mon.lastCycle, mon.patrolRaised, mon.actionCounts[0],
                      mon.actionCounts[1], mon.actionCounts[2])
            .endl();
        // A state line, then one line per sliding window.
        const auto health = [&](auto &h, auto &...windows) {
            ar.below(h.state, 3)(h.stateSince, h.transitions).endl();
            ((obs::SlidingWindow::layout(windows, ar), ar.endl()), ...);
        };
        auto &r = mon.rank;
        ar.tag("rank");
        health(r, r.ce, r.ue, r.alerts, r.retries, r.scrubs, r.exhausted);
        ar.tag("chips");
        for (unsigned c = 0; c < Burst::numChips; ++c)
            ar(mon.chipCounts[c], mon.chipMasks[c]);
        ar.endl().tag("pins");
        for (auto &n : mon.pinCounts)
            ar(n);
        ar.endl();
        for (uint64_t b = 0; b < mon.banks.size(); ++b) {
            auto &bank = mon.banks[b];
            uint64_t index = b;
            ar.tag("bank")(index);
            ar.check(index == b, "bank index mismatch");
            health(bank, bank.ce, bank.ue);
            const auto slots = [&](const char *tag, auto &table) {
                ar.tag(tag);
                for (auto &slot : table)
                    ar(slot.key, slot.count, slot.mask);
                ar.endl();
            };
            slots("rows", bank.rows);
            slots("cols", bank.cols);
            slots("cells", bank.cells);
        }
        const auto list = [&](const char *tag, auto &v, auto item) {
            uint64_t n = v.size();
            ar.tag(tag).count(n).items(v, n, item);
            ar.endl();
        };
        const auto action = [&](auto &a) {
            ar.below(a.kind, 3)(a.bank, a.row, a.cycle);
        };
        list("log", mon.log, action);
        list("pending", mon.pending, action);
        list("retired", mon.retiredKeys, [&](auto &key) { ar(key); });
    }

    std::string serializeState() const { return obs::writeState(*this); }
    /** Replace state with @p text; malformed input panics. */
    void deserializeState(const std::string &s) { obs::restoreState(*this, s); }

    /**
     * Emit the artifact `ras` section members into an already-open
     * JSON object (rank/banks/topologies/actions).
     */
    void writeJsonMembers(obs::JsonWriter &w) const;

    /** The section as one self-contained object value. */
    void writeJson(obs::JsonWriter &w) const;

    /** Flat key-value members for heartbeat payloads. */
    void writeHeartbeat(obs::JsonWriter &w) const;

  private:
    /** Frequency-sketch slot (Misra-Gries heavy-hitter tracking). */
    struct Slot
    {
        uint32_t key = 0;
        uint64_t count = 0;
        /** Diversity evidence: bitmask of companion coordinates. */
        uint64_t mask = 0;
    };
    static constexpr unsigned numSlots = 8;

    /** Per-component symptom aggregate and state machine. */
    struct BankHealth
    {
        obs::SlidingWindow ce, ue;
        HealthState state = HealthState::Healthy;
        uint64_t stateSince = 0;
        uint64_t transitions = 0;
        Slot rows[numSlots];  ///< key = row, mask = cols seen (mod 64)
        Slot cols[numSlots];  ///< key = col, mask = rows seen (mod 64)
        Slot cells[numSlots]; ///< key = row << mtbColBits | col
    };

    struct RankHealth
    {
        obs::SlidingWindow ce, ue, alerts, retries, scrubs, exhausted;
        HealthState state = HealthState::Healthy;
        uint64_t stateSince = 0;
        uint64_t transitions = 0;
    };

    HealthConfig cfg;
    obs::Observer *obsHook = nullptr;

    uint64_t seen = 0;
    uint64_t injects = 0;
    uint64_t resolves = 0;
    uint64_t lastCycle = 0;

    RankHealth rank;
    std::vector<BankHealth> banks;
    uint64_t chipCounts[Burst::numChips] = {};
    /** Banks each chip's corrections touched (chip-vs-cell telltale). */
    uint64_t chipMasks[Burst::numChips] = {};
    uint64_t pinCounts[numCccaPins] = {};

    std::vector<RecommendedAction> pending; ///< not yet drained
    std::vector<RecommendedAction> log;     ///< bounded history
    uint64_t actionCounts[3] = {};
    uint64_t droppedLog = 0;
    std::vector<uint32_t> retiredKeys; ///< RetireRow dedup (bank<<20|row)
    bool patrolRaised = false;         ///< RaisePatrol recommended yet

    static constexpr size_t maxLog = 256;

    /** Count @p key into a sketch, OR-ing @p maskBit into its slot. */
    static void sketch(Slot *slots, uint32_t key, uint64_t maskBit);

    /** Merge one sketch table into another (shard-order fold). */
    static void mergeSketch(Slot *into, const Slot *from);

    void onDataDetection(const obs::TraceEvent &event);
    void evalBank(unsigned bank, uint64_t cycle);
    void evalRank(uint64_t cycle);
    /** Move a component's state toward @p want (hysteresis applies). */
    void transition(HealthState &state, uint64_t &since,
                    uint64_t &transitions, HealthState want,
                    uint64_t cycle, unsigned bank, bool isRank);
    void recommend(ActionKind kind, unsigned bank, unsigned row,
                   uint64_t cycle);
    void maybeRecommendRetire(unsigned bank, uint64_t cycle);

    void writeTopologyJson(obs::JsonWriter &w, const char *component,
                           const TopologyCall &call) const;
};

} // namespace ras
} // namespace aiecc

#endif // AIECC_RAS_HEALTH_HH
