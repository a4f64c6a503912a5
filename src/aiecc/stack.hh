/**
 * @file
 * The composed protection stack — the main public entry point of the
 * library.
 *
 * A ProtectionStack wires a DRAM rank, a memory controller and a data
 * ECC codec together under one Mechanisms configuration, translating
 * device alerts and ECC decode outcomes into a unified stream of
 * DetectionEvents.  Fault-injection campaigns drive the explicit
 * issue*() interface; applications use the row-managing write()/read()
 * convenience calls.
 */

#ifndef AIECC_AIECC_STACK_HH
#define AIECC_AIECC_STACK_HH

#include <memory>
#include <vector>

#include "aiecc/detection.hh"
#include "aiecc/mechanisms.hh"
#include "controller/controller.hh"
#include "obs/observer.hh"
#include "recovery/recovery.hh"

namespace aiecc
{

/** Full configuration of a protection stack. */
struct StackConfig
{
    Geometry geom{};
    TimingParams timing = TimingParams::ddr4_2400();
    Mechanisms mech{};
    uint64_t seed = 0xA1ECC;

    /**
     * On-demand (redirect) scrubbing, §V-D: when a read corrects an
     * error, immediately write the corrected block back so transient
     * storage flips do not accumulate into uncorrectable patterns.
     * Address-error corrections are *not* scrubbed (the data belongs
     * to another block; retry handles those).
     */
    bool scrubOnCorrection = false;

    /**
     * In-band recovery policies (§IV-G): bounded alert-driven retry,
     * the escalation ladder, and the patrol scrubber.  Enabled by
     * default with the patrol off; set recovery.enabled = false for a
     * detect-only stack.
     */
    RecoveryConfig recovery;

    /**
     * Optional measurement hookup, shared with the controller and
     * rank models.  nullptr (the default) keeps the hot path free of
     * any instrumentation cost beyond one pointer test; with a
     * registry attached, counters are resolved once at construction.
     */
    obs::Observer *observer = nullptr;
};

/** Outcome of a protected read. */
struct ReadOutcome
{
    BitVec data{Burst::dataBits}; ///< payload after any correction
    bool detected = false;  ///< the ECC flagged something
    bool corrected = false; ///< ... and corrected it
    bool due = false;       ///< detected-uncorrectable: do not consume
    /** Chips the decoder corrected symbols on (bitmask, bit = chip). */
    uint32_t correctedChips = 0;
};

/**
 * One memory channel protected by a configurable mechanism set.
 *
 * Detections are handled in-band: the owned RecoveryEngine consumes
 * every alert or flagged decode and drives bounded retry through the
 * real controller path (the private RecoveryPort implementation).
 * Recovery can honestly fail — a fault that persists across the retry
 * window leaves a residual DUE.
 */
class ProtectionStack : private RecoveryPort
{
  public:
    explicit ProtectionStack(const StackConfig &config);

    // ---- Low-level command interface (campaign sequences) ----

    /** Issue an ACT. */
    void issueAct(unsigned bg, unsigned ba, unsigned row);

    /** Issue a WR of @p data to @p addr (bank must be open there). */
    void issueWr(const MtbAddress &addr, const BitVec &data);

    /** Issue a RD from @p addr and run the data ECC over the result. */
    ReadOutcome issueRd(const MtbAddress &addr);

    /** Issue a PRE / PREA / NOP. */
    void issuePre(unsigned bg, unsigned ba);
    void issuePreAll();
    void issueNop();

    // ---- High-level convenience (applications) ----

    /** Write, opening/closing rows as needed. */
    void write(const MtbAddress &addr, const BitVec &data);

    /** Read, opening/closing rows as needed. */
    ReadOutcome read(const MtbAddress &addr);

    // ---- Fault injection and introspection ----

    /** Install/replace the pin corruptor (empty clears it). */
    void setPinCorruptor(PinCorruptor corruptor);

    /**
     * Lineage context (obs/lineage.hh): while nonzero, every
     * DetectionEvent this stack raises carries the ID, and the
     * attached observer stamps it onto all emitted trace events —
     * recovery episodes and controller retries included — so a
     * campaign can attribute everything that happens during a trial
     * to the fault under test.  0 clears the context.
     */
    void setFaultContext(uint64_t faultId);

    /** Detections accumulated since the last clear. */
    const std::vector<DetectionEvent> &detections() const
    {
        return events;
    }
    void clearDetections() { events.clear(); }

    /** Scrub write-backs performed so far (scrubOnCorrection). */
    uint64_t scrubCount() const { return scrubs; }

    /**
     * Full error-recovery reset: resynchronize the write-toggle bit,
     * drain the PHY read FIFO, precharge every bank and drop the
     * high-level row cache, so controller belief and device state
     * agree again before commands are replayed (§IV-G).
     */
    void recover();

    // ---- RAS mitigation hooks (predictive maintenance) ----

    /**
     * Retune the patrol-scrub period live (accesses between patrol
     * steps; 0 disables).  RAS health monitoring raises the patrol
     * rate on degrading components so storage flips are scrubbed
     * before they accumulate into uncorrectable patterns.
     */
    void setPatrolPeriod(uint64_t period)
    {
        cfg.recovery.patrolPeriod = period;
    }
    uint64_t patrolPeriod() const { return cfg.recovery.patrolPeriod; }

    /**
     * Retire @p row of flat bank @p flatBank: every later high-level
     * read()/write() of it is remapped to @p spareRow in the same
     * bank.  The spare starts from the never-written fill state
     * (valid codewords), so the retired row's accumulated damage
     * stops being observable; its stored content is abandoned — the
     * caller re-writes live data it wants to keep.
     */
    void retireRow(unsigned flatBank, unsigned row, unsigned spareRow);

    DramRank &rank() { return *rankModel; }
    const DramRank &rank() const { return *rankModel; }
    MemController &controller() { return *ctrl; }
    const Mechanisms &mechanisms() const { return cfg.mech; }
    const Geometry &geometry() const { return cfg.geom; }
    DataEcc *ecc() { return codec.get(); }
    obs::Observer *observer() const { return cfg.observer; }

    /** The in-band recovery engine (escalation queries, stats). */
    RecoveryEngine &recovery() { return *rec; }
    const RecoveryEngine &recovery() const { return *rec; }

    /** Engine totals, queryable without an observer. */
    const RecoveryStats &recoveryStats() const { return rec->stats(); }

  private:
    StackConfig cfg;
    std::unique_ptr<DataEcc> codec;
    std::unique_ptr<DramRank> rankModel;
    std::unique_ptr<MemController> ctrl;
    std::vector<DetectionEvent> events;
    uint64_t scrubs = 0;
    uint64_t faultCtx = 0;

    std::unique_ptr<RecoveryEngine> rec;
    bool inRecovery = false; ///< port calls must not re-enter the engine
    bool inPatrol = false;   ///< patrol reads must not re-tick the patrol
    /** Bank the newest alert was attributable to. */
    std::optional<unsigned> lastAlertBank;
    uint64_t accessesSincePatrol = 0;
    size_t patrolCursor = 0;

    /** Counters resolved at construction (observer + registry only). */
    struct StackCounters
    {
        obs::Counter *reads = nullptr;
        obs::Counter *writes = nullptr;
        obs::Counter *detections = nullptr;
        obs::Counter *corrections = nullptr;
        obs::Counter *dues = nullptr;
        obs::Counter *addrDiagnoses = nullptr;
        obs::Counter *scrubs = nullptr;
        obs::Counter *recoveries = nullptr;
        obs::Counter *byMech[7] = {};
    };
    StackCounters oc;

    /** Controller-side row bookkeeping for the high-level interface. */
    std::vector<int> hlOpenRow; ///< -1 = closed

    /** One retired row: accesses to (bank, row) land on spare. */
    struct RowRemap
    {
        unsigned bank;
        unsigned row;
        unsigned spare;
    };
    std::vector<RowRemap> rowRemaps;

    /** Apply any retirement remap to @p addr (bank precomputed). */
    void applyRowRemap(unsigned flatBank, MtbAddress &addr) const
    {
        for (const RowRemap &r : rowRemaps) {
            if (r.bank == flatBank && r.row == addr.row) {
                addr.row = r.spare;
                return;
            }
        }
    }

    /** Cost attribution hookup (nullptr = accounting off). */
    obs::CostAccountant *
    costAcct() const
    {
        return cfg.observer ? cfg.observer->cost() : nullptr;
    }

    /**
     * Record the device alert the issued edge raised, if any.
     * @return true when there was one.
     */
    bool noteAlert(const IssueResult &issued);

    /** Record a detection: stats, trace event, and the event log. */
    void noteDetection(DetectionEvent event);

    /** Prepare the full burst for a write (ECC encode or raw). */
    Burst encodeWrite(const MtbAddress &addr, const BitVec &data) const;

    /**
     * Issue @p cmd (a WR carries @p wrEntry's burst) and hand an alert
     * it raises to the recovery engine.
     */
    void issueChecked(const Command &cmd,
                      const std::optional<ReplayEntry> &wrEntry = {});

    /** Remap @p requested past retired rows and open its row. */
    MtbAddress openForAccess(const MtbAddress &requested);

    /** Run one patrol-scrub step when the access period elapsed. */
    void tickPatrol();

    // ---- RecoveryPort (the engine's view of this stack) ----
    Cycle portNow() const override;
    bool wrtMismatch() const override;
    std::optional<ReplayEntry> newestWrite() const override;
    void resyncWrt() override;
    void drainReadFifo() override;
    void backoff(Cycle cycles) override;
    bool reopenRow(unsigned bg, unsigned ba, unsigned row) override;
    bool replayWrite(const ReplayEntry &entry) override;
    std::optional<BitVec> reissueRead(const MtbAddress &addr) override;
    bool reissue(const Command &cmd) override;
};

} // namespace aiecc

#endif // AIECC_AIECC_STACK_HH
