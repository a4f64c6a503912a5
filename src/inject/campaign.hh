/**
 * @file
 * The CCCA fault-injection campaign engine (Figure 6 of the AIECC
 * paper).
 *
 * A trial injects one transmission error — a 1-pin flip, a 2-pin
 * flip, or an all-pin (clock/power noise) randomization — into the
 * target command of one of the five dominant command patterns, runs
 * the protected memory system forward (including command retry when a
 * mechanism raises an alert), and classifies the end state against an
 * error-free golden run: no effect, corrected, detected-uncorrectable,
 * or silent data / memory data corruption.
 */

#ifndef AIECC_INJECT_CAMPAIGN_HH
#define AIECC_INJECT_CAMPAIGN_HH

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "aiecc/stack.hh"
#include "common/checkpoint.hh"
#include "common/combinadic.hh"
#include "obs/json.hh"
#include "obs/shard_run.hh"
#include "obs/state.hh"

namespace aiecc
{

/** The five dominant command patterns of Section V-A. */
enum class CommandPattern
{
    ActWr,  ///< ACT followed by WR (error injected on the ACT)
    ActRd,  ///< ACT followed by RD
    Wr,     ///< WR to an open row
    Rd,     ///< RD from an open row
    Pre,    ///< PRE, then reopen and read
};

/** All five patterns, in paper order. */
std::vector<CommandPattern> allPatterns();

/** Printable pattern name ("ACT+WR", ...). */
const char *patternName(CommandPattern pattern);

/** The transmission-error models of Section V-A. */
struct PinError
{
    /** Pins whose level flips on the target edge (1-pin / 2-pin). */
    std::vector<Pin> flips;
    /** All-pin noise: every CCCA pin re-randomized (CK/power error). */
    bool allPin = false;
    /** Seed for the all-pin randomization. */
    uint64_t noiseSeed = 0;
    /**
     * Command edges the fault persists for, starting at the target
     * edge.  1 (the default) is the paper's transient single-edge
     * model; larger values model an intermittent fault that outlives
     * in-band retry attempts, which also burn edges while it is live.
     */
    unsigned persistence = 1;

    static PinError onePin(Pin pin) { return {{pin}, false, 0, 1}; }
    static PinError twoPin(Pin a, Pin b) { return {{a, b}, false, 0, 1}; }
    static PinError allPins(uint64_t seed) { return {{}, true, seed, 1}; }
    /** Intermittent fault: @p pin stays flipped for @p edges edges. */
    static PinError intermittent(Pin pin, unsigned edges)
    {
        return {{pin}, false, 0, edges};
    }

    std::string toString() const;
};

/** Final classification of a trial (Section V-A1 terminology). */
enum class Outcome
{
    NoEffect,    ///< undetected, but harmless
    Corrected,   ///< detected; retry restored the golden state
    Due,         ///< detected, but data was lost (uncorrectable)
    Sdc,         ///< undetected wrong data consumed
    Mdc,         ///< undetected latent storage corruption
    SdcMdc,      ///< both
};

/** Printable outcome name. */
const char *outcomeName(Outcome outcome);

/** How the in-band recovery engine fared during a trial. */
enum class RecoveryClass
{
    None,         ///< no recovery episode ran
    FirstTry,     ///< every episode recovered on its first attempt
    AfterRetries, ///< some episode needed more than one attempt
    Exhausted,    ///< some episode ran out of attempts
};

/** Printable recovery-class name ("after_retries", ...). */
const char *recoveryClassName(RecoveryClass cls);

/** Everything a single injection trial produced. */
struct TrialResult
{
    Outcome outcome = Outcome::NoEffect;
    bool detected = false;
    /** Mechanisms that raised detections, in firing order. */
    std::vector<Mechanism> detectors;
    /** Wrong data was consumed without a flag (after any retry). */
    bool sdc = false;
    /** Storage diverged from golden (after any retry). */
    bool mdc = false;
    /** What the corrupted edge decoded to on the DRAM side. */
    DecodedCommand decoded;
    /** The intended command on the target edge. */
    Command intended;
    /** eDECC address diagnosis, when one was produced (§IV-F). */
    std::optional<uint32_t> diagnosedAddress;

    /** In-band recovery episodes the faulty run started. */
    uint64_t recoveryEpisodes = 0;
    /** Retry attempts the faulty run spent, across all episodes. */
    uint64_t recoveryAttempts = 0;
    /** Some episode exhausted its attempt budget. */
    bool retryExhausted = false;
    /** Summary recovery classification of the trial. */
    RecoveryClass recovery = RecoveryClass::None;

    /** First detector, if any. */
    std::optional<Mechanism> firstDetector() const
    {
        if (detectors.empty())
            return std::nullopt;
        return detectors.front();
    }
};

/** Aggregated counts over a set of trials. */
struct CampaignStats
{
    unsigned trials = 0;
    unsigned detected = 0;
    unsigned noEffect = 0;
    unsigned corrected = 0;
    unsigned due = 0;
    unsigned sdc = 0;      ///< outcome Sdc or SdcMdc
    unsigned mdc = 0;      ///< outcome Mdc or SdcMdc
    unsigned sdcMdcBoth = 0; ///< outcome SdcMdc
    std::map<Mechanism, unsigned> byFirstDetector;

    // In-band recovery depth distribution (RecoveredAfterRetries(n) /
    // RetryExhausted taxonomy, mirrored into bench JSON).
    uint64_t recoveryEpisodes = 0;
    uint64_t recoveryAttempts = 0;
    unsigned recoveredFirstTry = 0;    ///< trials, class FirstTry
    unsigned recoveredAfterRetries = 0; ///< trials, class AfterRetries
    unsigned retryExhausted = 0;       ///< trials, class Exhausted

    void add(const TrialResult &result);

    /** Fold @p other's counts into this aggregate. */
    void merge(const CampaignStats &other);

    /**
     * Checkpoint layout (obs/state.hh): "counts", "recovery" and
     * "detectors N" lines, then one "mechanism count" line each.
     * deserializeState() replaces this aggregate and panics on
     * malformed input.
     */
    template <class Self, class Archive>
    static void
    layout(Self &s, Archive &ar)
    {
        ar.tag("counts")(s.trials, s.detected, s.noEffect, s.corrected, s.due,
                         s.sdc, s.mdc, s.sdcMdcBoth)
            .endl();
        ar.tag("recovery")(s.recoveryEpisodes, s.recoveryAttempts,
                           s.recoveredFirstTry, s.recoveredAfterRetries,
                           s.retryExhausted)
            .endl();
        ar.entries(
            "detectors", s.byFirstDetector,
            [&](auto &mech) {
                ar.below(mech, static_cast<unsigned>(Mechanism::EDecc) + 1);
            },
            [&](auto mech) { return &s.byFirstDetector[mech]; },
            [&](auto &count) { ar(count); });
    }

    std::string serializeState() const { return obs::writeState(*this); }
    void deserializeState(const std::string &s) { obs::restoreState(*this, s); }

    /** Serialize counts and derived fractions as one JSON object. */
    void writeJson(obs::JsonWriter &w) const;

    double detectedFrac() const
    {
        return trials ? static_cast<double>(detected) / trials : 0.0;
    }
    /**
     * Coverage in the Figure 7 sense: an injected error is covered
     * when no silent corruption escaped — it was detected in time,
     * corrected, or provably benign.
     */
    double coveredFrac() const
    {
        if (!trials)
            return 0.0;
        const unsigned harmful = sdc + mdc - sdcMdcBoth;
        return static_cast<double>(trials - harmful) / trials;
    }
    double sdcFrac() const
    {
        return trials ? static_cast<double>(sdc) / trials : 0.0;
    }
    double mdcFrac() const
    {
        return trials ? static_cast<double>(mdc) / trials : 0.0;
    }
};

/**
 * Runs injection trials for one mechanism configuration.
 *
 * Each trial builds a fresh pair of memory systems (faulty + golden),
 * so trials are independent and deterministic given the seed.  All
 * measurement — stats, trace sinks, cost, lineage — arrives through
 * the one setObserver() hookup.
 */
class InjectionCampaign
{
  public:
    /**
     * @param mech Active protection mechanisms.
     * @param seed Base seed for all stochastic model components.
     */
    explicit InjectionCampaign(const Mechanisms &mech,
                               uint64_t seed = 0x1019ECC);

    /**
     * Trials per worker shard in runTrials()/runTrialsCheckpointed().
     * Trials are heavyweight (two full stack runs each), so small
     * shards keep the pool busy at a sweep's tail; never
     * output-affecting (trial seeds derive from (pattern, error,
     * campaign seed) alone).  Public so campaign drivers can convert
     * shard progress to trial counts (heartbeat telemetry).
     */
    static constexpr uint64_t trialShardSize = 4;

    /**
     * Attach the measurement hookup (nullptr detaches).  The campaign
     * reads four things from it:
     *  - stats: trial and classification counters;
     *  - sinks: one Classification trace event per trial;
     *  - lineage: every trial opens a ledger record under its derived
     *    fault ID before the faulty run and resolves it at
     *    classification; with sinks too, the trial also emits the
     *    per-fault stream (FaultInject, the fault's Detections,
     *    FaultResolve) so traces carry inject→observe*→resolve;
     *  - cost: each trial's *faulty* stack runs under a trial-local
     *    observer carrying only the accountant, so the protected run's
     *    command edges, codec work and recovery are billed per level
     *    (obs/cost.hh).
     * The golden stack stays unobserved, so campaign-level stats are
     * not diluted by golden-run traffic.  Sharded runs twin every
     * hookup per shard and merge in shard order, so output is
     * bit-identical for any jobs value.
     */
    void setObserver(obs::Observer *observer);

    /**
     * Recovery-engine knobs for the stacks built inside each trial
     * (attempt budget, backoff, escalation thresholds, patrol).
     */
    void setRecoveryConfig(const RecoveryConfig &config)
    {
        recoveryCfg = config;
    }

    /** Run one trial: inject @p error into @p pattern's target edge. */
    TrialResult runTrial(CommandPattern pattern, const PinError &error);

    /**
     * Run every error of @p errors against @p pattern on @p jobs
     * worker threads (1 = inline; 0 = hardware auto), returning
     * per-error results in input order.
     *
     * Each trial is already deterministic in (pattern, error, seed)
     * alone, so the worker decomposition cannot change any result:
     * output is bit-identical for every jobs value, including the
     * global trial numbering and the order of Classification trace
     * events (shard-local buffers are re-emitted in shard order after
     * the join), and attached stats registries see the same totals.
     */
    std::vector<TrialResult>
    runTrials(CommandPattern pattern, const std::vector<PinError> &errors,
              unsigned jobs = 1);

    /**
     * Checkpointed runTrials() — same shard body and fold, so every
     * fault ID matches: shard batches run from @p checkpoint's
     * nextShard; after each batch folds, @p onResult fires per trial
     * in input order and the checkpoint's commit(begin, end) lets the
     * caller persist.
     *
     * The caller owns resume positioning: on entry the campaign's
     * trial counter must sit at this unit's *start* (skipTrials() has
     * NOT been applied for the completed prefix — fault IDs are
     * derived from the unit-start counter plus the global trial index,
     * which this function reconstructs from nextShard).  On Completed
     * the counter advances past the whole unit; on Interrupted (stop
     * flag) it is left at the unit start, since the process is about
     * to exit anyway.
     */
    RunStatus runTrialsCheckpointed(
        CommandPattern pattern, const std::vector<PinError> &errors,
        unsigned jobs, const obs::ShardCheckpoint &checkpoint,
        const std::function<void(uint64_t, const TrialResult &)> &onResult)
    {
        return runTrialShards(pattern, errors, jobs, onResult, &checkpoint);
    }

    /**
     * Advance the global trial counter by @p n without running trials
     * — resume-time positioning past units that earlier processes
     * completed, keeping every later fault ID identical to an
     * uninterrupted run's.
     */
    void skipTrials(uint64_t n) { trialIndex += n; }

    /** Global trial counter (fault-ID numbering state). */
    uint64_t trialCount() const { return trialIndex; }

    /**
     * The k-pin combination space over this configuration's
     * injectable pins, in combinadic (lexicographic) order — rank r
     * maps to the r'th k-subset the nested sweep loops would visit.
     */
    CombinationSpace kPinSpace(unsigned k) const;

    /** The PinError at @p rank of kPinSpace(@p k). */
    PinError kPinError(unsigned k, uint64_t rank) const;

    /**
     * Full enumeration of every k-pin error for one pattern via
     * combinadic unranking.  Bit-identical to a materialized
     * nested-loop sweep of the same k — the unranked order IS the
     * nested-loop order — and exhaustive by construction: every
     * combination visited exactly once.
     */
    CampaignStats sweepKPinExhaustive(CommandPattern pattern, unsigned k,
                                      unsigned jobs = 1);

    /**
     * All 1-pin errors for one pattern (26/27 pins per PAR presence):
     * sweepKPinExhaustive(@p pattern, 1, @p jobs).
     */
    CampaignStats sweepOnePin(CommandPattern pattern, unsigned jobs = 1);

    /**
     * All 2-pin combinations for one pattern:
     * sweepKPinExhaustive(@p pattern, 2, @p jobs).
     */
    CampaignStats sweepTwoPin(CommandPattern pattern, unsigned jobs = 1);

    /** @p samples all-pin noise trials for one pattern. */
    CampaignStats sweepAllPin(CommandPattern pattern, unsigned samples,
                              unsigned jobs = 1);

    const Mechanisms &mechanisms() const { return mech; }

  private:
    Mechanisms mech;
    uint64_t seed;
    RecoveryConfig recoveryCfg;
    obs::Observer *obsHook = nullptr;
    struct CampaignCounters
    {
        obs::Counter *trials = nullptr;
        obs::Counter *detected = nullptr;
        obs::Counter *byOutcome[6] = {};
        obs::Counter *byFirstDetector[7] = {};
        obs::Counter *recoveredFirstTry = nullptr;
        obs::Counter *recoveredAfterRetries = nullptr;
        obs::Counter *retryExhausted = nullptr;
    };
    CampaignCounters oc;
    uint64_t trialIndex = 0;

    /** runTrials() aggregated, logged as a "@p what sweep". */
    CampaignStats sweep(CommandPattern pattern,
                        const std::vector<PinError> &errors, unsigned jobs,
                        const std::string &what);

    /** The one sharded trial run; plain when @p checkpoint is null. */
    RunStatus runTrialShards(
        CommandPattern pattern, const std::vector<PinError> &errors,
        unsigned jobs,
        const std::function<void(uint64_t, const TrialResult &)> &onResult,
        const obs::ShardCheckpoint *checkpoint);
};

} // namespace aiecc

#endif // AIECC_INJECT_CAMPAIGN_HH
