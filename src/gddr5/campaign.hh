/**
 * @file
 * A compact CCCA fault-injection campaign for the GDDR5 adaptation
 * (Section VI): golden-vs-faulty dual simulation, 1-pin and all-pin
 * errors on the 21 injectable CA pins, outcome classification shared
 * with the DDR4 campaign.
 */

#ifndef AIECC_GDDR5_CAMPAIGN_HH
#define AIECC_GDDR5_CAMPAIGN_HH

#include "gddr5/system.hh"
#include "inject/campaign.hh" // Outcome / outcomeName reuse
#include "obs/lineage.hh"
#include "obs/shard_run.hh"
#include "obs/state.hh"

namespace aiecc
{
namespace gddr5
{

/** Command patterns mirroring the DDR4 campaign's five. */
enum class Pattern
{
    ActWr,
    ActRd,
    Wr,
    Rd,
    Pre,
};

std::vector<Pattern> allGddr5Patterns();
std::string gddr5PatternName(Pattern pattern);

/** Error spec: flip a set of pins, or randomize all (clock noise). */
struct Gddr5Error
{
    std::vector<Pin> flips;
    bool allPin = false;
    uint64_t noiseSeed = 0;

    static Gddr5Error onePin(Pin pin) { return {{pin}, false, 0}; }
    static Gddr5Error allPins(uint64_t seed) { return {{}, true, seed}; }
};

/** Injectable pins (CKE..A0; no PAR exists on GDDR5). */
std::vector<Pin> gddr5InjectablePins();

/** One trial's result. */
struct Gddr5Trial
{
    Outcome outcome = Outcome::NoEffect;
    bool detected = false;
    std::vector<Detector> detectors;
};

/** Aggregate counts. */
struct Gddr5Stats
{
    unsigned trials = 0, detected = 0, noEffect = 0, corrected = 0,
             due = 0, sdc = 0, mdc = 0, both = 0;

    void add(const Gddr5Trial &trial);

    /** Fold @p other's counts into this aggregate. */
    void merge(const Gddr5Stats &other);

    /**
     * Checkpoint layout (obs/state.hh): one "counts" line.
     * deserializeState() replaces this aggregate and panics on
     * malformed input.
     */
    template <class Self, class Archive>
    static void
    layout(Self &s, Archive &ar)
    {
        ar.tag("counts")(s.trials, s.detected, s.noEffect, s.corrected, s.due,
                         s.sdc, s.mdc, s.both)
            .endl();
    }

    std::string serializeState() const { return obs::writeState(*this); }
    void deserializeState(const std::string &s) { obs::restoreState(*this, s); }

    double
    coveredFrac() const
    {
        if (!trials)
            return 0;
        return static_cast<double>(trials - (sdc + mdc - both)) /
               trials;
    }
};

/** Campaign runner for one protection configuration. */
class Gddr5Campaign
{
  public:
    explicit Gddr5Campaign(const Protection &prot,
                           uint64_t seed = 0x6CA4);

    /**
     * Trials per worker shard in runTrials()/runTrialsCheckpointed();
     * never output-affecting (trials are pure in (prot, seed,
     * pattern, error)).  Public so campaign drivers can convert shard
     * progress to trial counts (heartbeat telemetry).
     */
    static constexpr uint64_t trialShardSize = 4;

    /**
     * Trials read only the immutable (prot, seed) configuration, so
     * runTrial is const and safe to call from concurrent shards.
     */
    Gddr5Trial runTrial(Pattern pattern, const Gddr5Error &error) const;

    /**
     * Run @p errors against @p pattern on @p jobs threads (1 =
     * inline, 0 = hardware auto); results come back in input order
     * and are bit-identical for every jobs value.
     */
    std::vector<Gddr5Trial>
    runTrials(Pattern pattern, const std::vector<Gddr5Error> &errors,
              unsigned jobs = 1) const;

    Gddr5Stats sweepOnePin(Pattern pattern, unsigned jobs = 1) const;
    Gddr5Stats sweepAllPin(Pattern pattern, unsigned samples,
                           unsigned jobs = 1) const;

    /**
     * Checkpointed runTrials() — same shard body and fold, so every
     * fault ID matches: shard batches run from @p nextShard; after
     * each batch folds, @p onResult fires per trial in input order
     * and @p commit(begin, end) lets the caller persist.  The caller owns
     * resume positioning: on entry the trial counter must sit at this
     * unit's start (see advanceTrials()); on Completed it advances
     * past the unit.
     */
    RunStatus runTrialsCheckpointed(
        Pattern pattern, const std::vector<Gddr5Error> &errors,
        unsigned jobs, uint64_t batchShards, uint64_t &nextShard,
        const std::function<void(uint64_t, const Gddr5Trial &)> &onResult,
        const std::function<void(uint64_t, uint64_t)> &commit) const;

    /**
     * Advance the global trial counter by @p n without running trials
     * — resume-time positioning past units completed by an earlier
     * process, keeping later fault IDs identical.
     */
    void advanceTrials(uint64_t n) const { trialCounter += n; }

    /** Global trial counter (fault-ID numbering state). */
    uint64_t trialCount() const { return trialCounter; }

    /**
     * Attach a fault-lineage ledger (nullptr detaches).  Trials stay
     * pure; the lineage bookkeeping happens in runTrials(), which
     * derives each fault's ID from the campaign-global trial index
     * (the counter at the call plus the trial's input index) and records
     * injection + terminal resolution per trial, merged in shard
     * order — so ledgers are bit-identical for every jobs value.
     * Direct runTrial() calls bypass the ledger by design.
     */
    void setLineageLedger(obs::LineageLedger *lineage)
    {
        ledger = lineage;
    }

  private:
    Protection prot;
    uint64_t seed;
    obs::LineageLedger *ledger = nullptr;
    /** Campaign-global trial numbering for lineage fault IDs. */
    mutable uint64_t trialCounter = 0;

    /** The one sharded trial run; plain when @p checkpoint is null. */
    RunStatus runTrialShards(
        Pattern pattern, const std::vector<Gddr5Error> &errors,
        unsigned jobs,
        const std::function<void(uint64_t, const Gddr5Trial &)> &onResult,
        const obs::ShardCheckpoint *checkpoint) const;
};

} // namespace gddr5
} // namespace aiecc

#endif // AIECC_GDDR5_CAMPAIGN_HH
