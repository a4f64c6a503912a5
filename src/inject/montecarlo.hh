/**
 * @file
 * Monte-Carlo data/address error injection for the data-reliability
 * comparison of Table III (Section V-B).
 *
 * Each trial encodes a random payload under a random write address,
 * injects a data-error pattern (none / 1 bit / 1 chip / 1 rank) into
 * the stored burst and an address-error pattern (none / 1 bit / 32
 * bits) into the read address, decodes, and classifies the outcome
 * using the paper's terminology: SDC, CE-D (data-ECC correction),
 * CE-R / CE-R+ (retry after detection, + = precise diagnosis), CE-RD /
 * CE-RD+ (retry plus data correction), and DUE.
 */

#ifndef AIECC_INJECT_MONTECARLO_HH
#define AIECC_INJECT_MONTECARLO_HH

#include <cstdint>
#include <functional>
#include <string>

#include "aiecc/mechanisms.hh"
#include "common/checkpoint.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "obs/json.hh"
#include "obs/lineage.hh"
#include "obs/observer.hh"
#include "obs/shard_run.hh"
#include "obs/state.hh"

namespace aiecc
{

/** Data-error patterns of Table III. */
enum class DataErrorModel
{
    None,
    Bit1,   ///< one random transferred bit flips
    Chip1,  ///< one x4 chip drives arbitrary values (32 bits)
    Rank1,  ///< the whole rank drives arbitrary values
};

/** Address-error patterns of Table III. */
enum class AddrErrorModel
{
    None,
    Bit1,   ///< one random MTB-address bit flips
    Bits32, ///< the read address is fully random
};

std::string dataErrorName(DataErrorModel model);
std::string addrErrorName(AddrErrorModel model);

/** Outcome classes of Table III. */
enum class DataOutcome
{
    NoError,  ///< nothing happened, nothing reported
    Sdc,      ///< wrong data (or wrong location) consumed silently
    CeD,      ///< corrected by data ECC
    CeR,      ///< retry after a detected address error
    CeRPlus,  ///< retry with precise address diagnosis
    CeRD,     ///< retry + data correction
    CeRDPlus, ///< retry + data correction, precise diagnosis
    Due,      ///< detected uncorrectable
};

std::string dataOutcomeName(DataOutcome outcome);

/** Bounded command-retry policy applied after a detected error. */
struct RetryPolicy
{
    /** Re-read attempts before the detection surfaces as a DUE. */
    unsigned maxAttempts = 3;

    /**
     * Probability that the address error persists into a given retry
     * (an intermittent fault re-corrupting the re-transmitted
     * address); 0 models the paper's transient transmission error.
     */
    double persistProb = 0.0;
};

/** Aggregated Monte-Carlo results for one (scheme, cell) pair. */
struct MonteCarloCell
{
    uint64_t trials = 0;
    uint64_t counts[8] = {};

    void
    add(DataOutcome outcome)
    {
        ++trials;
        ++counts[static_cast<unsigned>(outcome)];
    }

    uint64_t
    count(DataOutcome outcome) const
    {
        return counts[static_cast<unsigned>(outcome)];
    }

    double
    frac(DataOutcome outcome) const
    {
        return trials ? static_cast<double>(count(outcome)) / trials
                      : 0.0;
    }

    /** SDC fraction (the headline number of Table III). */
    double sdcFrac() const { return frac(DataOutcome::Sdc); }

    /** The most frequent non-SDC outcome (the cell's label). */
    DataOutcome dominant() const;

    /** Fold @p other's trials and per-outcome counts into this cell. */
    void
    merge(const MonteCarloCell &other)
    {
        trials += other.trials;
        for (unsigned i = 0; i < 8; ++i)
            counts[i] += other.counts[i];
    }

    /** Serialize trial count and per-outcome counts as JSON. */
    void writeJson(obs::JsonWriter &w) const;

    /**
     * Checkpoint layout (obs/state.hh): "trials T counts c0..c7".
     * deserializeState() replaces this cell and panics on malformed
     * input.
     */
    template <class Self, class Archive>
    static void
    layout(Self &cell, Archive &ar)
    {
        ar.tag("trials")(cell.trials).tag("counts");
        for (auto &n : cell.counts)
            ar(n);
        ar.endl();
    }

    std::string serializeState() const { return obs::writeState(*this); }
    void deserializeState(const std::string &s) { obs::restoreState(*this, s); }
};

/** Stat-name-safe outcome slug ("CE-R+" -> "ce_r_plus"). */
const char *dataOutcomeSlug(DataOutcome outcome);

/**
 * Monte-Carlo evaluator for one ECC scheme.
 */
class DataMonteCarlo
{
  public:
    /**
     * @param scheme The data-ECC organization under test.
     * @param seed Base RNG seed.
     */
    explicit DataMonteCarlo(EccScheme scheme, uint64_t seed = 0x7AB1E3);

    /**
     * Attach the measurement hookup (nullptr detaches): per-outcome
     * trial counters under "montecarlo.".  With a trace sink attached
     * (observer->tracing()), every *flagged* trial also emits its
     * symptom stream — a Detection tagged "data-ecc" (so RAS health
     * monitors classify it as a data-path symptom), one Retry per
     * re-read attempt, and a Recovery exhaustion when the retry
     * budget runs dry — with the cell-global trial index standing in
     * for the cycle (the only timeline a Monte-Carlo has).  Sharded
     * runs buffer events per shard and re-emit them in shard order,
     * so the stream is bit-identical for any jobs value.
     */
    void setObserver(obs::Observer *observer);

    /** Replace the retry policy (attempt bound, persistence). */
    void setRetryPolicy(const RetryPolicy &policy) { retry = policy; }

    const RetryPolicy &retryPolicy() const { return retry; }

    /**
     * Attach a fault-lineage ledger (nullptr detaches).  runCell and
     * runCellSharded then open and resolve one record per trial that
     * injects anything (the no-error/no-error cell stays out of the
     * ledger — nothing is injected there).  Fault IDs derive from the
     * scheme, the (data, addr) cell, and the trial's index within the
     * cell, so each Table III cell may be run once per ledger; a
     * repeat run trips the duplicate-injection panic by design.
     */
    void setLineageLedger(obs::LineageLedger *lineage)
    {
        ledger = lineage;
    }

    /**
     * One trial's full record: the classification, the re-read
     * attempts its retry episode spent (0 when no retry ran), and the
     * read address the decode consumed — the address evidence a RAS
     * monitor riding the controller would log with the symptom.
     */
    struct TrialDetail
    {
        DataOutcome outcome = DataOutcome::NoError;
        unsigned attempts = 0;
        uint32_t addr = 0;
    };

    /** Run one sampled trial: its classification and retry depth. */
    TrialDetail runTrialDetailed(DataErrorModel dataErr,
                                 AddrErrorModel addrErr);

    /** Run @p trials trials of one Table III cell. */
    MonteCarloCell runCell(DataErrorModel dataErr, AddrErrorModel addrErr,
                           uint64_t trials);

    /**
     * Run one Table III cell in fixed-size shards, each on its own ECC
     * instance and RNG stream (Rng::forStream(cellSeed, shard)), on
     * @p plan.jobs workers, folded with every attached hookup in
     * shard order — bit-identical for any jobs value (but a different,
     * equally valid sample than the sequential runCell draw).
     */
    MonteCarloCell runCellSharded(DataErrorModel dataErr,
                                  AddrErrorModel addrErr, uint64_t trials,
                                  const ShardPlan &plan = ShardPlan());

    /**
     * Size of the exhaustive error-position space for one Table III
     * cell, or 0 when the cell is not enumerable.  The enumerable
     * axes are the deterministic single-flip models — data Bit1 (one
     * of numPins × numBeats transferred bits) and address Bit1 (one
     * of 32 address bits); Chip1/Rank1/Bits32 draw whole random words
     * and have no finite position space.  A None axis contributes
     * factor 1, and None/None (nothing injected) reports 0.
     */
    static uint64_t cellSpaceSize(DataErrorModel dataErr,
                                  AddrErrorModel addrErr);

    /**
     * Run one trial with the error *position* fixed by @p position
     * (mixed-radix over the cell space: data position varies fastest)
     * instead of drawn from the RNG.  Payload and write address still
     * come from the evaluator's RNG — exhaustive mode enumerates
     * where the error lands, not what data it lands on.
     */
    TrialDetail runTrialAt(DataErrorModel dataErr, AddrErrorModel addrErr,
                           uint64_t position);

    /**
     * Full enumeration of one enumerable Table III cell: every error
     * position visited exactly once, sharded like runCellSharded().
     * Lineage fault IDs use a stream tag distinct from the sampled
     * runs', so one ledger can carry both without ID collisions.
     */
    MonteCarloCell runCellExhaustive(DataErrorModel dataErr,
                                     AddrErrorModel addrErr,
                                     const ShardPlan &plan = ShardPlan());

    /**
     * Checkpointed cell run (sampled or exhaustive): the shards run in
     * batches from @p nextShard, each batch folding into @p cell and
     * the attached hookups before @p commit(begin, end) persists.
     * runCellSharded()/runCellExhaustive() are the plain form — same
     * shard body, same fold — so a run resumed any number of times
     * merges to the same bits as an uninterrupted one.
     */
    RunStatus runCellCheckpointed(
        DataErrorModel dataErr, AddrErrorModel addrErr, uint64_t trials,
        bool exhaustive, const ShardPlan &plan, uint64_t batchShards,
        uint64_t &nextShard, MonteCarloCell &cell,
        const std::function<void(uint64_t, uint64_t)> &commit);

    const DataEcc &codec() const { return *ecc; }

  private:
    EccScheme schemeKind;
    uint64_t baseSeed;
    obs::Observer *obsHandle = nullptr;
    std::unique_ptr<DataEcc> ecc;
    Rng rng;
    RetryPolicy retry;
    struct McCounters
    {
        obs::Counter *trials = nullptr;
        obs::Counter *byOutcome[8] = {};
        obs::Counter *retryAttempts = nullptr;
        obs::Counter *retryExhausted = nullptr;
    };
    McCounters oc;
    obs::LineageLedger *ledger = nullptr;

    /** Fixed error coordinates for exhaustive-mode trials. */
    struct ErrorCoords
    {
        unsigned dataPos = 0;
        unsigned addrPos = 0;
    };

    /** The one sharded cell run; plain when @p checkpoint is null. */
    RunStatus runShardedCell(DataErrorModel dataErr,
                             AddrErrorModel addrErr, uint64_t trials,
                             bool exhaustive, const ShardPlan &plan,
                             MonteCarloCell &cell,
                             const obs::ShardCheckpoint *checkpoint);

    /** The one trial body; @p coords null = sampled positions. */
    TrialDetail runTrialImpl(DataErrorModel dataErr,
                             AddrErrorModel addrErr,
                             const ErrorCoords *coords);

    /**
     * Open-and-resolve one trial's lineage record into @p led.
     * Exhaustive runs tag the fault-ID stream so they never collide
     * with a sampled run of the same cell in one ledger.
     */
    void recordLineage(obs::LineageLedger &led, DataErrorModel dataErr,
                       AddrErrorModel addrErr, uint64_t trial,
                       const TrialDetail &detail,
                       bool exhaustive = false) const;

    /**
     * Emit one flagged trial's symptom events into @p to (no-op when
     * nothing was flagged or @p to has no sinks); @p trial is the
     * cell-global index, used as the event cycle.
     */
    void emitTrialEvents(obs::Observer &to, uint64_t trial,
                         const TrialDetail &detail) const;
};

} // namespace aiecc

#endif // AIECC_INJECT_MONTECARLO_HH
