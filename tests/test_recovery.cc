/**
 * @file
 * Tests for the in-band recovery engine (§IV-G): bounded alert-driven
 * retry through the real controller path, honest exhaustion under
 * intermittent faults, the leaky-bucket escalation ladder, eCAP
 * write-toggle resynchronization, and the patrol scrubber — plus an
 * environment-gated soak loop for the nightly CI job.
 */

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "aiecc/stack.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "inject/campaign.hh"
#include "inject/montecarlo.hh"
#include "obs/observer.hh"
#include "obs/trace.hh"

namespace aiecc
{
namespace
{

BitVec
randomData(Rng &rng)
{
    BitVec d(Burst::dataBits);
    for (size_t i = 0; i < d.size(); ++i)
        d.set(i, rng.chance(0.5));
    return d;
}

StackConfig
aieccConfig()
{
    StackConfig cfg;
    cfg.mech = Mechanisms::forLevel(ProtectionLevel::Aiecc);
    return cfg;
}

/** True if @p sink recorded at least one event of @p kind. */
bool
hasKind(const obs::VectorTraceSink &sink, obs::EventKind kind)
{
    for (const obs::TraceEvent &event : sink.events()) {
        if (event.kind == kind)
            return true;
    }
    return false;
}

// ---------------------------------------------------------------------
// Transient faults: the engine, not a golden-restore replay, carries
// every detected single-edge error back to a corrected state.
// ---------------------------------------------------------------------

TEST(Recovery, TransientOnePinSweepsRecoverInBand)
{
    InjectionCampaign campaign(
        Mechanisms::forLevel(ProtectionLevel::Aiecc));
    uint64_t episodes = 0;
    unsigned recovered = 0;
    for (CommandPattern pattern : allPatterns()) {
        const CampaignStats stats = campaign.sweepOnePin(pattern);
        EXPECT_EQ(stats.coveredFrac(), 1.0)
            << patternName(pattern) << " leaked silent corruption";
        EXPECT_EQ(stats.sdc, 0u) << patternName(pattern);
        EXPECT_EQ(stats.mdc, 0u) << patternName(pattern);
        episodes += stats.recoveryEpisodes;
        recovered += stats.recoveredFirstTry + stats.recoveredAfterRetries;
    }
    // The sweeps flag plenty of errors; recovery must actually run.
    EXPECT_GT(episodes, 0u);
    EXPECT_GT(recovered, 0u);
}

// ---------------------------------------------------------------------
// Intermittent faults: a corruptor that outlives the retry window
// exhausts the attempt budget deterministically.
// ---------------------------------------------------------------------

TEST(Recovery, IntermittentFaultExhaustsRetryBudget)
{
    InjectionCampaign campaign(
        Mechanisms::forLevel(ProtectionLevel::Aiecc));
    // A3 stays flipped for 40 edges: the WR is blocked by eWCRC and
    // every replay edge re-corrupts, so the episode must run out.
    const TrialResult tr =
        campaign.runTrial(CommandPattern::Wr,
                          PinError::intermittent(Pin::A3, 40));
    EXPECT_TRUE(tr.detected);
    EXPECT_TRUE(tr.retryExhausted);
    EXPECT_EQ(tr.recovery, RecoveryClass::Exhausted);
    EXPECT_GT(tr.recoveryEpisodes, 0u);
    EXPECT_GE(tr.recoveryAttempts, 3u);
    // Nothing silent: the fault surfaces as a detected residual.
    EXPECT_NE(tr.outcome, Outcome::Sdc);
    EXPECT_NE(tr.outcome, Outcome::Mdc);
    EXPECT_NE(tr.outcome, Outcome::SdcMdc);

    // Determinism: the same trial reproduces the same record.
    InjectionCampaign again(
        Mechanisms::forLevel(ProtectionLevel::Aiecc));
    const TrialResult tr2 =
        again.runTrial(CommandPattern::Wr,
                       PinError::intermittent(Pin::A3, 40));
    EXPECT_EQ(tr2.outcome, tr.outcome);
    EXPECT_EQ(tr2.recoveryEpisodes, tr.recoveryEpisodes);
    EXPECT_EQ(tr2.recoveryAttempts, tr.recoveryAttempts);
}

TEST(Recovery, TransientVersusIntermittentTaxonomy)
{
    // The same pin transitions from recovered to exhausted purely by
    // how long the fault persists — the attempt bound decides.
    InjectionCampaign campaign(
        Mechanisms::forLevel(ProtectionLevel::Aiecc));
    const TrialResult transient =
        campaign.runTrial(CommandPattern::Wr, PinError::onePin(Pin::A3));
    EXPECT_TRUE(transient.detected);
    EXPECT_FALSE(transient.retryExhausted);
    EXPECT_TRUE(transient.recovery == RecoveryClass::FirstTry ||
                transient.recovery == RecoveryClass::AfterRetries);
    EXPECT_EQ(transient.outcome, Outcome::Corrected);
}

// ---------------------------------------------------------------------
// Escalation ladder: repeated exhaustion quarantines the bank and,
// past the threshold, degrades the rank.
// ---------------------------------------------------------------------

TEST(Recovery, QuarantineAndRankDegradeEscalation)
{
    StackConfig cfg = aieccConfig();
    cfg.recovery.bucketCapacity = 1;
    cfg.recovery.rankDegradeBanks = 1;
    cfg.recovery.backoffCycles = 1;
    ProtectionStack stack(cfg);
    Rng rng(0xE5CA1);
    const MtbAddress addr{0, 0, 0, 7, 2};
    stack.write(addr, randomData(rng));

    // A persistent A3 fault: every command edge is corrupted, so each
    // episode fails all its attempts and charges the bank's bucket.
    stack.setPinCorruptor([](uint64_t, PinWord &pins) {
        pins.flip(Pin::A3);
    });
    for (int i = 0; i < 4; ++i)
        stack.write(addr, randomData(rng));
    stack.setPinCorruptor({});

    const RecoveryStats &stats = stack.recoveryStats();
    EXPECT_GT(stats.exhausted, 0u);
    EXPECT_GT(stats.quarantines, 0u);
    EXPECT_TRUE(stack.recovery().quarantined(addr.flatBank(stack.geometry())));
    EXPECT_GE(stack.recovery().quarantinedBanks(), 1u);
    EXPECT_TRUE(stack.recovery().rankDegraded());
    EXPECT_GT(stats.rankDegrades, 0u);
}

// ---------------------------------------------------------------------
// eCAP write-toggle resynchronization: a lost WR is detected on the
// next edge and the engine replays it from the controller's buffer.
// ---------------------------------------------------------------------

TEST(Recovery, WrtResyncReplaysLostWrite)
{
    ProtectionStack stack(aieccConfig());
    Rng rng(0x14EC);
    const MtbAddress addr{0, 0, 0, 7, 2};
    stack.write(addr, randomData(rng));

    // Deselect the next WR in flight: a missing write (§IV-D).
    const BitVec fresh = randomData(rng);
    const uint64_t next = stack.controller().commandsIssued();
    stack.setPinCorruptor([next](uint64_t idx, PinWord &pins) {
        if (idx == next)
            pins.flip(Pin::CS);
    });
    stack.write(addr, fresh);
    stack.setPinCorruptor({});

    // The toggle mismatch surfaces on the next edge; the engine must
    // resync and replay the buffered write as part of recovery.
    stack.issueNop();
    const RecoveryStats &stats = stack.recoveryStats();
    EXPECT_GT(stats.episodes, 0u);
    EXPECT_GT(stats.wrtResyncs, 0u);
    EXPECT_GT(stats.recovered, 0u);
    EXPECT_EQ(stats.exhausted, 0u);
    EXPECT_EQ(stack.controller().wrtBit(), stack.rank().wrtBit());

    // The replayed write actually landed.
    stack.clearDetections();
    const auto out = stack.read(addr);
    EXPECT_FALSE(out.due);
    EXPECT_EQ(out.data, fresh);
    EXPECT_TRUE(stack.detections().empty());
}

// ---------------------------------------------------------------------
// Patrol scrubbing: accumulated transient storage flips are read,
// corrected, and written back before they can pile up.
// ---------------------------------------------------------------------

TEST(Recovery, PatrolScrubRemovesAccumulatedFlips)
{
    StackConfig cfg;
    cfg.mech = Mechanisms::forLevel(ProtectionLevel::Ddr4Decc);
    cfg.recovery.patrolPeriod = 1; // patrol one block per access
    ProtectionStack stack(cfg);
    Rng rng(0x5C2B);

    std::vector<MtbAddress> addrs = {{0, 0, 0, 7, 2},
                                     {0, 1, 0, 7, 2},
                                     {0, 2, 1, 9, 3},
                                     {0, 3, 2, 11, 4}};
    for (const auto &a : addrs)
        stack.write(a, randomData(rng));
    std::vector<Burst> pristine;
    for (const auto &a : addrs)
        pristine.push_back(stack.rank().peek(a));

    // Accumulate one transient flip in three different blocks.
    for (size_t i = 1; i < addrs.size(); ++i) {
        Burst b = stack.rank().peek(addrs[i]);
        b.setBit(0, 0, !b.getBit(0, 0));
        stack.rank().poke(addrs[i], b);
    }

    // Drive clean accesses; the patrol walks the stored blocks
    // round-robin and scrubs what it corrects.
    for (int i = 0; i < 12; ++i)
        stack.read(addrs[0]);

    const RecoveryStats &stats = stack.recoveryStats();
    EXPECT_GE(stats.patrolReads, addrs.size());
    EXPECT_GE(stats.patrolScrubs, 3u);
    for (size_t i = 0; i < addrs.size(); ++i) {
        EXPECT_EQ(stack.rank().peek(addrs[i]), pristine[i])
            << "block " << i << " not restored";
    }
}

// ---------------------------------------------------------------------
// Observability: engine activity lands in stack.recovery.* counters
// and the structured trace stream.
// ---------------------------------------------------------------------

TEST(Recovery, CountersAndTraceEventsFlow)
{
    obs::StatsRegistry reg;
    obs::VectorTraceSink sink;
    obs::Observer observer(&reg);
    observer.addSink(&sink);

    StackConfig cfg = aieccConfig();
    cfg.observer = &observer;
    ProtectionStack stack(cfg);
    Rng rng(0x0B5E);
    const MtbAddress addr{0, 0, 0, 7, 2};
    stack.write(addr, randomData(rng));

    const uint64_t next = stack.controller().commandsIssued();
    stack.setPinCorruptor([next](uint64_t idx, PinWord &pins) {
        if (idx == next)
            pins.flip(Pin::CS);
    });
    stack.write(addr, randomData(rng));
    stack.setPinCorruptor({});
    stack.issueNop();

    EXPECT_GE(reg.counterValue("stack.recovery.episodes"), 1u);
    EXPECT_GE(reg.counterValue("stack.recovery.recovered"), 1u);
    EXPECT_GE(reg.counterValue("stack.recovery.wrt_resyncs"), 1u);
    EXPECT_EQ(reg.counterValue("stack.recovery.exhausted"), 0u);
    EXPECT_TRUE(hasKind(sink, obs::EventKind::Retry));
    EXPECT_TRUE(hasKind(sink, obs::EventKind::Recovery));
}

TEST(Recovery, EscalationAndPatrolEventsFlow)
{
    obs::StatsRegistry reg;
    obs::VectorTraceSink sink;
    obs::Observer observer(&reg);
    observer.addSink(&sink);

    StackConfig cfg = aieccConfig();
    cfg.observer = &observer;
    cfg.recovery.bucketCapacity = 1;
    cfg.recovery.rankDegradeBanks = 1;
    cfg.recovery.backoffCycles = 1;
    cfg.recovery.patrolPeriod = 4;
    ProtectionStack stack(cfg);
    Rng rng(0xE5CB);
    const MtbAddress addr{0, 0, 0, 7, 2};
    stack.write(addr, randomData(rng));

    stack.setPinCorruptor([](uint64_t, PinWord &pins) {
        pins.flip(Pin::A3);
    });
    for (int i = 0; i < 4; ++i)
        stack.write(addr, randomData(rng));
    stack.setPinCorruptor({});

    // Leave a correctable flip in storage for the patrol to find.
    const MtbAddress clean{0, 1, 1, 9, 3};
    stack.write(clean, randomData(rng));
    Burst b = stack.rank().peek(addr);
    b.setBit(0, 0, !b.getBit(0, 0));
    stack.rank().poke(addr, b);
    for (int i = 0; i < 12; ++i)
        stack.read(clean);

    EXPECT_GE(reg.counterValue("stack.recovery.quarantines"), 1u);
    EXPECT_GE(reg.counterValue("stack.recovery.rank_degrades"), 1u);
    EXPECT_TRUE(hasKind(sink, obs::EventKind::Escalation));
    EXPECT_TRUE(hasKind(sink, obs::EventKind::PatrolScrub));
}

// ---------------------------------------------------------------------
// Monte-Carlo retry: a persistent address fault burns the re-read
// budget instead of being optimistically classified as corrected.
// ---------------------------------------------------------------------

TEST(Recovery, MonteCarloPersistentAddressFaultExhausts)
{
    DataMonteCarlo transientMc(EccScheme::EDeccQpc, 0x7AB1E3);
    const MonteCarloCell transientCell = transientMc.runCell(
        DataErrorModel::None, AddrErrorModel::Bit1, 200);
    // Transient faults retry clean: CE-R+ dominates, no DUEs.
    EXPECT_GT(transientCell.count(DataOutcome::CeRPlus) +
                  transientCell.count(DataOutcome::CeR),
              0u);

    DataMonteCarlo persistentMc(EccScheme::EDeccQpc, 0x7AB1E3);
    persistentMc.setRetryPolicy({3, 1.0}); // the fault never clears
    const MonteCarloCell persistentCell = persistentMc.runCell(
        DataErrorModel::None, AddrErrorModel::Bit1, 200);
    EXPECT_EQ(persistentCell.count(DataOutcome::CeR), 0u);
    EXPECT_EQ(persistentCell.count(DataOutcome::CeRPlus), 0u);
    // Every detected address error exhausts into a DUE.
    EXPECT_EQ(persistentCell.count(DataOutcome::Due),
              persistentCell.trials -
                  persistentCell.count(DataOutcome::NoError) -
                  persistentCell.count(DataOutcome::Sdc));
}

// ---------------------------------------------------------------------
// Soak loop (nightly CI): random intermittent faults must never
// produce silent corruption under AIECC.  Iterations default low for
// interactive runs; the nightly job raises AIECC_RECOVERY_SOAK_ITERS,
// may parallelize with AIECC_RECOVERY_SOAK_JOBS (iteration i draws
// its parameters from Rng::forStream(0x50AC, i), so the chosen faults
// — and the aggregate counters — are identical for any job count),
// and may set AIECC_RECOVERY_SOAK_TRACE to capture a JSONL trace.
// ---------------------------------------------------------------------

TEST(Recovery, SoakIntermittentFaultsNeverSilent)
{
    unsigned iters = 2;
    if (const char *env = std::getenv("AIECC_RECOVERY_SOAK_ITERS"))
        iters = static_cast<unsigned>(std::strtoul(env, nullptr, 10));
    unsigned jobs = 1;
    if (const char *env = std::getenv("AIECC_RECOVERY_SOAK_JOBS"))
        jobs = static_cast<unsigned>(std::strtoul(env, nullptr, 10));

    obs::StatsRegistry reg;
    obs::Observer observer(&reg);
    std::unique_ptr<obs::JsonlTraceSink> jsonl;
    if (const char *path = std::getenv("AIECC_RECOVERY_SOAK_TRACE")) {
        jsonl = std::make_unique<obs::JsonlTraceSink>(path);
        observer.addSink(jsonl.get());
    }

    const Mechanisms mech = Mechanisms::forLevel(ProtectionLevel::Aiecc);
    const auto pins = injectablePins(mech.parPinPresent());
    const auto patterns = allPatterns();

    // Fixed-size shards, each with its own registry and trace buffer;
    // gtest assertions are not thread-safe, so workers only record
    // failure descriptions and the owner reports them after the join.
    constexpr uint64_t shardSize = 16;
    const uint64_t shards = shardCount(iters, shardSize);
    std::vector<std::unique_ptr<obs::StatsRegistry>> shardStats(shards);
    std::vector<std::unique_ptr<obs::VectorTraceSink>> shardTraces(shards);
    std::vector<std::vector<std::string>> shardFailures(shards);
    std::vector<unsigned> shardExhausted(shards, 0);

    runShards(shards, jobs, [&](uint64_t shard) {
        shardStats[shard] = std::make_unique<obs::StatsRegistry>();
        const uint64_t n = shardLength(iters, shardSize, shard);
        shardTraces[shard] = std::make_unique<obs::VectorTraceSink>();
        obs::Observer shardObs(shardStats[shard].get());
        shardObs.addSink(shardTraces[shard].get());
        const uint64_t base = shard * shardSize;
        for (uint64_t k = 0; k < n; ++k) {
            const uint64_t i = base + k;
            // Per-iteration stream: the drawn fault depends only on i,
            // never on which worker ran the neighbouring iterations.
            Rng rng = Rng::forStream(0x50AC, i);
            InjectionCampaign campaign(mech, 0x1019ECC + i);
            campaign.setObserver(&shardObs);
            const CommandPattern pattern =
                patterns[rng.below(patterns.size())];
            const Pin pin = pins[rng.below(pins.size())];
            const unsigned persistence =
                2 + static_cast<unsigned>(rng.below(29));
            const TrialResult tr = campaign.runTrial(
                pattern, PinError::intermittent(pin, persistence));
            if (tr.outcome == Outcome::Sdc ||
                tr.outcome == Outcome::Mdc ||
                tr.outcome == Outcome::SdcMdc) {
                shardFailures[shard].push_back(
                    std::string(outcomeName(tr.outcome)) + " on " +
                    patternName(pattern) + " " + pinName(pin) + " x" +
                    std::to_string(persistence));
            }
            if (tr.retryExhausted)
                ++shardExhausted[shard];
        }
    });

    // Shard-order merge: same totals and trace stream for any jobs.
    unsigned exhausted = 0;
    for (uint64_t shard = 0; shard < shards; ++shard) {
        for (const std::string &failure : shardFailures[shard])
            ADD_FAILURE() << "silent corruption escaped: " << failure;
        reg.merge(*shardStats[shard]);
        for (const auto &event : shardTraces[shard]->events())
            if (jsonl)
                jsonl->record(event);
        exhausted += shardExhausted[shard];
    }
    if (jsonl)
        observer.flush();
    // Sanity on the aggregate: the campaign counters saw every trial.
    EXPECT_EQ(reg.counterValue("campaign.trials"), iters);
    EXPECT_EQ(reg.counterValue("campaign.recovery.exhausted"), exhausted);
}

} // namespace
} // namespace aiecc
