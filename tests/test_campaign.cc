/**
 * @file
 * Integration tests for the fault-injection campaign: the Table II
 * outcome grid (no protection), the Figure 7 coverage claims per
 * protection level, and the Figure 8 component attribution.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "inject/campaign.hh"
#include "obs/observer.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"

namespace aiecc
{
namespace
{

Mechanisms
level(ProtectionLevel l)
{
    return Mechanisms::forLevel(l);
}

TEST(CampaignTableII, WrDontCarePinsManifestNoError)
{
    // Table II WR row: A11, A13 and A17 do not participate.
    InjectionCampaign camp(level(ProtectionLevel::None));
    for (Pin p : {Pin::A11, Pin::A13, Pin::A17}) {
        const auto r = camp.runTrial(CommandPattern::Wr,
                                     PinError::onePin(p));
        EXPECT_EQ(r.outcome, Outcome::NoEffect) << pinName(p);
        EXPECT_FALSE(r.detected);
    }
}

TEST(CampaignTableII, RdDontCarePinsManifestNoError)
{
    InjectionCampaign camp(level(ProtectionLevel::None));
    for (Pin p : {Pin::A11, Pin::A13, Pin::A17}) {
        const auto r = camp.runTrial(CommandPattern::Rd,
                                     PinError::onePin(p));
        EXPECT_EQ(r.outcome, Outcome::NoEffect) << pinName(p);
    }
}

TEST(CampaignTableII, PreFourteenPinsManifestNoError)
{
    // Table II PRE row: A17, A13..A11, A9..A0 manifest no error.
    InjectionCampaign camp(level(ProtectionLevel::None));
    const Pin unused[] = {Pin::A17, Pin::A13, Pin::A12_BC, Pin::A11,
                          Pin::A9, Pin::A8, Pin::A7, Pin::A6, Pin::A5,
                          Pin::A4, Pin::A3, Pin::A2, Pin::A1, Pin::A0};
    for (Pin p : unused) {
        const auto r = camp.runTrial(CommandPattern::Pre,
                                     PinError::onePin(p));
        EXPECT_EQ(r.outcome, Outcome::NoEffect) << pinName(p);
    }
}

TEST(CampaignTableII, ActErrorsAreSdcPlusMdcWhenFollowedByWrite)
{
    // Table II: any undetected ACT error followed by WR causes
    // SDC+MDC (the write lands in the wrong row or is dropped).
    InjectionCampaign camp(level(ProtectionLevel::None));
    for (Pin p : {Pin::A0, Pin::A5, Pin::A17, Pin::RAS_A16, Pin::CS,
                  Pin::CKE, Pin::BA0, Pin::BG1}) {
        const auto r = camp.runTrial(CommandPattern::ActWr,
                                     PinError::onePin(p));
        EXPECT_EQ(r.outcome, Outcome::SdcMdc) << pinName(p);
    }
}

TEST(CampaignTableII, ActReadErrorsAreSdcOnly)
{
    // A wrong activation followed by a read corrupts nothing: SDC.
    InjectionCampaign camp(level(ProtectionLevel::None));
    for (Pin p : {Pin::A0, Pin::A9, Pin::CS, Pin::CKE}) {
        const auto r = camp.runTrial(CommandPattern::ActRd,
                                     PinError::onePin(p));
        EXPECT_EQ(r.outcome, Outcome::Sdc) << pinName(p);
    }
}

TEST(CampaignTableII, MissingWriteIsSdcPlusMdc)
{
    InjectionCampaign camp(level(ProtectionLevel::None));
    for (Pin p : {Pin::CS, Pin::CKE}) {
        const auto r = camp.runTrial(CommandPattern::Wr,
                                     PinError::onePin(p));
        EXPECT_EQ(r.outcome, Outcome::SdcMdc) << pinName(p);
        EXPECT_FALSE(r.decoded.executed);
    }
}

TEST(CampaignTableII, ReadColumnErrorIsSdcOnly)
{
    InjectionCampaign camp(level(ProtectionLevel::None));
    for (Pin p : {Pin::A0, Pin::A4, Pin::BA0, Pin::CS}) {
        const auto r = camp.runTrial(CommandPattern::Rd,
                                     PinError::onePin(p));
        EXPECT_EQ(r.outcome, Outcome::Sdc) << pinName(p);
    }
}

TEST(CampaignTableII, AlteredCommandsReported)
{
    InjectionCampaign camp(level(ProtectionLevel::None));
    // WE flip on a RD turns it into a WR.
    const auto r = camp.runTrial(CommandPattern::Rd,
                                 PinError::onePin(Pin::WE_A14));
    EXPECT_EQ(r.intended.type, CmdType::Rd);
    EXPECT_EQ(r.decoded.cmd.type, CmdType::Wr);
    // The spurious write latches the undriven bus: storage corrupted.
    EXPECT_TRUE(r.mdc);
}

TEST(CampaignFig7, AieccCoversAllOnePinErrors)
{
    // Section V-A2: "AIECC can detect all 1-pin errors."  Coverage
    // counts detected-or-provably-benign (an ODT glitch on a command
    // with no data transfer has nothing to detect); no harmful error
    // may escape.
    InjectionCampaign camp(level(ProtectionLevel::Aiecc));
    for (CommandPattern pattern : allPatterns()) {
        const auto stats = camp.sweepOnePin(pattern);
        EXPECT_DOUBLE_EQ(stats.coveredFrac(), 1.0)
            << patternName(pattern);
        EXPECT_EQ(stats.sdc, 0u) << patternName(pattern);
        EXPECT_EQ(stats.mdc, 0u) << patternName(pattern);
        // Benign misses are at most the lone ODT glitch.
        EXPECT_LE(stats.trials - stats.detected, 1u)
            << patternName(pattern);
    }
}

TEST(CampaignFig7, UnprotectedDetectsNothing)
{
    InjectionCampaign camp(level(ProtectionLevel::None));
    for (CommandPattern pattern : allPatterns()) {
        const auto stats = camp.sweepOnePin(pattern);
        EXPECT_EQ(stats.detected, 0u) << patternName(pattern);
    }
}

TEST(CampaignFig7, DeccLeavesCoverageHoles)
{
    // DDR4+DECC relies on CAP, which misses CTRL-pin errors; some of
    // those manifest as undetected corruption (Section V-A2).
    InjectionCampaign camp(level(ProtectionLevel::Ddr4Decc));
    const auto stats = camp.sweepOnePin(CommandPattern::ActWr);
    EXPECT_LT(stats.detected, stats.trials);
    EXPECT_GT(stats.sdc + stats.mdc, 0u);
}

TEST(CampaignFig7, TwoPinErrorsBeatCapButNotAiecc)
{
    // CA parity misses all even-weight CMD/ADD errors; AIECC fills
    // the hole with address protection and the CSTC.
    InjectionCampaign decc(level(ProtectionLevel::Ddr4Decc));
    InjectionCampaign aiecc(level(ProtectionLevel::Aiecc));
    // A3+A4 change the MTB column: the read fetches a different but
    // perfectly valid codeword.
    const auto twoPin = PinError::twoPin(Pin::A3, Pin::A4);

    const auto rDecc = decc.runTrial(CommandPattern::Rd, twoPin);
    EXPECT_FALSE(rDecc.detected);
    EXPECT_EQ(rDecc.outcome, Outcome::Sdc);

    const auto rAiecc = aiecc.runTrial(CommandPattern::Rd, twoPin);
    EXPECT_TRUE(rAiecc.detected);
    EXPECT_EQ(rAiecc.outcome, Outcome::Corrected);
}

TEST(CampaignFig7, EDeccCatchesMissingRead)
{
    // "A missing RD command manifests as SDC with data-only DECC, yet
    // it can be detected by eDECC."
    InjectionCampaign decc(level(ProtectionLevel::Ddr4Decc));
    InjectionCampaign edecc(level(ProtectionLevel::Ddr4EDecc));

    const auto rDecc =
        decc.runTrial(CommandPattern::Rd, PinError::onePin(Pin::CS));
    EXPECT_FALSE(rDecc.detected);
    EXPECT_EQ(rDecc.outcome, Outcome::Sdc);

    const auto rEdecc =
        edecc.runTrial(CommandPattern::Rd, PinError::onePin(Pin::CS));
    EXPECT_TRUE(rEdecc.detected);
    ASSERT_TRUE(rEdecc.firstDetector().has_value());
    EXPECT_EQ(*rEdecc.firstDetector(), Mechanism::EDecc);
}

TEST(CampaignFig8, ECapCatchesOnePinActivationErrors)
{
    // "eCAP is the most effective mechanism for 1-pin activation
    // errors."
    InjectionCampaign camp(level(ProtectionLevel::Aiecc));
    const auto r = camp.runTrial(CommandPattern::ActWr,
                                 PinError::onePin(Pin::A7));
    ASSERT_TRUE(r.firstDetector().has_value());
    EXPECT_EQ(*r.firstDetector(), Mechanism::ECap);
    EXPECT_EQ(r.outcome, Outcome::Corrected);
}

TEST(CampaignFig8, AddressProtectionCatchesTwoPinWriteErrors)
{
    InjectionCampaign camp(level(ProtectionLevel::Aiecc));
    const auto r = camp.runTrial(CommandPattern::Wr,
                                 PinError::twoPin(Pin::A3, Pin::A4));
    ASSERT_TRUE(r.firstDetector().has_value());
    EXPECT_EQ(*r.firstDetector(), Mechanism::EWcrc);
    EXPECT_EQ(r.outcome, Outcome::Corrected);
}

TEST(CampaignFig8, CstcCatchesMissingPrecharge)
{
    // A missing PRE makes the next ACT hit an open bank: the CSTC
    // flags the state violation (Section IV-C).
    InjectionCampaign camp(level(ProtectionLevel::Aiecc));
    const auto r = camp.runTrial(CommandPattern::Pre,
                                 PinError::onePin(Pin::CS));
    EXPECT_TRUE(r.detected);
    ASSERT_TRUE(r.firstDetector().has_value());
    EXPECT_EQ(*r.firstDetector(), Mechanism::Cstc);
    EXPECT_EQ(r.outcome, Outcome::Corrected);
}

TEST(CampaignFig8, DiagnosisRevealsFaultyAddress)
{
    // 2-pin column error on a RD under eDECC: the diagnosis recovers
    // the address DRAM used, exposing the faulty pins (§IV-F).
    InjectionCampaign camp(level(ProtectionLevel::Ddr4EDecc));
    const auto r = camp.runTrial(CommandPattern::Rd,
                                 PinError::twoPin(Pin::A3, Pin::A4));
    EXPECT_TRUE(r.detected);
    ASSERT_TRUE(r.diagnosedAddress.has_value());
    // The faulty MTB-column bits are exactly bits 0 and 1.
    Geometry geom;
    const uint32_t intended =
        MtbAddress{0, 1, 2, 0x2A, 2}.pack(geom);
    EXPECT_EQ(*r.diagnosedAddress ^ intended, 0x3u);
}

TEST(CampaignAllPin, AieccDetectsAllPinNoise)
{
    InjectionCampaign camp(level(ProtectionLevel::Aiecc));
    for (CommandPattern pattern : allPatterns()) {
        const auto stats = camp.sweepAllPin(pattern, 20);
        EXPECT_EQ(stats.sdc, 0u) << patternName(pattern);
        EXPECT_EQ(stats.mdc, 0u) << patternName(pattern);
    }
}

TEST(CampaignAllPin, CapDetectsAboutHalfOfLatchedNoise)
{
    // "CA parity... has a 50% chance of detecting the error" — for
    // noise the device actually latches.  Randomized CS/CKE deselect
    // ~3/4 of all-pin edges outright, so CAP fires first on ~ 1/2 *
    // 1/4 = 12.5% of trials overall.
    InjectionCampaign camp(level(ProtectionLevel::Ddr4Decc));
    unsigned capFirst = 0, trials = 0;
    for (CommandPattern pattern : allPatterns()) {
        const auto s = camp.sweepAllPin(pattern, 40);
        trials += s.trials;
        for (const auto &[mech, count] : s.byFirstDetector) {
            if (mech == Mechanism::Cap)
                capFirst += count;
        }
    }
    const double capFrac = static_cast<double>(capFirst) / trials;
    EXPECT_GT(capFrac, 0.05);
    EXPECT_LT(capFrac, 0.25);
}

TEST(Campaign, StatsAccumulateConsistently)
{
    InjectionCampaign camp(level(ProtectionLevel::Ddr4EDecc));
    const auto stats = camp.sweepOnePin(CommandPattern::Wr);
    EXPECT_EQ(stats.trials, 27u); // PAR pin present
    // Benign + recovered + flagged + harmful buckets cover all trials
    // (SDC+MDC trials occupy one "harmful" slot in both counters).
    const unsigned harmfulSlots =
        stats.trials - stats.noEffect - stats.corrected - stats.due;
    EXPECT_LE(std::max(stats.sdc, stats.mdc), harmfulSlots + 0u);
    EXPECT_GE(stats.sdc + stats.mdc, harmfulSlots);
    EXPECT_LE(stats.detected, stats.trials);
    // First-detector attribution never exceeds detections.
    unsigned attributed = 0;
    for (const auto &[mech, count] : stats.byFirstDetector)
        attributed += count;
    EXPECT_EQ(attributed, stats.detected);
}

TEST(Campaign, UnprotectedSweepExcludesParPin)
{
    InjectionCampaign camp(level(ProtectionLevel::None));
    const auto stats = camp.sweepOnePin(CommandPattern::Rd);
    EXPECT_EQ(stats.trials, 26u);
}

// ------------------- sharded execution determinism -------------------

namespace
{

/** Field-by-field equality over everything a TrialResult reports. */
void
expectTrialsEqual(const TrialResult &a, const TrialResult &b,
                  size_t index)
{
    EXPECT_EQ(a.outcome, b.outcome) << "trial " << index;
    EXPECT_EQ(a.detected, b.detected) << "trial " << index;
    EXPECT_EQ(a.detectors, b.detectors) << "trial " << index;
    EXPECT_EQ(a.sdc, b.sdc) << "trial " << index;
    EXPECT_EQ(a.mdc, b.mdc) << "trial " << index;
    EXPECT_EQ(a.decoded.executed, b.decoded.executed)
        << "trial " << index;
    EXPECT_EQ(a.diagnosedAddress, b.diagnosedAddress)
        << "trial " << index;
    EXPECT_EQ(a.recoveryEpisodes, b.recoveryEpisodes)
        << "trial " << index;
    EXPECT_EQ(a.recoveryAttempts, b.recoveryAttempts)
        << "trial " << index;
    EXPECT_EQ(a.retryExhausted, b.retryExhausted) << "trial " << index;
    EXPECT_EQ(a.recovery, b.recovery) << "trial " << index;
}

/** Every 1-pin and a few 2-pin errors: a mixed work list. */
std::vector<PinError>
mixedErrors(bool parPresent)
{
    std::vector<PinError> errors;
    for (Pin pin : injectablePins(parPresent))
        errors.push_back(PinError::onePin(pin));
    errors.push_back(PinError::twoPin(Pin::A3, Pin::A4));
    errors.push_back(PinError::twoPin(Pin::CS, Pin::CKE));
    errors.push_back(PinError::allPins(0xAB5));
    return errors;
}

} // namespace

TEST(CampaignSharded, RunTrialsIdenticalAcrossJobs)
{
    const auto errors = mixedErrors(true);
    std::vector<TrialResult> byJobs[3];
    const unsigned jobsValues[3] = {1, 2, 8};
    for (unsigned i = 0; i < 3; ++i) {
        InjectionCampaign camp(level(ProtectionLevel::Aiecc));
        byJobs[i] = camp.runTrials(CommandPattern::ActWr, errors,
                                   jobsValues[i]);
    }
    ASSERT_EQ(byJobs[0].size(), errors.size());
    for (unsigned i = 1; i < 3; ++i) {
        ASSERT_EQ(byJobs[i].size(), byJobs[0].size());
        for (size_t t = 0; t < byJobs[0].size(); ++t)
            expectTrialsEqual(byJobs[i][t], byJobs[0][t], t);
    }
}

TEST(CampaignSharded, StatsAndTraceIdenticalAcrossJobs)
{
    const auto errors = mixedErrors(true);
    std::string statsJson[2];
    std::vector<obs::TraceEvent> events[2];
    const unsigned jobsValues[2] = {1, 4};
    for (unsigned i = 0; i < 2; ++i) {
        obs::StatsRegistry reg;
        obs::VectorTraceSink sink;
        obs::Observer observer;
        observer.setStats(&reg);
        observer.addSink(&sink);
        InjectionCampaign camp(level(ProtectionLevel::Ddr4EDecc));
        camp.setObserver(&observer);
        camp.runTrials(CommandPattern::Rd, errors, jobsValues[i]);
        obs::JsonWriter w(0);
        reg.writeJson(w);
        statsJson[i] = w.str();
        events[i] = sink.events();
    }
    EXPECT_EQ(statsJson[0], statsJson[1]);
    ASSERT_EQ(events[0].size(), events[1].size());
    ASSERT_EQ(events[0].size(), errors.size()); // one per trial
    for (size_t e = 0; e < events[0].size(); ++e) {
        EXPECT_EQ(events[0][e].kind, events[1][e].kind) << e;
        EXPECT_EQ(events[0][e].cycle, events[1][e].cycle) << e;
        EXPECT_EQ(events[0][e].labelText(), events[1][e].labelText()) << e;
        EXPECT_EQ(events[0][e].value, events[1][e].value) << e;
        EXPECT_EQ(events[0][e].detailText(), events[1][e].detailText())
            << e;
    }
}

TEST(CampaignSharded, SweepsIdenticalAcrossJobs)
{
    for (CommandPattern pattern :
         {CommandPattern::ActWr, CommandPattern::Pre}) {
        InjectionCampaign seq(level(ProtectionLevel::Aiecc));
        InjectionCampaign par(level(ProtectionLevel::Aiecc));
        const auto a = seq.sweepOnePin(pattern, 1);
        const auto b = par.sweepOnePin(pattern, 4);
        EXPECT_EQ(a.trials, b.trials) << patternName(pattern);
        EXPECT_EQ(a.detected, b.detected) << patternName(pattern);
        EXPECT_EQ(a.noEffect, b.noEffect) << patternName(pattern);
        EXPECT_EQ(a.corrected, b.corrected) << patternName(pattern);
        EXPECT_EQ(a.sdc, b.sdc) << patternName(pattern);
        EXPECT_EQ(a.mdc, b.mdc) << patternName(pattern);
        EXPECT_EQ(a.byFirstDetector, b.byFirstDetector)
            << patternName(pattern);
    }
    // All-pin noise draws from per-trial seeds: also jobs-invariant.
    InjectionCampaign seq(level(ProtectionLevel::Ddr4Decc));
    InjectionCampaign par(level(ProtectionLevel::Ddr4Decc));
    const auto a = seq.sweepAllPin(CommandPattern::Wr, 60, 1);
    const auto b = par.sweepAllPin(CommandPattern::Wr, 60, 4);
    EXPECT_EQ(a.detected, b.detected);
    EXPECT_EQ(a.sdc, b.sdc);
    EXPECT_EQ(a.byFirstDetector, b.byFirstDetector);
}

TEST(CampaignStatsMerge, FoldsAllCountsAndDetectorMap)
{
    InjectionCampaign camp(level(ProtectionLevel::Aiecc));
    const auto errors = mixedErrors(true);
    const auto results = camp.runTrials(CommandPattern::Wr, errors, 1);

    // Reference: everything accumulated into one aggregate.
    CampaignStats whole;
    for (const auto &r : results)
        whole.add(r);

    // Split at an arbitrary point and merge the halves.
    CampaignStats left, right;
    for (size_t i = 0; i < results.size(); ++i)
        (i < results.size() / 3 ? left : right).add(results[i]);
    left.merge(right);

    EXPECT_EQ(left.trials, whole.trials);
    EXPECT_EQ(left.detected, whole.detected);
    EXPECT_EQ(left.noEffect, whole.noEffect);
    EXPECT_EQ(left.corrected, whole.corrected);
    EXPECT_EQ(left.due, whole.due);
    EXPECT_EQ(left.sdc, whole.sdc);
    EXPECT_EQ(left.mdc, whole.mdc);
    EXPECT_EQ(left.sdcMdcBoth, whole.sdcMdcBoth);
    EXPECT_EQ(left.byFirstDetector, whole.byFirstDetector);
    EXPECT_EQ(left.recoveryEpisodes, whole.recoveryEpisodes);
    EXPECT_EQ(left.recoveryAttempts, whole.recoveryAttempts);
    EXPECT_EQ(left.recoveredFirstTry, whole.recoveredFirstTry);
    EXPECT_EQ(left.recoveredAfterRetries, whole.recoveredAfterRetries);
    EXPECT_EQ(left.retryExhausted, whole.retryExhausted);
}

// ---- checkpoint state round-trip ----

TEST(CampaignStatsState, RoundTripIsExact)
{
    InjectionCampaign camp(level(ProtectionLevel::Aiecc));
    CampaignStats stats = camp.sweepOnePin(CommandPattern::ActWr, 2);
    stats.merge(camp.sweepAllPin(CommandPattern::Pre, 40, 2));
    ASSERT_GT(stats.trials, 0u);

    CampaignStats restored;
    restored.deserializeState(stats.serializeState());
    EXPECT_EQ(restored.serializeState(), stats.serializeState());
    EXPECT_EQ(restored.trials, stats.trials);
    EXPECT_EQ(restored.detected, stats.detected);
    EXPECT_EQ(restored.byFirstDetector, stats.byFirstDetector);
    EXPECT_EQ(restored.recoveryEpisodes, stats.recoveryEpisodes);
    EXPECT_EQ(restored.recoveryAttempts, stats.recoveryAttempts);
    EXPECT_EQ(restored.retryExhausted, stats.retryExhausted);
}

// ---- combinadic exhaustive sweeps ----

TEST(CampaignExhaustive, KPinSpaceCoversInjectablePinsInSweepOrder)
{
    InjectionCampaign camp(level(ProtectionLevel::Aiecc));
    const auto pins = injectablePins(camp.mechanisms().parPinPresent());
    const CombinationSpace space = camp.kPinSpace(2);
    EXPECT_EQ(space.n(), pins.size());
    EXPECT_EQ(space.size(), pins.size() * (pins.size() - 1) / 2);
    // Rank 0 must be the first pair the nested sweep loops visit, and
    // the last rank the final pair.
    const PinError first = camp.kPinError(2, 0);
    ASSERT_EQ(first.flips.size(), 2u);
    EXPECT_EQ(first.flips[0], pins[0]);
    EXPECT_EQ(first.flips[1], pins[1]);
    const PinError last = camp.kPinError(2, space.size() - 1);
    EXPECT_EQ(last.flips[0], pins[pins.size() - 2]);
    EXPECT_EQ(last.flips[1], pins[pins.size() - 1]);
}

TEST(CampaignExhaustive, TwoPinSweepMatchesMaterializedSweep)
{
    // The combinadic enumeration must reproduce a materialized
    // nested-loop sweep bit for bit — same combinations, same order,
    // same aggregate.
    InjectionCampaign a(level(ProtectionLevel::Aiecc));
    InjectionCampaign b(level(ProtectionLevel::Aiecc));
    const auto pins = injectablePins(b.mechanisms().parPinPresent());
    std::vector<PinError> errors;
    for (size_t i = 0; i < pins.size(); ++i) {
        for (size_t j = i + 1; j < pins.size(); ++j)
            errors.push_back(PinError::twoPin(pins[i], pins[j]));
    }
    CampaignStats mat;
    for (const TrialResult &tr : b.runTrials(CommandPattern::Wr, errors, 2))
        mat.add(tr);
    const CampaignStats exh = a.sweepTwoPin(CommandPattern::Wr, 2);
    EXPECT_EQ(exh.serializeState(), mat.serializeState());
    EXPECT_GT(exh.trials, 0u);
}

// ---- checkpointed execution ----

TEST(CampaignCheckpointed, MatchesPlainRunTrialsAndLedger)
{
    obs::LineageLedger plainLedger, ckptLedger;
    obs::Observer plainObs, ckptObs;
    plainObs.setLineage(&plainLedger);
    ckptObs.setLineage(&ckptLedger);
    InjectionCampaign plain(level(ProtectionLevel::Aiecc));
    plain.setObserver(&plainObs);
    InjectionCampaign ckpt(level(ProtectionLevel::Aiecc));
    ckpt.setObserver(&ckptObs);

    std::vector<PinError> errors;
    for (Pin pin : injectablePins(true))
        errors.push_back(PinError::onePin(pin));

    const auto want =
        plain.runTrials(CommandPattern::ActWr, errors, 2);

    std::vector<TrialResult> got(errors.size());
    uint64_t nextShard = 0;
    const RunStatus status = ckpt.runTrialsCheckpointed(
        CommandPattern::ActWr, errors, 2,
        {/*batchShards=*/2, &nextShard, [](uint64_t, uint64_t) {}},
        [&](uint64_t trial, const TrialResult &r) { got[trial] = r; });
    ASSERT_EQ(status, RunStatus::Completed);
    EXPECT_EQ(ckpt.trialCount(), plain.trialCount());

    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].outcome, want[i].outcome) << i;
        EXPECT_EQ(got[i].detected, want[i].detected) << i;
        EXPECT_EQ(got[i].detectors, want[i].detectors) << i;
        EXPECT_EQ(got[i].recovery, want[i].recovery) << i;
    }
    EXPECT_EQ(ckptLedger.digest(), plainLedger.digest());
}

TEST(CampaignCheckpointed, InterruptAndResumeIsBitIdentical)
{
    std::vector<PinError> errors;
    for (Pin pin : injectablePins(true))
        errors.push_back(PinError::onePin(pin));

    // Reference: one uninterrupted checkpointed run.
    obs::LineageLedger refLedger;
    obs::Observer refObs;
    refObs.setLineage(&refLedger);
    InjectionCampaign ref(level(ProtectionLevel::Aiecc));
    ref.setObserver(&refObs);
    std::vector<TrialResult> want(errors.size());
    uint64_t refShard = 0;
    ASSERT_EQ(ref.runTrialsCheckpointed(
                  CommandPattern::Rd, errors, 2,
                  {2, &refShard, [](uint64_t, uint64_t) {}},
                  [&](uint64_t t, const TrialResult &r) { want[t] = r; }),
              RunStatus::Completed);

    // Interrupted run: stop after the first committed batch, then
    // resume from the recorded shard.  The trial counter contract:
    // Interrupted leaves it at the unit start, so the resumed call
    // starts from the same base.
    clearStopRequest();
    obs::LineageLedger ledger;
    obs::Observer observer;
    observer.setLineage(&ledger);
    InjectionCampaign camp(level(ProtectionLevel::Aiecc));
    camp.setObserver(&observer);
    std::vector<TrialResult> got(errors.size());
    uint64_t nextShard = 0;
    ASSERT_EQ(camp.runTrialsCheckpointed(
                  CommandPattern::Rd, errors, 2,
                  {2, &nextShard, [](uint64_t, uint64_t) { requestStop(); }},
                  [&](uint64_t t, const TrialResult &r) { got[t] = r; }),
              RunStatus::Interrupted);
    clearStopRequest();
    ASSERT_GT(nextShard, 0u);
    ASSERT_LT(nextShard * 4, errors.size() + 4); // mid-unit
    EXPECT_EQ(camp.trialCount(), 0u); // still at the unit start

    ASSERT_EQ(camp.runTrialsCheckpointed(
                  CommandPattern::Rd, errors, 2,
                  {2, &nextShard, [](uint64_t, uint64_t) {}},
                  [&](uint64_t t, const TrialResult &r) { got[t] = r; }),
              RunStatus::Completed);

    for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].outcome, want[i].outcome) << i;
        EXPECT_EQ(got[i].detected, want[i].detected) << i;
    }
    EXPECT_EQ(ledger.digest(), refLedger.digest());
    EXPECT_EQ(camp.trialCount(), ref.trialCount());
}

} // namespace
} // namespace aiecc
