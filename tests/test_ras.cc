/**
 * @file
 * Unit tests for the RAS health monitor: symptom routing (data-path
 * vs alert-family detections), the per-bank hysteresis state machine,
 * fault-topology inference (cell/row/column/chip/link) including the
 * median-based chip dominance and sticky retired-row calls, action
 * recommendation and draining, the shard merge, and the checkpoint
 * round-trip.
 */

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "aiecc/detection.hh"
#include "aiecc/diagnosis.hh"
#include "aiecc/stack.hh"
#include "ddr4/address.hh"
#include "inject/montecarlo.hh"
#include "obs/json.hh"
#include "obs/trace_reader.hh"
#include "ras/health.hh"

namespace aiecc
{
namespace
{

obs::TraceEvent
dataCe(unsigned bank, unsigned row, unsigned col, uint64_t cycle,
       uint32_t chips = 0)
{
    const Geometry geom;
    MtbAddress addr;
    addr.bg = bank / geom.banksPerGroup();
    addr.ba = bank % geom.banksPerGroup();
    addr.row = row;
    addr.col = col;
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::Detection;
    ev.cycle = cycle;
    ev.value = addr.pack(geom);
    ev.symptom = obs::Symptom::DataCe;
    ev.chips = chips;
    return ev;
}

obs::TraceEvent
dataUe(unsigned bank, unsigned row, unsigned col, uint64_t cycle)
{
    obs::TraceEvent ev = dataCe(bank, row, col, cycle);
    ev.symptom = obs::Symptom::DataUe;
    return ev;
}

obs::TraceEvent
alert(uint64_t cycle)
{
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::Detection;
    ev.cycle = cycle;
    ev.symptom = obs::Symptom::Alert;
    return ev;
}

/** @p live as a recorded trace gives it back: written, then parsed. */
obs::TraceEvent
recorded(const obs::TraceEvent &live)
{
    obs::JsonWriter w(0);
    live.writeJson(w);
    const std::optional<obs::TraceEvent> ev = obs::parseTraceLine(w.str());
    EXPECT_TRUE(ev.has_value()) << w.str();
    return ev.value_or(obs::TraceEvent{});
}

/** What a Monte-Carlo detection tagged @p tag looks like. */
obs::TraceEvent
dataEcc(const char *tag, obs::Symptom symptom, uint64_t value = 0)
{
    return {.kind = obs::EventKind::Detection,
            .symptom = symptom,
            .detail = obs::Detail::Why,
            .value = value,
            .label = "QPC",
            .why = tag};
}

TEST(HealthMonitor, StartsHealthy)
{
    ras::HealthMonitor mon;
    EXPECT_EQ(mon.rankState(), ras::HealthState::Healthy);
    EXPECT_EQ(mon.degradedBanks(), 0u);
    EXPECT_EQ(mon.failingBanks(), 0u);
    EXPECT_TRUE(mon.topologies().empty());
    EXPECT_EQ(mon.eventsSeen(), 0u);
}

TEST(HealthMonitor, WindowedCesDegradeTheBank)
{
    ras::HealthMonitor mon;
    const uint64_t need = mon.config().degradeCes;
    for (uint64_t i = 0; i < need; ++i)
        mon.record(dataCe(2, 10 + unsigned(i), 0, 1000 + i));
    EXPECT_EQ(mon.bankState(2), ras::HealthState::Degraded);
    EXPECT_EQ(mon.degradedBanks(), 1u);
    // The first degraded component recommends raising the patrol rate.
    std::vector<ras::RecommendedAction> actions;
    ASSERT_GE(mon.drainActions(actions), 1u);
    EXPECT_EQ(actions[0].kind, ras::ActionKind::RaisePatrol);
    // Draining is destructive: nothing left afterwards.
    actions.clear();
    EXPECT_EQ(mon.drainActions(actions), 0u);
}

TEST(HealthMonitor, UesEscalateFasterThanCes)
{
    ras::HealthMonitor mon;
    mon.record(dataUe(4, 1, 1, 100));
    EXPECT_EQ(mon.bankState(4), ras::HealthState::Degraded);
    mon.record(dataUe(4, 2, 2, 200));
    EXPECT_EQ(mon.bankState(4), ras::HealthState::Failing);
    EXPECT_EQ(mon.failingBanks(), 1u);
    bool quarantined = false;
    for (const ras::RecommendedAction &a : mon.actionLog())
        quarantined |= a.kind == ras::ActionKind::QuarantineBank &&
                       a.bank == 4;
    EXPECT_TRUE(quarantined);
}

TEST(HealthMonitor, DataEccDetailRoutesToDataPath)
{
    // Standalone data-codec engines label detections with the scheme
    // name, not DECC/eDECC; the recorded symptom must route them down
    // the address-evidence path all the same.
    ras::HealthMonitor mon;
    for (unsigned i = 0; i < 8; ++i) {
        obs::TraceEvent ev =
            recorded(dataEcc("data-ecc corrected", obs::Symptom::DataCe,
                             dataCe(1, 9, i, 0).value));
        ev.cycle = 100 * i;
        mon.record(ev);
    }
    const ras::TopologyCall call = mon.bankTopology(1);
    EXPECT_EQ(call.kind, ras::Topology::Row);
    EXPECT_EQ(call.bank, 1u);
    EXPECT_EQ(call.row, 9u);
}

TEST(HealthMonitor, NonDataDetectionsAreAlerts)
{
    ras::HealthMonitor mon;
    const uint64_t need = mon.config().linkAlerts;
    for (uint64_t i = 0; i < need - 1; ++i)
        mon.record(alert(100 + i));
    EXPECT_EQ(mon.linkTopology().kind, ras::Topology::None);
    mon.record(alert(200));
    const ras::TopologyCall call = mon.linkTopology();
    EXPECT_EQ(call.kind, ras::Topology::Link);
    EXPECT_EQ(call.evidence, need);
    EXPECT_EQ(call.pin, -1); // no diagnosis yet
    // Alert-family symptoms carry no address: no bank sees them.
    for (unsigned b = 0; b < mon.config().geom.numBanks(); ++b)
        EXPECT_EQ(mon.bankState(b), ras::HealthState::Healthy);
}

TEST(HealthMonitor, DiagnosisNamesTheSuspectPin)
{
    ras::HealthMonitor mon;
    for (uint64_t i = 0; i < mon.config().linkAlerts; ++i)
        mon.record(alert(100 + i));
    obs::TraceEvent diag;
    diag.kind = obs::EventKind::Diagnosis;
    diag.cycle = 500;
    diag.pin = 3;
    mon.record(diag);
    const ras::TopologyCall call = mon.linkTopology();
    EXPECT_EQ(call.kind, ras::Topology::Link);
    EXPECT_EQ(call.pin, 3);
}

TEST(HealthMonitor, SingleCellBeatsRowAndColumn)
{
    ras::HealthMonitor mon;
    for (unsigned i = 0; i < 6; ++i)
        mon.record(dataCe(0, 17, 5, 100 * i));
    const ras::TopologyCall call = mon.bankTopology(0);
    EXPECT_EQ(call.kind, ras::Topology::SingleCell);
    EXPECT_EQ(call.row, 17u);
    EXPECT_EQ(call.col, 5u);
    EXPECT_EQ(call.evidence, 6u);
}

TEST(HealthMonitor, RowCallNeedsColumnSpread)
{
    ras::HealthMonitor mon;
    // Same row, many distinct columns: a weak row, not a stuck cell.
    for (unsigned i = 0; i < 8; ++i)
        mon.record(dataCe(3, 44, i, 100 * i));
    const ras::TopologyCall call = mon.bankTopology(3);
    EXPECT_EQ(call.kind, ras::Topology::Row);
    EXPECT_EQ(call.bank, 3u);
    EXPECT_EQ(call.row, 44u);
    // Enough row-concentrated corrections retire the row.
    bool retired = false;
    for (const ras::RecommendedAction &a : mon.actionLog())
        retired |= a.kind == ras::ActionKind::RetireRow && a.bank == 3 &&
                   a.row == 44;
    EXPECT_TRUE(retired);
}

TEST(HealthMonitor, ColumnCallNeedsRowSpread)
{
    ras::HealthMonitor mon;
    for (unsigned i = 0; i < 6; ++i)
        mon.record(dataCe(7, i, 12, 100 * i));
    const ras::TopologyCall call = mon.bankTopology(7);
    EXPECT_EQ(call.kind, ras::Topology::Column);
    EXPECT_EQ(call.col, 12u);
}

TEST(HealthMonitor, RetiredRowCallIsSticky)
{
    ras::HealthMonitor mon;
    for (unsigned i = 0; i < 8; ++i)
        mon.record(dataCe(3, 44, i, 100 * i));
    ASSERT_EQ(mon.bankTopology(3).kind, ras::Topology::Row);
    // Mitigation retires the row and the symptom stream moves on to
    // scattered single corrections; the settled call must survive the
    // dilution below the concentration threshold.
    for (unsigned i = 0; i < 40; ++i)
        mon.record(dataCe(3, 200 + i, i % 32, 1000 + 100 * i));
    const ras::TopologyCall call = mon.bankTopology(3);
    EXPECT_EQ(call.kind, ras::Topology::Row);
    EXPECT_EQ(call.row, 44u);
}

TEST(HealthMonitor, ChipCallNeedsBankSpreadAndMedianDominance)
{
    ras::HealthMonitor mon;
    // Chip 7's symbols keep getting corrected across six banks.
    for (unsigned i = 0; i < 6; ++i)
        mon.record(dataCe(i, i, i, 100 * i, 0x80));
    const std::vector<ras::TopologyCall> chips = mon.chipTopologies();
    ASSERT_EQ(chips.size(), 1u);
    EXPECT_EQ(chips[0].kind, ras::Topology::Chip);
    EXPECT_EQ(chips[0].chip, 7u);
    EXPECT_EQ(chips[0].evidence, 6u);
    EXPECT_EQ(mon.chipTopology().chip, 7u);
}

TEST(HealthMonitor, ConcentratedBankActivityIsNotAChip)
{
    ras::HealthMonitor mon;
    // A weak row also lands on few chips, but never across banks:
    // the bank-spread test must reject the chip explanation.
    for (unsigned i = 0; i < 10; ++i)
        mon.record(dataCe(2, 44, i, 100 * i, 0x80));
    EXPECT_TRUE(mon.chipTopologies().empty());
}

TEST(HealthMonitor, MedianDominanceSurvivesMultiChipFaults)
{
    ras::HealthMonitor mon;
    // Two chips dying at once: a mean-based test would let each mask
    // the other; the median (still 0 with 16 quiet chips) must not.
    for (unsigned i = 0; i < 8; ++i) {
        mon.record(dataCe(i % 8, i, i, 100 * i, 0x4));
        mon.record(
            dataCe(i % 8, 40 + i, i, 50 + 100 * i, 0x20000)); // chip 17
    }
    const std::vector<ras::TopologyCall> chips = mon.chipTopologies();
    ASSERT_EQ(chips.size(), 2u);
    EXPECT_EQ(chips[0].chip, 2u);
    EXPECT_EQ(chips[1].chip, 17u);
}

TEST(HealthMonitor, EscalationVerdictForcesFailing)
{
    ras::HealthMonitor mon;
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::Escalation;
    ev.cycle = 1234;
    ev.symptom = obs::Symptom::Quarantine;
    ev.value = 5;
    mon.record(ev);
    EXPECT_EQ(mon.bankState(5), ras::HealthState::Failing);
}

TEST(HealthMonitor, QuietBankRecoversAfterDwell)
{
    ras::HealthMonitor mon;
    for (uint64_t i = 0; i < mon.config().degradeCes; ++i)
        mon.record(dataCe(2, 10 + unsigned(i), 0, 1000 + i));
    ASSERT_EQ(mon.bankState(2), ras::HealthState::Degraded);
    // Quiet traffic far past the window and the dwell: the periodic
    // tick (every 256 events) must step the bank back down.
    const uint64_t quiet = 1000 + mon.config().recoverDwell +
                           mon.config().bucketCycles * 32;
    for (uint64_t i = 0; i < 512; ++i) {
        obs::TraceEvent ev;
        ev.kind = obs::EventKind::Retry;
        ev.cycle = quiet + i;
        ev.label = "re-read";
        mon.record(ev);
    }
    EXPECT_EQ(mon.bankState(2), ras::HealthState::Healthy);
}

TEST(HealthMonitor, FaultLifecycleCounters)
{
    ras::HealthMonitor mon;
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::FaultInject;
    mon.record(ev);
    mon.record(ev);
    ev.kind = obs::EventKind::FaultResolve;
    mon.record(ev);
    EXPECT_EQ(mon.faultsInjected(), 2u);
    EXPECT_EQ(mon.faultsResolved(), 1u);
    EXPECT_EQ(mon.eventsSeen(), 3u);
}

TEST(HealthMonitor, MergeFoldsCountersStatesAndSketches)
{
    ras::HealthMonitor a, b;
    // Shard a sees half the weak row's corrections, shard b the rest:
    // neither alone is confident, the fold is.
    for (unsigned i = 0; i < 3; ++i)
        a.record(dataCe(3, 44, i, 100 * i));
    for (unsigned i = 3; i < 8; ++i)
        b.record(dataCe(3, 44, i, 100 * i));
    for (uint64_t i = 0; i < b.config().degradeUes; ++i)
        b.record(dataUe(6, 1, 1, 500 + i));
    EXPECT_EQ(a.bankTopology(3).kind, ras::Topology::None);

    a.merge(b);
    EXPECT_EQ(a.eventsSeen(), 9u);
    const ras::TopologyCall call = a.bankTopology(3);
    EXPECT_EQ(call.kind, ras::Topology::Row);
    EXPECT_EQ(call.row, 44u);
    EXPECT_EQ(call.evidence, 8u);
    // Worse-of state folding: b's degraded bank 6 wins over healthy.
    EXPECT_EQ(a.bankState(6), ras::HealthState::Degraded);
}

TEST(HealthMonitor, MergeFoldIsDeterministic)
{
    // The same shard-order fold run twice gives the same bytes — the
    // property the campaign engines rely on for --jobs invariance.
    const auto build = [] {
        std::vector<ras::HealthMonitor> shards(3);
        for (unsigned s = 0; s < 3; ++s) {
            for (unsigned i = 0; i < 5 + s; ++i)
                shards[s].record(
                    dataCe(s, 10 * s, i, 1000 * s + 100 * i));
            shards[s].record(alert(1000 * s + 999));
        }
        ras::HealthMonitor merged;
        for (const ras::HealthMonitor &shard : shards)
            merged.merge(shard);
        return merged.serializeState();
    };
    EXPECT_EQ(build(), build());
}

TEST(HealthMonitor, SerializeRoundTripIsExact)
{
    ras::HealthMonitor mon;
    for (unsigned i = 0; i < 8; ++i)
        mon.record(dataCe(3, 44, i, 100 * i)); // row call + retire
    for (unsigned i = 0; i < 6; ++i)
        mon.record(dataCe(i, i, i, 200 * i, 0x80));
    for (uint64_t i = 0; i < mon.config().linkAlerts; ++i)
        mon.record(alert(3000 + i));

    ras::HealthMonitor restored;
    restored.deserializeState(mon.serializeState());
    EXPECT_EQ(restored.serializeState(), mon.serializeState());
    EXPECT_EQ(restored.bankState(3), mon.bankState(3));
    EXPECT_EQ(restored.bankTopology(3).row, 44u);
    EXPECT_EQ(restored.linkTopology().kind, ras::Topology::Link);
    // Both keep evolving identically — resume equals never-stopped.
    mon.record(dataCe(3, 44, 9, 5000));
    restored.record(dataCe(3, 44, 9, 5000));
    EXPECT_EQ(restored.serializeState(), mon.serializeState());
}

TEST(HealthMonitor, JsonCarriesSymptomTotals)
{
    ras::HealthMonitor mon;
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::Retry;
    ev.cycle = 10;
    mon.record(ev);
    mon.record(ev);
    ev.kind = obs::EventKind::Scrub;
    mon.record(ev);
    ev.kind = obs::EventKind::Recovery;
    ev.symptom = obs::Symptom::Exhausted;
    mon.record(ev);
    obs::JsonWriter w;
    mon.writeJson(w);
    const std::string json = w.str();
    EXPECT_NE(json.find("\"retries_total\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"scrubs_total\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"exhausted_total\": 1"), std::string::npos);
}

// ---- Symptom members: what a replayed trace reads back ----

DetectionEvent
alertDetection(const Alert &alert)
{
    return {.mech = Mechanism::Cstc,
            .when = alert.when,
            .early = true,
            .diagnosedAddress = std::nullopt,
            .accessAddress = std::nullopt,
            .alert = alert};
}

TEST(SymptomMembers, DataDetectionsCarryClassAndChips)
{
    using obs::Symptom;
    const Geometry geom;
    const uint32_t addr = MtbAddress{0, 1, 2, 3, 4}.pack(geom);
    obs::TraceEvent ev = recorded(detectionTrace(
        {.mech = Mechanism::EDecc,
         .corrected = true,
         .diagnosedAddress = std::nullopt,
         .accessAddress = addr,
         .correctedChips = 0x80,
         .codec = "QPC+eDECC-c"},
        geom));
    EXPECT_EQ(ev.symptom, Symptom::DataCe);
    EXPECT_EQ(ev.chips, 0x80u);

    ev = recorded(detectionTrace({.mech = Mechanism::Decc,
                                  .diagnosedAddress = std::nullopt,
                                  .accessAddress = addr,
                                  .codec = "QPC"},
                                 geom));
    EXPECT_EQ(ev.symptom, Symptom::DataUe);
    EXPECT_EQ(ev.chips, 0u);

    // Standalone data-codec engines: any label.
    ev = recorded(dataEcc("data-ecc DUE", Symptom::DataUe));
    EXPECT_EQ(ev.symptom, Symptom::DataUe);
    ev = recorded(dataEcc("data-ecc retry-recovered", Symptom::DataCe));
    EXPECT_EQ(ev.symptom, Symptom::DataCe);

    // Neither label nor text implies a symptom: only the member does.
    const auto bare = obs::parseTraceLine(
        R"({"kind":"detection","label":"eDECC","form":"why",)"
        R"("why":"data-ecc DUE chips=80"})");
    ASSERT_TRUE(bare.has_value());
    EXPECT_EQ(bare->symptom, Symptom::None);
    EXPECT_EQ(bare->chips, 0u);
}

TEST(SymptomMembers, EveryOtherDetectionIsAnAlert)
{
    const Command rd = Command::rd(0, 1, 0x10);
    for (const Alert &alert :
         {Alert{.kind = AlertKind::CaParity,
                .when = 7,
                .cmd = rd,
                .flatBank = std::nullopt},
          Alert{.kind = AlertKind::Wcrc,
                .when = 8,
                .cmd = rd,
                .flatBank = 1},
          Alert{.kind = AlertKind::Cstc,
                .when = 9,
                .why = "RD to idle bank",
                .cmd = rd,
                .flatBank = 1}}) {
        const obs::TraceEvent ev =
            recorded(detectionTrace(alertDetection(alert), Geometry{}));
        EXPECT_EQ(ev.symptom, obs::Symptom::Alert) << ev.detailText();
    }
    // The GDDR5 bench's label-only detections.
    const obs::TraceEvent edc = recorded({.kind = obs::EventKind::Detection,
                                          .symptom = obs::Symptom::Alert,
                                          .label = "read-EDC"});
    EXPECT_EQ(edc.symptom, obs::Symptom::Alert);
}

TEST(SymptomMembers, PinsExhaustionAndQuarantine)
{
    using obs::EventKind;
    using obs::Symptom;
    const Geometry geom;
    obs::TraceEvent ev = recorded(diagnosisTrace(0x1000, 0x1008, geom));
    EXPECT_GE(ev.pin, 0);
    EXPECT_EQ(ev.labelText(), pinName(static_cast<Pin>(ev.pin)));
    ev = recorded(diagnosisTrace(0x1000, 0x1000, geom));
    EXPECT_EQ(ev.pin, -1);

    ev = recorded({.kind = EventKind::Recovery,
                   .symptom = Symptom::Exhausted,
                   .detail = obs::Detail::Why,
                   .label = "cstc",
                   .why = "retry budget exhausted"});
    EXPECT_EQ(ev.symptom, Symptom::Exhausted);
    ev = recorded({.kind = EventKind::Recovery,
                   .detail = obs::Detail::Why,
                   .label = "cstc",
                   .why = "in-band recovery succeeded"});
    EXPECT_EQ(ev.symptom, Symptom::None);

    ev = recorded({.kind = EventKind::Escalation,
                   .symptom = Symptom::Quarantine,
                   .value = 5,
                   .label = "quarantine"});
    EXPECT_EQ(ev.symptom, Symptom::Quarantine);
    ev = recorded(
        {.kind = EventKind::Escalation, .value = 4, .label = "rank_degraded"});
    EXPECT_EQ(ev.symptom, Symptom::None);

    // Kinds the monitor reads by kind alone carry none.
    ev = recorded({.kind = EventKind::Retry,
                   .detail = obs::Detail::Why,
                   .label = "read-decode",
                   .why = "exhausted"});
    EXPECT_EQ(ev.symptom, Symptom::None);
}

// ---- Live monitor vs. offline replay ----

TEST(HealthMonitor, ReplayedTraceReachesTheLiveState)
{
    // A traced faulty AIECC stack plus a traced Monte-Carlo cell feed
    // a live monitor; the recorded JSONL, read back by the trace
    // parser into a fresh monitor, must reach the same state.
    const std::string path =
        ::testing::TempDir() + "/aiecc_test_ras_replay.jsonl";
    ras::HealthMonitor live;
    {
        obs::JsonlTraceSink file(path);
        ASSERT_TRUE(file.ok());
        obs::Observer observer;
        observer.addSink(&file);
        observer.addSink(&live);

        StackConfig cfg;
        cfg.mech = Mechanisms::forLevel(ProtectionLevel::Aiecc);
        cfg.observer = &observer;
        cfg.recovery.bucketCapacity = 2; // quarantine quickly
        ProtectionStack stack(cfg);
        Rng rng(0x5EED);
        BitVec payload(Burst::dataBits);
        for (size_t i = 0; i < payload.size(); i += 64)
            payload.setField(i, 64, rng.next());
        const auto block = [](unsigned i) {
            return MtbAddress{0, i % 4, 0, 7, i % 8};
        };
        for (unsigned i = 0; i < 32; ++i)
            stack.write(block(i), payload);

        // Alert families: single CMD/ADD pin flips on random edges.
        stack.setPinCorruptor([&rng](uint64_t, PinWord &pins) {
            if (rng.chance(0.05))
                pins.flip(static_cast<Pin>(rng.below(22)));
        });
        for (unsigned i = 0; i < 400; ++i)
            stack.read(block(i));
        stack.setPinCorruptor({});
        stack.recover();

        // An even 2-pin column flip escapes eCAP on a RD: eDECC
        // diagnoses the address and names the suspect pin.
        stack.read(block(1));
        const uint64_t rdEdge = stack.controller().commandsIssued();
        stack.setPinCorruptor([rdEdge](uint64_t idx, PinWord &pins) {
            if (idx == rdEdge) {
                pins.flip(Pin::A3);
                pins.flip(Pin::A4);
            }
        });
        stack.read(block(1));
        stack.setPinCorruptor({});

        // A dying chip in bank 2 (corrected, chip mask) and a dead row
        // in bank 3 (uncorrectable; retries exhaust, the bank is
        // quarantined).
        stack.rank().setReadDisturb(
            [&rng](const MtbAddress &addr, Burst &out) {
                if (addr.bg == 2) {
                    const unsigned pin = 5 * Burst::pinsPerChip;
                    out.setBit(pin, 0, !out.getBit(pin, 0));
                } else if (addr.bg == 3) {
                    out.randomize(rng);
                }
            });
        for (unsigned i = 0; i < 64; ++i)
            stack.read(block(i));
        stack.rank().setReadDisturb({});

        // Standalone data-codec symptoms: "data-ecc" detections.
        DataMonteCarlo mc(EccScheme::EDeccQpc);
        mc.setObserver(&observer);
        mc.setRetryPolicy({3, 1.0}); // address errors outlive retries
        mc.runCell(DataErrorModel::Chip1, AddrErrorModel::None, 20);
        mc.runCell(DataErrorModel::None, AddrErrorModel::Bits32, 20);
        observer.flush();
    }

    const obs::TraceFile trace = obs::readTraceFile(path);
    ASSERT_TRUE(trace.opened);
    ASSERT_EQ(trace.badLines, 0u);
    ras::HealthMonitor replayed;
    unsigned seen[6] = {}, chipMasks = 0, pins = 0, dataEcc = 0;
    for (obs::TraceEvent event : trace.events) {
        replayed.record(event);
        ++seen[static_cast<unsigned>(event.symptom)];
        chipMasks += event.chips != 0;
        pins += event.pin >= 0;
        dataEcc += event.detailText().rfind("data-ecc", 0) == 0;
    }
    EXPECT_EQ(replayed.serializeState(), live.serializeState());

    // Every symptom the monitor reads was exercised.
    EXPECT_GT(seen[static_cast<unsigned>(obs::Symptom::Alert)], 0u);
    EXPECT_GT(seen[static_cast<unsigned>(obs::Symptom::DataCe)], 0u);
    EXPECT_GT(seen[static_cast<unsigned>(obs::Symptom::DataUe)], 0u);
    EXPECT_GT(seen[static_cast<unsigned>(obs::Symptom::Exhausted)], 0u);
    EXPECT_GT(seen[static_cast<unsigned>(obs::Symptom::Quarantine)], 0u);
    EXPECT_GT(chipMasks, 0u);
    EXPECT_GT(pins, 0u);
    EXPECT_GT(dataEcc, 0u);
    std::remove(path.c_str());
}

} // namespace
} // namespace aiecc
