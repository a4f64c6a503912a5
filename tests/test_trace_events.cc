/**
 * @file
 * Tests for the typed trace-event path (obs/trace.hh): every event
 * kind and every Detail form, as the producers build them, survives
 * writeJson -> parseTraceLine -> writeJson byte for byte and comes
 * back as the same typed facts; a recorded stack trace and the
 * mini_trace fixture re-write to their own bytes; and emitting each
 * producer's events through a warmed observer allocates nothing.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "aiecc/detection.hh"
#include "aiecc/diagnosis.hh"
#include "aiecc/stack.hh"
#include "dram/config.hh"
#include "inject/campaign.hh"
#include "obs/lineage.hh"
#include "obs/memprof.hh"
#include "obs/observer.hh"
#include "obs/trace_reader.hh"
#include "ras/health.hh"

namespace aiecc
{
namespace
{

using obs::Detail;
using obs::EventKind;
using obs::TraceEvent;

std::string
jsonOf(const TraceEvent &event)
{
    obs::JsonWriter w(0);
    event.writeJson(w);
    return w.str();
}

DetectionEvent
alertDetection(Mechanism mech, const Alert &alert)
{
    DetectionEvent det{.mech = mech,
                       .when = 500,
                       .early = true,
                       .diagnosedAddress = std::nullopt,
                       .accessAddress = std::nullopt,
                       .alert = alert};
    det.faultId = 0x1234567;
    return det;
}

/** The pin errors campaignEvents() injects. */
std::vector<std::pair<CommandPattern, PinError>>
campaignErrors()
{
    return {{CommandPattern::ActWr, PinError::twoPin(Pin::A3, Pin::BG1)},
            {CommandPattern::Rd, PinError::intermittent(Pin::CS, 3)},
            {CommandPattern::Pre, PinError::allPins(7)}};
}

/** What a traced, ledgered InjectionCampaign emits for those trials. */
std::vector<TraceEvent>
campaignEvents()
{
    obs::Observer observer;
    obs::VectorTraceSink sink;
    obs::LineageLedger ledger;
    observer.addSink(&sink);
    observer.setLineage(&ledger);
    InjectionCampaign campaign(Mechanisms::forLevel(ProtectionLevel::Aiecc));
    campaign.setObserver(&observer);
    for (const auto &[pattern, error] : campaignErrors())
        campaign.runTrial(pattern, error);
    return sink.take();
}

/**
 * One event of every kind and every Detail form, each built the way
 * its producer builds it (the producer's own function where it has
 * one, else the same initializer).
 */
std::vector<TraceEvent>
producerEvents()
{
    const Geometry geom;
    const MtbAddress addr{1, 2, 3, 0x1f, 0x5};
    const Command rd = Command::rd(1, 2, 0x18, true);
    std::vector<TraceEvent> events;

    // Controller command edges.
    events.push_back({.kind = EventKind::CommandIssued,
                      .cycle = 10,
                      .value = 3,
                      .label = cmdName(CmdType::Act)});
    events.push_back({.kind = EventKind::PinCorruption,
                      .cycle = 11,
                      .value = 2,
                      .label = cmdName(CmdType::Rd)});

    // Stack detections: device alerts and flagged reads.
    events.push_back(detectionTrace(
        alertDetection(Mechanism::ECap,
                       {.kind = AlertKind::CaParity,
                        .when = 500,
                        .cmd = rd,
                        .flatBank = std::nullopt}),
        geom));
    events.push_back(detectionTrace(
        alertDetection(Mechanism::EWcrc, {.kind = AlertKind::Wcrc,
                                          .when = 500,
                                          .cmd = Command::wr(0, 1, 8),
                                          .deviceAddress = addr,
                                          .flatBank = 4}),
        geom));
    events.push_back(detectionTrace(
        alertDetection(Mechanism::Cstc,
                       {.kind = AlertKind::Cstc,
                        .when = 500,
                        .why = "RD to a closed bank",
                        .cmd = Command::act(3, 0, 0x2a),
                        .flatBank = 12}),
        geom));
    events.push_back(detectionTrace(
        {.mech = Mechanism::EDecc,
         .when = 600,
         .addressError = true,
         .corrected = true,
         .diagnosedAddress = addr.pack(geom) ^ 0x40,
         .accessAddress = addr.pack(geom),
         .correctedChips = 0x81,
         .codec = "QPC+eDECC-c"},
        geom));
    events.push_back(detectionTrace({.mech = Mechanism::Decc,
                                     .when = 601,
                                     .diagnosedAddress = std::nullopt,
                                     .accessAddress = addr.pack(geom),
                                     .codec = "QPC"},
                                    geom));
    // Monte-Carlo detection (tagged text), GDDR5 bench (label only).
    events.push_back({.kind = EventKind::Detection,
                      .symptom = obs::Symptom::DataCe,
                      .detail = Detail::Why,
                      .cycle = 7,
                      .value = 99,
                      .label = "QPC",
                      .why = "data-ecc corrected"});
    events.push_back({.kind = EventKind::Detection,
                      .symptom = obs::Symptom::Alert,
                      .cycle = 8,
                      .label = "CSTC"});

    // Recovery engine, stack and replay harness.
    events.push_back({.kind = EventKind::Retry,
                      .detail = Detail::Replay,
                      .cycle = 700,
                      .value = 1,
                      .label = "ca-parity",
                      .cmd = Command::wr(2, 3, 0x3f8, false)});
    events.push_back({.kind = EventKind::Retry,
                      .detail = Detail::ReissueRd,
                      .cycle = 701,
                      .value = 2,
                      .label = "read-decode",
                      .addr = addr});
    events.push_back({.kind = EventKind::Retry,
                      .detail = Detail::Window,
                      .cycle = 702,
                      .value = addr.pack(geom),
                      .label = "wr",
                      .addr = addr});
    events.push_back({.kind = EventKind::Retry,
                      .cycle = 703,
                      .value = 1,
                      .label = "re-read"});
    events.push_back({.kind = EventKind::Recovery,
                      .detail = Detail::Why,
                      .cycle = 710,
                      .value = 2,
                      .label = "read-decode",
                      .why = "in-band recovery succeeded"});
    events.push_back({.kind = EventKind::Recovery,
                      .symptom = obs::Symptom::Exhausted,
                      .detail = Detail::Why,
                      .cycle = 711,
                      .value = 4,
                      .label = "cstc",
                      .why = "retry budget exhausted"});
    events.push_back({.kind = EventKind::Recovery,
                      .detail = Detail::Why,
                      .cycle = 712,
                      .why = "resync WRT, drain read FIFO, PREA"});
    events.push_back({.kind = EventKind::Scrub,
                      .detail = Detail::ScrubBack,
                      .cycle = 720,
                      .value = addr.pack(geom),
                      .label = "QPC+eDECC-c",
                      .addr = addr});
    events.push_back({.kind = EventKind::Escalation,
                      .symptom = obs::Symptom::Quarantine,
                      .detail = Detail::Why,
                      .cycle = 730,
                      .value = 5,
                      .label = "quarantine",
                      .why = "leaky bucket overflowed: bank quarantined"});
    events.push_back({.kind = EventKind::Escalation,
                      .detail = Detail::Why,
                      .cycle = 731,
                      .value = 4,
                      .label = "rank_degraded",
                      .why = "quarantined-bank threshold crossed"});
    events.push_back({.kind = EventKind::PatrolScrub,
                      .detail = Detail::Patrol,
                      .cycle = 740,
                      .value = addr.pack(),
                      .label = "patrol",
                      .addr = addr});

    // eDECC diagnoses: pins from row and column bits, and none.
    TraceEvent diag =
        diagnosisTrace(addr.pack(geom), addr.pack(geom) ^ 0x00041082, geom);
    diag.cycle = 750;
    events.push_back(diag);
    diag = diagnosisTrace(addr.pack(geom), addr.pack(geom), geom);
    diag.cycle = 751;
    events.push_back(diag);

    // Campaign lineage and classification, from traced trials.
    for (TraceEvent &e : campaignEvents())
        events.push_back(e);
    events.push_back({.kind = EventKind::FaultResolve,
                      .cycle = 821,
                      .faultId = 0xabcdef3,
                      .label = obs::faultTerminalName(
                          obs::FaultTerminal::Masked)});
    events.push_back({.kind = EventKind::FaultResolve,
                      .detail = Detail::Why,
                      .cycle = 822,
                      .value = 9,
                      .faultId = 0xabcdef5,
                      .label = obs::faultTerminalName(
                          obs::FaultTerminal::Corrected),
                      .why = obs::internText("row:b3:r17")});

    // The health monitor's own transitions and recommendations.
    obs::Observer feedback;
    obs::VectorTraceSink emitted;
    feedback.addSink(&emitted);
    ras::HealthMonitor monitor;
    monitor.setObserver(&feedback);
    for (unsigned i = 0; i < 8; ++i) {
        TraceEvent ue{.kind = EventKind::Detection,
                      .symptom = obs::Symptom::DataUe,
                      .cycle = 1000 + 10 * i,
                      .value = MtbAddress{0, 1, 2, 9, i}.pack(geom)};
        monitor.record(ue);
    }
    bool health = false, action = false;
    for (const TraceEvent &e : emitted.events()) {
        health |= e.kind == EventKind::RasHealth;
        action |= e.kind == EventKind::RasAction;
        events.push_back(e);
    }
    EXPECT_TRUE(health && action);
    return events;
}

TEST(TraceEvents, EveryKindAndFormRoundTripsByteForByte)
{
    const std::vector<TraceEvent> events = producerEvents();
    bool kinds[obs::numEventKinds] = {};
    bool forms[static_cast<unsigned>(Detail::Recommend) + 1] = {};
    for (const TraceEvent &event : events) {
        kinds[static_cast<unsigned>(event.kind)] = true;
        forms[static_cast<unsigned>(event.detail)] = true;
        const std::string line = jsonOf(event);
        std::string error;
        const auto parsed = obs::parseTraceLine(line, &error);
        ASSERT_TRUE(parsed.has_value()) << line << ": " << error;
        EXPECT_EQ(jsonOf(*parsed), line);
        // Back as the same typed facts, not as kept text.
        EXPECT_EQ(parsed->detail, event.detail) << line;
        EXPECT_EQ(parsed->symptom, event.symptom) << line;
        EXPECT_EQ(parsed->chips, event.chips) << line;
        EXPECT_EQ(parsed->pin, event.pin) << line;
        EXPECT_EQ(parsed->cmd, event.cmd) << line;
        EXPECT_EQ(parsed->addr, event.addr) << line;
        EXPECT_EQ(parsed->edges, event.edges) << line;
        EXPECT_EQ(parsed->pins.all, event.pins.all) << line;
        ASSERT_EQ(parsed->pins.size, event.pins.size) << line;
        for (uint8_t p = 0; p < event.pins.size; ++p)
            EXPECT_EQ(parsed->pins.pins[p], event.pins.pins[p]) << line;
    }
    for (unsigned k = 0; k < obs::numEventKinds; ++k)
        EXPECT_TRUE(kinds[k]) << obs::eventKindNameView(EventKind(k));
    for (unsigned f = 0; f < std::size(forms); ++f)
        EXPECT_TRUE(forms[f]) << "detail form " << f;
}

TEST(TraceEvents, RenderedTextMatchesTheProducersWording)
{
    const Geometry geom;
    const MtbAddress addr{1, 2, 3, 0x1f, 0x5};
    DetectionEvent det{.mech = Mechanism::EDecc,
                       .when = 600,
                       .corrected = true,
                       .diagnosedAddress = std::nullopt,
                       .accessAddress = addr.pack(geom),
                       .correctedChips = 0x81,
                       .codec = "QPC+eDECC-c"};
    EXPECT_EQ(detectionTrace(det, geom).detailText(),
              "QPC+eDECC-c corrected read @rank1.bg2.ba3.row0x1f.col0x5 "
              "chips=81");
    const TraceEvent diag =
        diagnosisTrace(addr.pack(geom), addr.pack(geom) ^ 0x81, geom);
    EXPECT_EQ(diag.detailText(),
              diagnoseAddress(addr.pack(geom), addr.pack(geom) ^ 0x81, geom)
                  .toString());
    EXPECT_EQ(diag.labelText(), "A3");
    EXPECT_EQ(diag.pin, static_cast<int>(Pin::A3));
}

TEST(TraceEvents, TrialTextMatchesThePinErrorsOwnWording)
{
    // A Classification renders its injected pins itself; the words
    // must stay those of PinError::toString(), which names the site.
    const auto errors = campaignErrors();
    size_t next = 0;
    for (const TraceEvent &event : campaignEvents()) {
        if (event.kind != EventKind::Classification)
            continue;
        ASSERT_LT(next, errors.size());
        const auto &[pattern, error] = errors[next++];
        const std::string head =
            std::string(patternName(pattern)) + " / " + error.toString();
        EXPECT_EQ(event.detailText().substr(0, head.size()), head);
        const std::string rest = event.detailText().substr(head.size());
        EXPECT_TRUE(rest.empty() || rest[0] == ' ') << rest;
    }
    EXPECT_EQ(next, errors.size());
}

TEST(TraceEvents, FixtureAndRecordedTraceRewriteToTheirOwnBytes)
{
    const std::string path =
        ::testing::TempDir() + "/aiecc_test_typed_events.jsonl";
    {
        obs::JsonlTraceSink file(path);
        ASSERT_TRUE(file.ok());
        obs::Observer observer;
        observer.addSink(&file);
        StackConfig cfg;
        cfg.mech = Mechanisms::forLevel(ProtectionLevel::Aiecc);
        cfg.scrubOnCorrection = true;
        cfg.observer = &observer;
        ProtectionStack stack(cfg);
        Rng rng(0x7E57);
        const std::vector<Pin> pins = injectablePins(true);
        stack.setPinCorruptor([&rng, &pins](uint64_t, PinWord &word) {
            if (rng.chance(0.05))
                word.flip(pins[rng.below(pins.size())]);
        });
        BitVec payload(Burst::dataBits);
        for (unsigned i = 0; i < 400; ++i) {
            const MtbAddress a{0, i % 4, (i / 4) % 4, i % 13, i % 32};
            if (i % 3 == 0) {
                payload.setField(0, 64, rng.next());
                stack.write(a, payload);
            } else {
                stack.read(a);
            }
        }
    }
    for (const std::string &file :
         {path, std::string(AIECC_TEST_DATA_DIR) + "/mini_trace.jsonl"}) {
        std::ifstream in(file);
        std::string line;
        unsigned lines = 0;
        while (std::getline(in, line)) {
            const auto event = obs::parseTraceLine(line);
            ASSERT_TRUE(event.has_value()) << line;
            EXPECT_EQ(jsonOf(*event), line);
            ++lines;
        }
        EXPECT_GT(lines, 10u) << file;
    }
    std::remove(path.c_str());
}

TEST(TraceEvents, WarmedObserverEmitsWithoutAllocating)
{
    const std::string path =
        ::testing::TempDir() + "/aiecc_test_event_allocs.jsonl";
    const std::vector<TraceEvent> events = producerEvents();
    const Geometry geom;
    const MtbAddress addr{0, 3, 1, 0x2b, 0x11};
    const DetectionEvent det{.mech = Mechanism::EDecc,
                             .when = 900,
                             .corrected = true,
                             .diagnosedAddress = std::nullopt,
                             .accessAddress = addr.pack(geom),
                             .correctedChips = 0x4,
                             .codec = "QPC+eDECC-c"};

    obs::Observer observer;
    ras::HealthMonitor health;
    obs::JsonlTraceSink jsonl(path);
    obs::VectorTraceSink vec;
    ASSERT_TRUE(jsonl.ok());
    observer.addSink(&health);
    observer.addSink(&jsonl);
    observer.addSink(&vec);
    observer.setFaultContext(0x77);
    const auto emitAll = [&] {
        for (const TraceEvent &event : events)
            observer.emit(event);
        // Producers that build their events on the spot.
        observer.emit(detectionTrace(det, geom));
        observer.emit(diagnosisTrace(addr.pack(geom),
                                     addr.pack(geom) ^ 0x30003, geom));
    };
    vec.reserve(4 * (events.size() + 2));
    emitAll(); // warm-up: sizes the sink's line buffer

    const uint64_t before = obs::memprof::threadAllocs();
    for (int i = 0; i < 3; ++i)
        emitAll();
    EXPECT_EQ(obs::memprof::threadAllocs() - before, 0u);
    EXPECT_EQ(vec.size(), 4 * (events.size() + 2));
    EXPECT_EQ(jsonl.dropped(), 0u);
    std::remove(path.c_str());
}

} // namespace
} // namespace aiecc
