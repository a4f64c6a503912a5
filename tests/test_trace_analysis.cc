/**
 * @file
 * Tests for offline trace analysis: the eventKindFromName inverse,
 * the flat JSONL line parser (typed members, escape handling, malformed
 * input, and the refusal of format-1 "detail" lines), the heartbeat
 * parser's boolean "forced" member, whole-file reading against the
 * checked-in miniature fixture, per-kind summaries, filtering, and the
 * structural validity of the Chrome trace-event export (the
 * golden-output contract behind `aiecc-trace export --chrome`).  A
 * seeded mutation test drives both flat-line parsers — trace events
 * and heartbeat records — with damaged lines: each must end in an
 * error or a successful parse.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "obs/heartbeat.hh"
#include "obs/json.hh"
#include "obs/trace.hh"
#include "obs/trace_reader.hh"

#ifndef AIECC_TEST_DATA_DIR
#error "AIECC_TEST_DATA_DIR must point at tests/data"
#endif

namespace aiecc
{
namespace
{

const std::string fixture =
    std::string(AIECC_TEST_DATA_DIR) + "/mini_trace.jsonl";

// ---- eventKindFromName ----

TEST(EventKindName, RoundTripsEveryKind)
{
    for (unsigned k = 0; k < obs::numEventKinds; ++k) {
        const auto kind = static_cast<obs::EventKind>(k);
        const std::string name(obs::eventKindNameView(kind));
        const auto back = obs::eventKindFromName(name);
        ASSERT_TRUE(back.has_value()) << name;
        EXPECT_EQ(*back, kind) << name;
    }
}

TEST(EventKindName, UnknownNamesAreRejected)
{
    EXPECT_FALSE(obs::eventKindFromName("").has_value());
    EXPECT_FALSE(obs::eventKindFromName("Command").has_value());
    EXPECT_FALSE(obs::eventKindFromName("commandX").has_value());
}

// ---- parseTraceLine ----

TEST(ParseTraceLine, FullObjectInAnyMemberOrder)
{
    const auto event = obs::parseTraceLine(
        R"({"value":3,"why":"ctx","cycle":42,"kind":"retry",)"
        R"("form":"why","label":"read-decode"})");
    ASSERT_TRUE(event.has_value());
    EXPECT_EQ(event->kind, obs::EventKind::Retry);
    EXPECT_EQ(event->cycle, 42u);
    EXPECT_EQ(event->labelText(), "read-decode");
    EXPECT_EQ(event->value, 3u);
    EXPECT_EQ(event->detailText(), "ctx");
}

TEST(ParseTraceLine, OmittedMembersDefault)
{
    const auto event = obs::parseTraceLine(R"({"kind":"scrub"})");
    ASSERT_TRUE(event.has_value());
    EXPECT_EQ(event->kind, obs::EventKind::Scrub);
    EXPECT_EQ(event->cycle, 0u);
    EXPECT_EQ(event->labelText(), "");
    EXPECT_EQ(event->value, 0u);
}

TEST(ParseTraceLine, EscapesRoundTripThroughTheWriter)
{
    // The writer emits \" \\ \n and \u00XX; the parser must undo all
    // of them so sink -> file -> reader is the identity.
    obs::TraceEvent original;
    original.kind = obs::EventKind::Detection;
    original.cycle = 7;
    original.label = "quote\" back\\slash";
    original.value = 9;
    const std::string detail = std::string("tab\tnewline\nnul:") + '\x01';
    original.detail = obs::Detail::Why;
    original.why = detail.c_str();
    obs::JsonWriter w(0);
    original.writeJson(w);
    const auto parsed = obs::parseTraceLine(w.str());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->kind, original.kind);
    EXPECT_EQ(parsed->cycle, original.cycle);
    EXPECT_EQ(parsed->labelText(), original.labelText());
    EXPECT_EQ(parsed->value, original.value);
    EXPECT_EQ(parsed->detailText(), original.detailText());
}

TEST(ParseTraceLine, MalformedInputIsRejectedWithDiagnostics)
{
    std::string error;
    EXPECT_FALSE(obs::parseTraceLine("", &error).has_value());
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(obs::parseTraceLine("not json").has_value());
    EXPECT_FALSE(obs::parseTraceLine(R"({"cycle":1})").has_value())
        << "kind is mandatory";
    EXPECT_FALSE(
        obs::parseTraceLine(R"({"kind":"martian"})").has_value());
    EXPECT_FALSE(
        obs::parseTraceLine(R"({"kind":"scrub","cycle":"ten"})")
            .has_value());
    EXPECT_FALSE(
        obs::parseTraceLine(R"({"kind":"scrub","cycle":1.5})")
            .has_value());
    EXPECT_FALSE(
        obs::parseTraceLine(R"({"kind":"scrub","label":{"x":1}})")
            .has_value())
        << "nested values are outside the schema";
    EXPECT_FALSE(
        obs::parseTraceLine(R"({"kind":"scrub"} trailing)").has_value());

    // Typed members: names from their tables, numbers that fit.
    const std::string pastLastPin = std::to_string(numCccaPins);
    for (const std::string &line : {
             std::string(R"({"kind":"scrub","form":"sonnet"})"),
             std::string(R"({"kind":"scrub","form":3})"),
             std::string(R"({"kind":"detection","symptom":"grumpy"})"),
             std::string(R"({"kind":"retry","form":"replay","cmd":"JMP"})"),
             std::string(R"({"kind":"diagnosis","pins":"A3+Q9"})"),
             std::string(R"({"kind":"diagnosis","pins":"A3++BG1"})"),
             std::string(R"({"kind":"diagnosis","pins":"A3+"})"),
             std::string(R"({"kind":"diagnosis","pins":""})"),
             std::string(R"({"kind":"diagnosis","pins":3})"),
             std::string(R"({"kind":"detection","chips":"81"})"),
             std::string(R"({"kind":"retry","form":"window","row":"0x1f"})"),
             std::string(R"({"kind":"classification","edges":-2})"),
             std::string(R"({"kind":"detection","chips":4294967296})"),
             std::string(R"({"kind":"retry","why":7})"),
             std::string(R"({"kind":"retry","cmd":"RD","ap":1})"),
             std::string(R"({"kind":"retry","cmd":"RD","rank":1})"),
             std::string(R"({"kind":"retry","form":"window","bc":true})"),
             R"({"kind":"diagnosis","pin":)" + pastLastPin + "}",
             std::string(R"({"kind":"diagnosis","pin":-1})"),
             std::string(R"({"kind":"diagnosis","pin":"A3"})"),
         }) {
        error.clear();
        EXPECT_FALSE(obs::parseTraceLine(line, &error).has_value()) << line;
        EXPECT_FALSE(error.empty()) << line;
    }
}

TEST(ParseTraceLine, FormatOneDetailLinesAreRefused)
{
    std::string error;
    EXPECT_FALSE(obs::parseTraceLine(
                     R"({"kind":"detection","cycle":41,"label":"eDECC",)"
                     R"("value":7,"detail":"corrected read"})",
                     &error)
                     .has_value());
    EXPECT_NE(error.find("format 1"), std::string::npos) << error;
    for (const char *line : {R"({"kind":"retry","detail":""})",
                             R"({"detail":3,"kind":"retry"})"}) {
        error.clear();
        EXPECT_FALSE(obs::parseTraceLine(line, &error).has_value()) << line;
        EXPECT_NE(error.find("format 1"), std::string::npos) << error;
    }

    // A whole format-1 file: every detail line is a bad line.
    const std::string path = testing::TempDir() + "/aiecc_format1.jsonl";
    {
        std::ofstream out(path, std::ios::trunc);
        out << R"({"kind":"command","cycle":1,"label":"ACT"})" << '\n'
            << R"({"kind":"recovery","cycle":2,"detail":"retry budget )"
            << R"(exhausted"})" << '\n';
    }
    const obs::TraceFile tf = obs::readTraceFile(path);
    EXPECT_EQ(tf.events.size(), 1u);
    EXPECT_EQ(tf.badLines, 1u);
    EXPECT_NE(tf.firstError.find("format 1"), std::string::npos)
        << tf.firstError;
    std::remove(path.c_str());

    // Without "detail" a format-1 line is a format-2 line: only the
    // symptom a format-1 reader guessed from the label is gone.
    const auto plain = obs::parseTraceLine(
        R"({"kind":"detection","cycle":9,"label":"eDECC","value":3})");
    ASSERT_TRUE(plain.has_value());
    EXPECT_EQ(plain->value, 3u);
    EXPECT_EQ(plain->symptom, obs::Symptom::None);
}

TEST(ParseTraceLine, UnknownMembersAreIgnored)
{
    const auto event = obs::parseTraceLine(
        R"({"kind":"scrub","cycle":5,"future_field":1.25,)"
        R"("note":"hi","flag":true})");
    ASSERT_TRUE(event.has_value());
    EXPECT_EQ(event->cycle, 5u);
}

// ---- parseHeartbeatLine ----

TEST(ParseHeartbeatLine, ForcedMustBeABoolean)
{
    const std::string head = R"({"type":"heartbeat","seq":1,"forced":)";
    auto record = obs::parseHeartbeatLine(head + "true}");
    ASSERT_TRUE(record.has_value());
    EXPECT_TRUE(record->forced);
    record = obs::parseHeartbeatLine(head + "false}");
    ASSERT_TRUE(record.has_value());
    EXPECT_FALSE(record->forced);
    for (const char *forced : {"\"yes\"", "\"false\"", "1", "0", "null"}) {
        std::string error;
        EXPECT_FALSE(
            obs::parseHeartbeatLine(head + forced + "}", &error).has_value())
            << forced;
        EXPECT_NE(error.find("forced"), std::string::npos) << error;
    }
}

// ---- readTraceFile + the fixture ----

TEST(ReadTraceFile, MissingFileReportsNotOpened)
{
    const obs::TraceFile tf =
        obs::readTraceFile("/nonexistent/trace.jsonl");
    EXPECT_FALSE(tf.opened);
    EXPECT_TRUE(tf.events.empty());
}

TEST(ReadTraceFile, FixtureParsesCompletely)
{
    const obs::TraceFile tf = obs::readTraceFile(fixture);
    ASSERT_TRUE(tf.opened) << fixture;
    EXPECT_EQ(tf.badLines, 0u) << tf.firstError;
    EXPECT_EQ(tf.truncatedTail, 0u);
    ASSERT_EQ(tf.events.size(), 12u);
    EXPECT_EQ(tf.events.front().kind, obs::EventKind::CommandIssued);
    EXPECT_EQ(tf.events.front().cycle, 10u);
    EXPECT_EQ(tf.events.back().kind, obs::EventKind::Classification);
    EXPECT_EQ(tf.events.back().labelText(), "CE");
}

// A writer killed mid-record leaves a final line with no terminating
// newline.  That partial record is expected damage, not corruption:
// it must land in truncatedTail, leave badLines/firstError untouched,
// and not disturb the complete records before it.
TEST(ReadTraceFile, TruncatedFinalLineCountedSeparately)
{
    const std::string truncated =
        std::string(AIECC_TEST_DATA_DIR) + "/truncated_tail.jsonl";
    const obs::TraceFile tf = obs::readTraceFile(truncated);
    ASSERT_TRUE(tf.opened) << truncated;
    EXPECT_EQ(tf.truncatedTail, 1u);
    EXPECT_EQ(tf.badLines, 0u) << tf.firstError;
    EXPECT_TRUE(tf.firstError.empty()) << tf.firstError;
    ASSERT_EQ(tf.events.size(), 2u);
    EXPECT_EQ(tf.events[0].kind, obs::EventKind::CommandIssued);
    EXPECT_EQ(tf.events[1].kind, obs::EventKind::Detection);
    EXPECT_EQ(tf.events[1].value, 3);
}

// A malformed line in the *middle* of the file (newline-terminated)
// is real corruption and still goes through the badLines/firstError
// path -- only the unterminated tail gets the lenient treatment.
TEST(ReadTraceFile, MidFileGarbageStillCountsAsBadLine)
{
    const std::string path = testing::TempDir() + "/aiecc_midbad.jsonl";
    {
        std::ofstream out(path, std::ios::trunc);
        out << "{\"kind\":\"command\",\"cycle\":1,\"label\":\"ACT\"}\n"
            << "{\"kind\":\"detec\n" // malformed but terminated
            << "{\"kind\":\"command\",\"cycle\":2,\"label\":\"RD\"}\n";
    }
    const obs::TraceFile tf = obs::readTraceFile(path);
    ASSERT_TRUE(tf.opened);
    EXPECT_EQ(tf.badLines, 1u);
    EXPECT_FALSE(tf.firstError.empty());
    EXPECT_EQ(tf.truncatedTail, 0u);
    EXPECT_EQ(tf.events.size(), 2u);
    std::remove(path.c_str());
}

// ---- parser mutation ----

std::vector<std::string>
fileLines(const std::string &path)
{
    std::vector<std::string> lines;
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

/** One seeded byte-level mutation of a JSONL line. */
std::string
mutateLine(std::string line, std::mt19937_64 &rng)
{
    static const char *inserts[] = {
        "\"", "{", "}", "[", ",", ":", "\\", "\\u", "\\u12", "-",
        "+", ".", "e", "1e999", "-0", "18446744073709551616", "null",
        "true", "\"\"", " ", "\x01", "\xff", "0.5", "\"kind\":", "+",
        "\"all\""};
    const size_t at = line.empty() ? 0 : rng() % (line.size() + 1);
    switch (rng() % 6) {
    case 0:
        return line.substr(0, at);
    case 1:
        if (at < line.size())
            line.erase(at, 1);
        return line;
    case 2: {
        const size_t len = rng() % 12;
        return line.insert(at, line.substr(at, len));
    }
    case 3:
        return line.insert(at, inserts[rng() % std::size(inserts)]);
    case 4:
        if (at < line.size())
            line[at] ^= static_cast<char>(1u << (rng() % 8));
        return line;
    default:
        // Replace one digit run: numbers carry the exactness rules.
        for (size_t i = at; i < line.size(); ++i) {
            if (line[i] >= '0' && line[i] <= '9') {
                size_t end = i;
                while (end < line.size() && line[end] >= '0' &&
                       line[end] <= '9')
                    ++end;
                return line.replace(i, end - i,
                                    inserts[rng() % std::size(inserts)]);
            }
        }
        return line;
    }
}

TEST(ParserMutation, DamagedLinesEndInErrorsNotAborts)
{
    // Seeds: the checked-in fixtures (torn tail included), an
    // escape-heavy event the writer emits, and the records a live
    // heartbeat writes.
    std::vector<std::string> traceSeeds = fileLines(fixture);
    for (const std::string &line : fileLines(
             std::string(AIECC_TEST_DATA_DIR) + "/truncated_tail.jsonl"))
        traceSeeds.push_back(line);
    obs::TraceEvent escaped;
    escaped.kind = obs::EventKind::FaultResolve;
    escaped.cycle = 18446744073709551615u;
    escaped.faultId = 0xfeed;
    escaped.label = "quote\" back\\slash";
    escaped.detail = obs::Detail::Why;
    escaped.why = "tab\tnul:\x01";
    // Typed lines carrying every member the writer emits.
    const MtbAddress addr{1, 2, 3, 0x1f, 0x5};
    Command rd = Command::rd(1, 2, 0x18, true);
    rd.burstChop = true;
    obs::TraceEvent trial{.kind = obs::EventKind::Classification,
                          .detail = obs::Detail::Trial,
                          .cycle = 90,
                          .value = 4,
                          .faultId = 0xbeef,
                          .label = "SDC",
                          .why = "ACT+WR",
                          .mech = "eCAP",
                          .recovery = "retry",
                          .attempts = 2,
                          .edges = 3};
    trial.pins.push(Pin::A3);
    trial.pins.push(Pin::BG1);
    obs::TraceEvent diagnosis{.kind = obs::EventKind::Diagnosis,
                              .detail = obs::Detail::Diagnosis,
                              .value = 0x1000ull << 32 | 0x1008,
                              .label = pinName(Pin::A3),
                              .pin = static_cast<int>(Pin::A3)};
    diagnosis.pins.push(Pin::A3);
    obs::TraceEvent allPin{.kind = obs::EventKind::Classification,
                           .detail = obs::Detail::Trial,
                           .why = "PRE"};
    allPin.pins.all = true;
    for (const obs::TraceEvent &event :
         {escaped, trial, diagnosis, allPin,
          obs::TraceEvent{.kind = obs::EventKind::Detection,
                          .symptom = obs::Symptom::Alert,
                          .detail = obs::Detail::Cstc,
                          .cycle = 500,
                          .label = "CSTC",
                          .why = "RD to a closed bank",
                          .cmd = rd},
          obs::TraceEvent{.kind = obs::EventKind::Detection,
                          .symptom = obs::Symptom::DataCe,
                          .detail = obs::Detail::ReadCe,
                          .cycle = 600,
                          .label = "eDECC",
                          .why = "QPC+eDECC-c",
                          .chips = 0x81,
                          .addr = addr}}) {
        obs::JsonWriter w(0);
        event.writeJson(w);
        traceSeeds.push_back(w.str());
    }

    const std::string hbPath = testing::TempDir() + "/aiecc_hb_seed.jsonl";
    std::remove(hbPath.c_str());
    {
        obs::HeartbeatEmitter hb;
        ASSERT_TRUE(hb.open(hbPath, "mutation \"seed\""));
        hb.setTotals(10, 100);
        hb.setNote("unit 1/2 (a/b)");
        hb.setPayload([](obs::JsonWriter &pw) {
            pw.kv("cov_injected", 7);
            pw.kv("rate", 0.25);
        });
        hb.tick(1, 10);
        hb.finalTick(10, 100);
    }
    const std::vector<std::string> hbSeeds = fileLines(hbPath);
    std::remove(hbPath.c_str());
    ASSERT_EQ(hbSeeds.size(), 2u);

    std::mt19937_64 rng(0x7ace);
    uint64_t rejected = 0, accepted = 0;
    const auto judge = [&](bool parsed, const std::string &error,
                           const std::string &line) {
        EXPECT_EQ(parsed, error.empty()) << line;
        ++(parsed ? accepted : rejected);
    };
    for (const std::string &seed : traceSeeds) {
        for (unsigned i = 0; i < 300; ++i) {
            std::string line = seed;
            for (unsigned n = 1 + rng() % 3; n-- > 0;)
                line = mutateLine(line, rng);
            std::string error;
            const auto event = obs::parseTraceLine(line, &error);
            judge(event.has_value(), error, line);
            if (!event)
                continue;
            // What the reader accepts, the writer re-emits in a form
            // the reader parses back to the same event.
            obs::JsonWriter again(0);
            event->writeJson(again);
            const auto back = obs::parseTraceLine(again.str());
            ASSERT_TRUE(back.has_value()) << again.str();
            EXPECT_EQ(back->kind, event->kind);
            EXPECT_EQ(back->cycle, event->cycle);
            EXPECT_EQ(back->labelText(), event->labelText());
            EXPECT_EQ(back->detailText(), event->detailText());
            // ...and re-emits it unchanged: the writer's line is a
            // fixed point.
            obs::JsonWriter third(0);
            back->writeJson(third);
            EXPECT_EQ(third.str(), again.str());
        }
    }
    for (const std::string &seed : hbSeeds) {
        ASSERT_TRUE(obs::parseHeartbeatLine(seed).has_value()) << seed;
        for (unsigned i = 0; i < 300; ++i) {
            std::string line = seed;
            for (unsigned n = 1 + rng() % 3; n-- > 0;)
                line = mutateLine(line, rng);
            std::string error;
            const bool parsed =
                obs::parseHeartbeatLine(line, &error).has_value();
            judge(parsed, error, line);
        }
    }
    EXPECT_GT(rejected, accepted);
    EXPECT_GT(accepted, 0u);
}

// ---- summarizeTrace ----

TEST(SummarizeTrace, FixtureAggregates)
{
    const obs::TraceFile tf = obs::readTraceFile(fixture);
    ASSERT_TRUE(tf.opened);
    const obs::TraceSummary sum = obs::summarizeTrace(tf.events);

    EXPECT_EQ(sum.totalEvents, 12u);
    EXPECT_EQ(sum.firstCycle, 10u);
    EXPECT_EQ(sum.lastCycle, 90u);

    const auto &commands =
        sum.byKind.at(obs::EventKind::CommandIssued);
    EXPECT_EQ(commands.count, 5u);
    EXPECT_EQ(commands.firstCycle, 10u);
    EXPECT_EQ(commands.lastCycle, 70u);
    EXPECT_EQ(commands.gaps.count(), 4u); // 5 events -> 4 gaps
    EXPECT_EQ(commands.byLabel.at("RD"), 3u);
    EXPECT_EQ(commands.byLabel.at("ACT"), 1u);

    const auto &retries = sum.byKind.at(obs::EventKind::Retry);
    EXPECT_EQ(retries.count, 2u);
    EXPECT_EQ(retries.gaps.count(), 1u);
    EXPECT_EQ(retries.gaps.max(), 18u); // cycles 42 -> 60

    // 5 commands over span [10,90] = 81 cycles.
    EXPECT_NEAR(
        sum.ratePerKiloCycle(obs::EventKind::CommandIssued),
        5000.0 / 81.0, 1e-9);
    EXPECT_EQ(sum.ratePerKiloCycle(obs::EventKind::PatrolScrub), 0.0);
}

TEST(SummarizeTrace, EmptyTrace)
{
    const obs::TraceSummary sum = obs::summarizeTrace({});
    EXPECT_EQ(sum.totalEvents, 0u);
    EXPECT_TRUE(sum.byKind.empty());
}

// ---- filterEvents ----

TEST(FilterEvents, ByKindLabelAndCycleWindow)
{
    const obs::TraceFile tf = obs::readTraceFile(fixture);
    ASSERT_TRUE(tf.opened);

    obs::TraceFilter byKind;
    byKind.kind = obs::EventKind::CommandIssued;
    EXPECT_EQ(obs::filterEvents(tf.events, byKind).size(), 5u);

    obs::TraceFilter byLabel;
    byLabel.label = "read-decode";
    EXPECT_EQ(obs::filterEvents(tf.events, byLabel).size(), 3u);

    obs::TraceFilter byWindow;
    byWindow.cycleMin = 40;
    byWindow.cycleMax = 55;
    EXPECT_EQ(obs::filterEvents(tf.events, byWindow).size(), 5u);

    obs::TraceFilter combined;
    combined.kind = obs::EventKind::CommandIssued;
    combined.label = "RD";
    combined.cycleMax = 60;
    const auto got = obs::filterEvents(tf.events, combined);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].cycle, 40u);
    EXPECT_EQ(got[1].cycle, 55u);
}

// ---- Chrome export ----

TEST(ChromeExport, FixtureProducesValidDocumentWithEpisodeSpan)
{
    const obs::TraceFile tf = obs::readTraceFile(fixture);
    ASSERT_TRUE(tf.opened);

    obs::JsonWriter w;
    const uint64_t spans = obs::writeChromeTrace(tf.events, w);
    // complete() is the writer's structural-validity guarantee: every
    // begin was matched, so the document is syntactically valid JSON.
    ASSERT_TRUE(w.complete());
    EXPECT_EQ(spans, 1u);

    const std::string doc = w.str();
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find("\"displayTimeUnit\""), std::string::npos);
    // The retry at cycle 42 and recovery at 75 pair into one span.
    EXPECT_NE(doc.find("\"episode:read-decode\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(doc.find("\"ts\": 42"), std::string::npos);
    EXPECT_NE(doc.find("\"dur\": 33"), std::string::npos);
    EXPECT_NE(doc.find("\"in-band recovery succeeded\""),
              std::string::npos);
    // Instant events carry the kind:label names.
    EXPECT_NE(doc.find("\"command:ACT\""), std::string::npos);
    EXPECT_NE(doc.find("\"detection:eDECC\""), std::string::npos);
}

TEST(ChromeExport, UnmatchedRetryEmitsNoSpan)
{
    std::vector<obs::TraceEvent> events(2);
    events[0].kind = obs::EventKind::Retry;
    events[0].cycle = 5;
    events[0].label = "wr";
    events[0].value = 1;
    events[1].kind = obs::EventKind::CommandIssued;
    events[1].cycle = 9;
    events[1].label = "WR";

    obs::JsonWriter w;
    EXPECT_EQ(obs::writeChromeTrace(events, w), 0u);
    ASSERT_TRUE(w.complete());
    EXPECT_EQ(w.str().find("\"ph\": \"X\""), std::string::npos);
}

TEST(ChromeExport, EmptyTraceStillYieldsACompleteDocument)
{
    obs::JsonWriter w;
    EXPECT_EQ(obs::writeChromeTrace({}, w), 0u);
    ASSERT_TRUE(w.complete());
    EXPECT_NE(w.str().find("\"traceEvents\""), std::string::npos);
}

} // namespace
} // namespace aiecc
