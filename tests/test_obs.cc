/**
 * @file
 * Observability-layer tests: JsonWriter structure and escaping, the
 * stats registry's naming/idempotence/reset contract, the Histogram's
 * bucket-interpolated quantiles, the JSONL trace sink, and the
 * end-to-end cross-check that a stack replay's
 * registry counters and traced events agree with the ReplayReport it
 * returns.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "aiecc/stack.hh"
#include "common/rng.hh"
#include "obs/json.hh"
#include "obs/memprof.hh"
#include "obs/observer.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "workload/trace.hh"

using namespace aiecc;

// ---------------------------------------------------------------- JSON

TEST(JsonWriter, NestedStructure)
{
    obs::JsonWriter w(0);
    w.beginObject()
        .kv("n", 3)
        .key("list")
        .beginArray()
        .value(1)
        .value("two")
        .value(true)
        .null()
        .endArray()
        .key("sub")
        .beginObject()
        .kv("f", 0.5)
        .endObject()
        .endObject();
    EXPECT_TRUE(w.complete());
    EXPECT_EQ(w.str(),
              "{\"n\":3,\"list\":[1,\"two\",true,null],"
              "\"sub\":{\"f\":0.5}}");
}

TEST(JsonWriter, IndentedOutputIsStable)
{
    obs::JsonWriter w(2);
    w.beginObject().kv("a", 1).endObject();
    EXPECT_EQ(w.str(), "{\n  \"a\": 1\n}");
}

TEST(JsonWriter, EscapesControlAndQuoteCharacters)
{
    EXPECT_EQ(obs::JsonWriter::escape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(obs::JsonWriter::escape("line\nfeed\ttab"),
              "line\\nfeed\\ttab");
    EXPECT_EQ(obs::JsonWriter::escape(std::string("\x01", 1)),
              "\\u0001");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull)
{
    obs::JsonWriter w(0);
    w.beginArray()
        .value(std::numeric_limits<double>::infinity())
        .value(std::numeric_limits<double>::quiet_NaN())
        .value(1.25)
        .endArray();
    EXPECT_EQ(w.str(), "[null,null,1.25]");
}

TEST(JsonWriter, DoublesRoundTrip)
{
    obs::JsonWriter w(0);
    w.beginArray().value(0.1).value(1e-22).value(3.0).endArray();
    EXPECT_EQ(w.str(), "[0.1,1e-22,3]");
}

TEST(JsonWriter, NonFiniteWarnsOnceOnStderr)
{
    obs::JsonWriter::resetNonFiniteWarning();
    obs::JsonWriter w(0);
    testing::internal::CaptureStderr();
    w.beginArray()
        .value(std::numeric_limits<double>::quiet_NaN())
        .value(-std::numeric_limits<double>::infinity())
        .value(std::numeric_limits<double>::quiet_NaN())
        .endArray();
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(w.str(), "[null,null,null]");
    // Exactly one warning for three offending values.
    const auto first = err.find("non-finite");
    ASSERT_NE(first, std::string::npos) << err;
    EXPECT_EQ(err.find("non-finite", first + 1), std::string::npos)
        << err;

    // A second writer in the same process stays silent until reset.
    testing::internal::CaptureStderr();
    obs::JsonWriter w2(0);
    w2.beginArray()
        .value(std::numeric_limits<double>::infinity())
        .endArray();
    EXPECT_TRUE(testing::internal::GetCapturedStderr().empty());
    obs::JsonWriter::resetNonFiniteWarning();
}

// ------------------------------------------------------------ registry

TEST(StatsRegistry, FindOrCreateIsIdempotent)
{
    obs::StatsRegistry reg;
    obs::Counter &a = reg.counter("stack.retries", "desc");
    obs::Counter &b = reg.counter("stack.retries");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.description(), "desc"); // first registration wins
    EXPECT_EQ(reg.size(), 1u);
}

TEST(StatsRegistry, CounterValueAndLookup)
{
    obs::StatsRegistry reg;
    obs::Counter &c = reg.counter("cstc.alerts");
    ++c;
    c += 2;
    EXPECT_EQ(reg.counterValue("cstc.alerts"), 3u);
    EXPECT_EQ(reg.counterValue("never.registered"), 0u);
    EXPECT_EQ(reg.findCounter("cstc.alerts"), &c);
    EXPECT_EQ(reg.findCounter("never.registered"), nullptr);
}

TEST(StatsRegistry, ResetKeepsRegistrationsAndAddresses)
{
    obs::StatsRegistry reg;
    obs::Counter &c = reg.counter("a.b");
    obs::Scalar &s = reg.scalar("a.c");
    obs::Histogram &h = reg.histogram("a.d");
    ++c;
    s = 2.5;
    h.sample(7);
    reg.reset();
    EXPECT_EQ(reg.size(), 3u);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(s.value(), 0.0);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(&reg.counter("a.b"), &c); // same object after reset
    ++c;
    EXPECT_EQ(reg.counterValue("a.b"), 1u);
}

TEST(StatsRegistry, HistogramTracksDistribution)
{
    obs::StatsRegistry reg;
    obs::Histogram &h = reg.histogram("lat");
    for (uint64_t v : {0u, 1u, 2u, 3u, 8u})
        h.sample(v);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 8u);
    EXPECT_DOUBLE_EQ(h.mean(), 14.0 / 5.0);
    EXPECT_EQ(h.bucket(0), 1u); // value 0
    EXPECT_EQ(h.bucket(1), 1u); // value 1
    EXPECT_EQ(h.bucket(2), 2u); // values 2,3
    EXPECT_EQ(h.bucket(4), 1u); // value 8
}

TEST(Histogram, MergeAddsCountsAndWidensRange)
{
    obs::Histogram a, b;
    for (uint64_t v : {1u, 2u, 3u})
        a.sample(v);
    for (uint64_t v : {0u, 8u, 9u})
        b.sample(v);
    a.merge(b);
    EXPECT_EQ(a.count(), 6u);
    EXPECT_DOUBLE_EQ(a.sum(), 23.0);
    EXPECT_EQ(a.min(), 0u);
    EXPECT_EQ(a.max(), 9u);
    EXPECT_EQ(a.bucket(0), 1u); // value 0
    EXPECT_EQ(a.bucket(1), 1u); // value 1
    EXPECT_EQ(a.bucket(2), 2u); // values 2,3
    EXPECT_EQ(a.bucket(4), 2u); // values 8,9

    // Merging an empty histogram is a no-op either way.
    obs::Histogram empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 6u);
    obs::Histogram dst;
    dst.merge(a);
    EXPECT_EQ(dst.count(), 6u);
    EXPECT_EQ(dst.min(), 0u);
    EXPECT_EQ(dst.max(), 9u);
}

TEST(StatsRegistry, MergeFoldsEveryKind)
{
    obs::StatsRegistry parent, shard;
    parent.counter("n", "events") += 5;
    parent.scalar("rate") = 0.25;
    parent.histogram("lat").sample(4);

    shard.counter("n") += 3;
    shard.counter("only.in.shard") += 2;
    shard.scalar("rate") = 0.75;
    shard.histogram("lat").sample(16);

    parent.merge(shard);
    EXPECT_EQ(parent.counterValue("n"), 8u);
    EXPECT_EQ(parent.counterValue("only.in.shard"), 2u);
    // Scalars are last-writer-wins, matching assignment semantics.
    obs::JsonWriter w(0);
    parent.writeJson(w);
    EXPECT_NE(w.str().find("\"rate\":0.75"), std::string::npos)
        << w.str();
    const obs::Histogram &lat = parent.histogram("lat");
    EXPECT_EQ(lat.count(), 2u);
    EXPECT_EQ(lat.min(), 4u);
    EXPECT_EQ(lat.max(), 16u);
    // Descriptions survive: first registration wins.
    EXPECT_EQ(parent.counter("n").description(), "events");
}

TEST(StatsRegistry, MergeIntoEmptyClonesSource)
{
    obs::StatsRegistry src, dst;
    src.counter("a.b", "desc") += 7;
    src.scalar("a.c") = 1.5;
    src.histogram("a.d").sample(3);
    dst.merge(src);
    EXPECT_EQ(dst.size(), 3u);
    EXPECT_EQ(dst.counterValue("a.b"), 7u);
    EXPECT_EQ(dst.counter("a.b").description(), "desc");
    EXPECT_EQ(dst.histogram("a.d").count(), 1u);

    // Shard-order merging is associative over disjoint and shared
    // names: (dst + src) + src == counters doubled.
    dst.merge(src);
    EXPECT_EQ(dst.counterValue("a.b"), 14u);
    EXPECT_EQ(dst.histogram("a.d").count(), 2u);
}

using StatsRegistryDeathTest = ::testing::Test;

TEST(StatsRegistryDeathTest, RejectsKindAndPrefixConflicts)
{
    obs::StatsRegistry reg;
    reg.counter("stack.retries");
    // Same leaf as a different kind.
    EXPECT_DEATH(reg.scalar("stack.retries"), "stack.retries");
    // A group prefix may not be a leaf (and vice versa).
    EXPECT_DEATH(reg.counter("stack"), "stack");
    EXPECT_DEATH(reg.counter("stack.retries.sub"), "stack.retries");
    // Malformed names.
    EXPECT_DEATH(reg.counter(""), "empty");
    EXPECT_DEATH(reg.counter("a..b"), "empty component");
    EXPECT_DEATH(reg.counter("a b"), "invalid character");
}

TEST(StatsRegistry, WriteJsonNestsDottedNames)
{
    obs::StatsRegistry reg;
    ++reg.counter("stack.reads");
    reg.counter("stack.detect.eCAP") += 2;
    reg.scalar("rate") = 0.5;
    obs::JsonWriter w(0);
    reg.writeJson(w);
    EXPECT_TRUE(w.complete());
    EXPECT_EQ(w.str(),
              "{\"rate\":0.5,\"stack\":{\"detect\":{\"eCAP\":2},"
              "\"reads\":1}}");
}

// --------------------------------------------------------------- sinks

namespace
{

obs::TraceEvent
mkEvent(obs::EventKind kind, uint64_t cycle)
{
    obs::TraceEvent ev;
    ev.kind = kind;
    ev.cycle = cycle;
    return ev;
}

/** @p sink's events of one kind, oldest first. */
std::vector<obs::TraceEvent>
eventsOfKind(const obs::VectorTraceSink &sink, obs::EventKind kind)
{
    std::vector<obs::TraceEvent> out;
    for (const obs::TraceEvent &event : sink.events()) {
        if (event.kind == kind)
            out.push_back(event);
    }
    return out;
}

} // namespace

TEST(JsonlTraceSink, WritesOneEscapedObjectPerLine)
{
    const std::string path =
        testing::TempDir() + "/aiecc_test_events.jsonl";
    {
        obs::JsonlTraceSink sink(path);
        ASSERT_TRUE(sink.ok());
        obs::TraceEvent ev;
        ev.kind = obs::EventKind::Detection;
        ev.cycle = 42;
        ev.label = "eCAP";
        ev.value = 7;
        ev.detail = obs::Detail::Why;
        ev.why = "quote \" backslash \\ newline \n end";
        sink.record(ev);
        sink.record(mkEvent(obs::EventKind::Retry, 43));
        sink.flush();
        EXPECT_EQ(sink.recorded(), 2u);
    }
    std::ifstream in(path);
    std::string line1, line2, extra;
    ASSERT_TRUE(std::getline(in, line1));
    ASSERT_TRUE(std::getline(in, line2));
    EXPECT_FALSE(std::getline(in, extra));
    EXPECT_EQ(line1,
              "{\"kind\":\"detection\",\"cycle\":42,\"label\":\"eCAP\","
              "\"value\":7,\"form\":\"why\",\"why\":"
              "\"quote \\\" backslash \\\\ newline \\n end\"}");
    EXPECT_EQ(line2, "{\"kind\":\"retry\",\"cycle\":43}");
    std::remove(path.c_str());
}

TEST(JsonlTraceSink, FailedOpenCountsEveryRecordAsDropped)
{
    obs::JsonlTraceSink sink("/nonexistent-dir/trace.jsonl");
    EXPECT_FALSE(sink.ok());
    sink.record(mkEvent(obs::EventKind::Detection, 1));
    sink.record(mkEvent(obs::EventKind::Retry, 2));
    sink.flush(); // must not crash with no stream
    EXPECT_EQ(sink.recorded(), 0u);
    EXPECT_EQ(sink.dropped(), 2u);
}

TEST(JsonlTraceSink, HealthyStreamReportsNoDropsOrErrors)
{
    const std::string path =
        testing::TempDir() + "/aiecc_test_health.jsonl";
    {
        obs::JsonlTraceSink sink(path);
        ASSERT_TRUE(sink.ok());
        sink.record(mkEvent(obs::EventKind::Scrub, 9));
        EXPECT_EQ(sink.dropped(), 0u);
        EXPECT_EQ(sink.ioErrors(), 0u);
    } // destructor flushes and closes
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "{\"kind\":\"scrub\",\"cycle\":9}");
    std::remove(path.c_str());
}

TEST(JsonlTraceSink, RecordAllocatesNothingOnceWarm)
{
    const std::string path =
        testing::TempDir() + "/aiecc_test_noalloc.jsonl";
    {
        obs::JsonlTraceSink sink(path);
        ASSERT_TRUE(sink.ok());
        obs::TraceEvent ev;
        ev.kind = obs::EventKind::Classification;
        ev.cycle = 123456789;
        ev.label = "corrected";
        ev.value = 42;
        ev.detail = obs::Detail::Why;
        ev.why = "a detail longer than any small-string buffer, "
                 "with \"quotes\", a \\ and a \n to escape";
        ev.faultId = 0xF00DF00DF00DULL;
        sink.record(ev); // warm-up sizes the reused line buffer
        const uint64_t before = obs::memprof::threadAllocs();
        for (int i = 0; i < 1000; ++i)
            sink.record(ev);
        const uint64_t after = obs::memprof::threadAllocs();
        EXPECT_EQ(after - before, 0u);
        EXPECT_EQ(sink.recorded(), 1001u);
    }
    std::remove(path.c_str());
}

TEST(StatsRegistry, HistogramJsonCarriesQuantiles)
{
    obs::StatsRegistry reg;
    obs::Histogram &h = reg.histogram("lat");
    for (uint64_t v = 1; v <= 100; ++v)
        h.sample(v);
    obs::JsonWriter w(0);
    reg.writeJson(w);
    EXPECT_TRUE(w.complete());
    const std::string doc = w.str();
    for (const char *field : {"\"p50\"", "\"p90\"", "\"p99\""})
        EXPECT_NE(doc.find(field), std::string::npos) << field;
    EXPECT_NE(doc.find("\"p50\":50.5"), std::string::npos) << doc;
}

namespace
{

/** Width of the log2 bucket holding @p v (bucket 0 and 1 have width 1). */
double
bucketWidth(double v)
{
    if (v < 2.0)
        return 1.0;
    return std::exp2(std::floor(std::log2(v)));
}

} // namespace

TEST(Histogram, QuantileMatchesSortedReferenceWithinOneBucket)
{
    struct Case
    {
        const char *name;
        std::vector<uint64_t> samples;
    };
    std::vector<Case> cases;

    Rng rng(0xC0FFEE);
    Case uniform{"uniform", {}};
    for (unsigned i = 0; i < 5000; ++i)
        uniform.samples.push_back(rng.below(1000));
    cases.push_back(std::move(uniform));

    Case geometric{"geometric", {}};
    for (unsigned i = 0; i < 5000; ++i) {
        uint64_t v = 1;
        while (rng.below(2) && v < (1ull << 30))
            v <<= 1;
        geometric.samples.push_back(v + rng.below(v));
    }
    cases.push_back(std::move(geometric));

    cases.push_back({"constant", std::vector<uint64_t>(100, 42)});
    cases.push_back({"tiny", {0, 1, 2, 3, 1000}});
    cases.push_back({"single", {7}});

    const double qs[] = {0.0, 0.5, 0.9, 0.99, 1.0};
    for (const Case &c : cases) {
        obs::Histogram h;
        for (uint64_t v : c.samples)
            h.sample(v);
        std::vector<uint64_t> sorted = c.samples;
        std::sort(sorted.begin(), sorted.end());
        for (double q : qs) {
            const double est = h.quantile(q);
            if (q == 0.0) {
                // Exact: the observed minimum.
                EXPECT_DOUBLE_EQ(est,
                                 static_cast<double>(sorted.front()))
                    << c.name;
            } else if (q == 1.0) {
                // Exact: the observed maximum.
                EXPECT_DOUBLE_EQ(est,
                                 static_cast<double>(sorted.back()))
                    << c.name;
            } else {
                // The documented bound: never off by more than one
                // log2 bucket width from the true quantile, which for
                // a discrete sample is bracketed by the order
                // statistics adjacent to rank q*(n-1).
                const double rank =
                    q * static_cast<double>(sorted.size() - 1);
                const double lo = static_cast<double>(
                    sorted[static_cast<size_t>(std::floor(rank))]);
                const double hi = static_cast<double>(
                    sorted[static_cast<size_t>(std::ceil(rank))]);
                EXPECT_GE(est, lo - bucketWidth(lo))
                    << c.name << " q=" << q;
                EXPECT_LE(est, hi + bucketWidth(hi))
                    << c.name << " q=" << q;
            }
            // Always clamped to the observed range.
            EXPECT_GE(est, static_cast<double>(h.min())) << c.name;
            EXPECT_LE(est, static_cast<double>(h.max())) << c.name;
        }
    }
}

TEST(HistogramQuantile, EmptyHistogramIsZero)
{
    obs::Histogram h("empty");
    EXPECT_EQ(h.quantile(0.5), 0.0);
    EXPECT_EQ(h.quantile(0.99), 0.0);
}

TEST(HistogramQuantile, SingleValueCollapsesToThatValue)
{
    // Interpolation inside the [4,8) bucket is clamped to the observed
    // min==max, so every quantile is exact.
    obs::Histogram h("seven");
    for (int i = 0; i < 100; ++i)
        h.sample(7);
    for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(h.quantile(q), 7.0) << "q=" << q;
}

TEST(HistogramQuantile, UniformOneToHundredMedian)
{
    // 1..100 once each: rank(0.5) = 49.5 lands in the [32,64) bucket
    // after 31 smaller samples; 32 + (49.5-31)/32 * 32 = 50.5, the
    // exact midpoint of the distribution.
    obs::Histogram h("uniform");
    for (uint64_t v = 1; v <= 100; ++v)
        h.sample(v);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 50.5);

    // Tails interpolate within the right buckets and clamp to the
    // observed extremes.
    EXPECT_GE(h.quantile(0.9), 64.0);
    EXPECT_LE(h.quantile(0.9), 100.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
}

TEST(HistogramQuantile, QuantilesAreMonotone)
{
    obs::Histogram h("mono");
    uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 10000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        h.sample(x % 100000);
    }
    double prev = 0.0;
    for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
        const double v = h.quantile(q);
        EXPECT_GE(v, prev) << "q=" << q;
        prev = v;
    }
}

TEST(HistogramQuantile, OutOfRangeArgumentsClamp)
{
    obs::Histogram h("clamp");
    h.sample(10);
    h.sample(20);
    EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));
    EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
}

TEST(Observer, EmitFansOutToAllSinks)
{
    obs::Observer observer;
    obs::VectorTraceSink a, b;
    EXPECT_FALSE(observer.tracing());
    observer.addSink(&a);
    observer.addSink(&b);
    EXPECT_TRUE(observer.tracing());
    observer.emit({.kind = obs::EventKind::Scrub,
                   .detail = obs::Detail::Why,
                   .cycle = 9,
                   .value = 1,
                   .label = "QPC",
                   .why = "ctx"});
    EXPECT_EQ(a.size(), 1u);
    EXPECT_EQ(b.size(), 1u);
    EXPECT_EQ(a.events()[0].labelText(), "QPC");
}

// ---------------------------------------------- end-to-end cross-check

TEST(ObservedReplay, CountersMatchReplayReportAndRingEvents)
{
    obs::StatsRegistry reg;
    obs::VectorTraceSink sink;
    obs::Observer observer;
    observer.setStats(&reg);
    observer.addSink(&sink);

    StackConfig cfg;
    cfg.mech = Mechanisms::forLevel(ProtectionLevel::Aiecc);
    cfg.observer = &observer;
    ProtectionStack stack(cfg);

    WorkloadParams params;
    const auto trace = generateTrace(params, 400, stack.geometry());
    ReplayConfig rc;
    rc.edgeErrorRate = 0.02; // high enough to exercise every path
    const ReplayReport report = replayTrace(stack, trace, rc);

    // The noise rate must actually have produced work.
    ASSERT_GT(report.injectedErrors, 0u);
    ASSERT_GT(report.detections, 0u);
    ASSERT_GT(report.retries, 0u);

    // Registry counters mirror the report.
    EXPECT_EQ(reg.counterValue("replay.accesses"), report.accesses);
    EXPECT_EQ(reg.counterValue("stack.retries"), report.retries);
    EXPECT_EQ(reg.counterValue("replay.flagged_reads"),
              report.flaggedReads);
    EXPECT_EQ(reg.counterValue("replay.corrupt_reads"),
              report.corruptReads);
    EXPECT_EQ(reg.counterValue("controller.commands"),
              report.commandEdges);
    EXPECT_EQ(reg.counterValue("controller.pin_corruptions"),
              report.injectedErrors);
    EXPECT_EQ(reg.counterValue("stack.detections"), report.detections);
    for (unsigned m = 0; m < 7; ++m) {
        const Mechanism mech = static_cast<Mechanism>(m);
        const auto it = report.byMechanism.find(mech);
        const uint64_t expect =
            it == report.byMechanism.end() ? 0 : it->second;
        EXPECT_EQ(reg.counterValue(std::string("stack.detect.") +
                                   mechanismName(mech)),
                  expect)
            << mechanismName(mech);
    }

    // Traced Detection events agree with the per-mechanism counters.
    std::map<std::string, uint64_t> byLabel;
    for (const auto &ev : eventsOfKind(sink, obs::EventKind::Detection))
        ++byLabel[std::string(ev.labelText())];
    for (unsigned m = 0; m < 7; ++m) {
        const std::string name =
            mechanismName(static_cast<Mechanism>(m));
        EXPECT_EQ(byLabel[name],
                  reg.counterValue("stack.detect." + name))
            << name;
    }

    // Retry events were emitted one per re-executed access.  The
    // harness labels its window-replay retries "wr"/"rd"; the stack's
    // in-band recovery engine emits its own Retry events labeled by
    // cause ("ca-parity", "read-decode", ...), which the report does
    // not count.
    uint64_t harnessRetries = 0;
    for (const auto &ev : eventsOfKind(sink, obs::EventKind::Retry)) {
        if (ev.labelText() == "wr" || ev.labelText() == "rd")
            ++harnessRetries;
    }
    EXPECT_EQ(harnessRetries, report.retries);
    // Every command edge was traced.
    EXPECT_EQ(eventsOfKind(sink, obs::EventKind::CommandIssued).size(),
              report.commandEdges);
    EXPECT_EQ(eventsOfKind(sink, obs::EventKind::PinCorruption).size(),
              report.injectedErrors);
}

TEST(ObservedStack, ZeroObserverPathStillWorks)
{
    // The default config carries no observer; the stack must behave
    // identically (this also guards the nullptr fast path).
    StackConfig cfg;
    cfg.mech = Mechanisms::forLevel(ProtectionLevel::Aiecc);
    ProtectionStack stack(cfg);
    EXPECT_EQ(stack.observer(), nullptr);
    const MtbAddress addr{0, 0, 0, 3, 1};
    BitVec data(Burst::dataBits);
    data.set(5, true);
    stack.write(addr, data);
    const auto out = stack.read(addr);
    EXPECT_EQ(out.data, data);
    EXPECT_FALSE(out.detected);
}

TEST(ObservedStack, ScrubAndDetectionCountersFire)
{
    obs::StatsRegistry reg;
    obs::VectorTraceSink sink;
    obs::Observer observer;
    observer.setStats(&reg);
    observer.addSink(&sink);

    StackConfig cfg;
    cfg.mech = Mechanisms::forLevel(ProtectionLevel::Aiecc);
    cfg.scrubOnCorrection = true;
    cfg.observer = &observer;
    ProtectionStack stack(cfg);

    const MtbAddress addr{0, 1, 1, 4, 2};
    BitVec data(Burst::dataBits);
    data.set(100, true);
    stack.write(addr, data);

    // Flip one stored bit: the next read must correct and scrub.
    Burst stored = stack.rank().peek(addr);
    stored.setBit(3, 2, !stored.getBit(3, 2));
    stack.rank().poke(addr, stored);

    const auto out = stack.read(addr);
    EXPECT_TRUE(out.corrected);
    EXPECT_EQ(out.data, data);
    EXPECT_EQ(reg.counterValue("stack.detections"), 1u);
    EXPECT_EQ(reg.counterValue("stack.corrections"), 1u);
    EXPECT_EQ(reg.counterValue("stack.scrubs"), 1u);
    EXPECT_EQ(eventsOfKind(sink, obs::EventKind::Detection).size(), 1u);
    EXPECT_EQ(eventsOfKind(sink, obs::EventKind::Scrub).size(), 1u);
}

TEST(StatsRegistry, CheckpointStateRoundTripIsExact)
{
    // A registry restored from its checkpoint form must carry every
    // kind — counters, scalars, histograms — with identical values and
    // an identical canonical serialization, and must keep counting
    // afterwards as if the process had never died.
    obs::StatsRegistry reg;
    reg.counter("campaign.trials", "trials run") += 42;
    reg.counter("campaign.detected") += 40;
    reg.scalar("campaign.rate") = 0.25;
    obs::Histogram &lat = reg.histogram("recovery.attempts");
    for (uint64_t v : {0u, 1u, 1u, 3u, 9u})
        lat.sample(v);

    obs::StatsRegistry restored;
    restored.deserializeState(reg.serializeState());
    EXPECT_EQ(restored.serializeState(), reg.serializeState());
    EXPECT_EQ(restored.counterValue("campaign.trials"), 42u);
    EXPECT_EQ(restored.counterValue("campaign.detected"), 40u);
    const obs::Histogram &rlat = restored.histogram("recovery.attempts");
    EXPECT_EQ(rlat.count(), 5u);
    EXPECT_EQ(rlat.min(), 0u);
    EXPECT_EQ(rlat.max(), 9u);
    EXPECT_DOUBLE_EQ(rlat.mean(), lat.mean());

    // Both continue identically after the restore point.
    reg.counter("campaign.trials") += 1;
    restored.counter("campaign.trials") += 1;
    reg.histogram("recovery.attempts").sample(2);
    restored.histogram("recovery.attempts").sample(2);
    EXPECT_EQ(restored.serializeState(), reg.serializeState());

    // Descriptions are not part of checkpoint state; live
    // re-registration adopts them on first offer.
    EXPECT_EQ(restored.counter("campaign.trials").description(), "");
    restored.counter("campaign.trials", "trials run");
    EXPECT_EQ(restored.counter("campaign.trials").description(),
              "trials run");
}

TEST(StatsRegistry, EmptyStateRoundTrips)
{
    obs::StatsRegistry reg;
    obs::StatsRegistry restored;
    restored.deserializeState(reg.serializeState());
    EXPECT_EQ(restored.serializeState(), reg.serializeState());
    EXPECT_EQ(restored.size(), 0u);
}
