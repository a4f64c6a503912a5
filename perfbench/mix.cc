/**
 * @file
 * The clean_mix and faulty_mix workloads: one AIECC-level
 * ProtectionStack (QPC+eDECC-c, eWCRC, eCAP, CSTC) driven through the
 * high-level read()/write() calls by a single closed-loop caller.
 *
 * faulty_mix adds CCCA pin flips on command edges and attaches a
 * ras::HealthMonitor as a trace sink, the way a deployed RAS daemon
 * would ride the stack.  Every read is checked against a shadow copy
 * of the last value written to its address.
 */

#include <algorithm>
#include <cstdio>
#include <memory>

#include "aiecc/stack.hh"
#include "common/rng.hh"
#include "ddr4/pins.hh"
#include "obs/memprof.hh"
#include "obs/observer.hh"
#include "obs/trace.hh"
#include "perfbench.hh"
#include "ras/health.hh"

namespace perfbench
{
namespace
{

using namespace aiecc;

constexpr size_t passOps = 200000;
constexpr size_t warmupOps = 100000;
/** faulty_mix: probability that a command edge has one pin flipped. */
constexpr double faultRate = 0.05;

/** Simulated statistics of one pass: identical for every pass. */
struct MixStats
{
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t ok = 0;
    uint64_t due = 0;
    uint64_t sdc = 0;
    uint64_t detections = 0;
    uint64_t cycles = 0;
    uint64_t commands = 0;
    uint64_t episodes = 0;
    uint64_t attempts = 0;
    uint64_t exhausted = 0;

    bool operator==(const MixStats &) const = default;
};

/** Host-time extras of traced passes, summed over passes. */
struct TraceTotals
{
    uint64_t ops = 0;
    uint64_t reads = 0;
    uint64_t writes = 0;
    double readNs = 0.0;
    double writeNs = 0.0;
    uint64_t episodeOps = 0;
    double episodeNs = 0.0;
    uint64_t plainOps = 0;
    double plainNs = 0.0;
    uint64_t allocs = 0;
    uint64_t events = 0;

    double callNsPerOp() const { return (readNs + writeNs) / ops; }
};

/** Counts the trace events the stack emits (benchmark-owned sink). */
class CountingSink : public obs::TraceSink
{
  public:
    void record(const obs::TraceEvent &) override { ++count; }
    uint64_t count = 0;
};

struct PassOut
{
    MixStats stats;
    double ns = 0.0;
    double peakMb = 0.0;
    uint64_t events = 0;
};

class MixRunner
{
  public:
    MixRunner(uint64_t seed, bool faulty)
        : seed(seed), faulty(faulty), ops(makeStream(seed, passOps)),
          base(Burst::dataBits), shadowWord(numSlots, 0),
          shadowState(numSlots, 0)
    {
        Rng rng(seed ^ 0xBA5E);
        for (size_t i = 0; i < base.size(); i += 64)
            base.setField(i, 64, rng.next());
    }

    const std::vector<Access> &stream() const { return ops; }

    /** Warm host caches and the allocator on a throwaway stack. */
    void
    warmup()
    {
        ProtectionStack stack(config(nullptr));
        BitVec payload = base;
        for (size_t i = 0; i < warmupOps; ++i) {
            const Access &a = ops[i];
            if (a.read) {
                stack.read(a.addr);
            } else {
                payload.setField(0, 64, a.word);
                stack.write(a.addr, payload);
            }
        }
    }

    /**
     * One pass over the stream on a fresh stack.  @p monitor attaches
     * the health monitor (faulty_mix); a non-null @p tt also counts
     * trace events, allocations and per-direction call time.
     */
    PassOut pass(bool monitor, std::vector<double> &lat, TraceTotals *tt);

  private:
    uint64_t seed;
    bool faulty;
    std::vector<Access> ops;
    BitVec base; ///< payload template; word 0 varies per write
    std::vector<uint64_t> shadowWord;
    /** 0 never written, 1 shadowWord holds it, 2 unknown (failed WR). */
    std::vector<uint8_t> shadowState;

    StackConfig
    config(obs::Observer *observer) const
    {
        StackConfig cfg;
        cfg.mech = Mechanisms::forLevel(ProtectionLevel::Aiecc);
        cfg.scrubOnCorrection = true;
        cfg.seed = seed;
        cfg.observer = observer;
        return cfg;
    }
};

PassOut
MixRunner::pass(bool monitor, std::vector<double> &lat, TraceTotals *tt)
{
    lat.clear();
    std::fill(shadowState.begin(), shadowState.end(), 0);
    BitVec payload = base;
    BitVec expect = base;
    obs::memprof::resetProcessTotals();
    const auto begin = Clock::now();

    // Everything the stack's hooks refer to outlives the stack.
    ras::HealthMonitor health;
    CountingSink counter;
    obs::Observer observer;
    Rng faultRng(seed ^ 0xFA017);
    if (monitor)
        observer.addSink(&health);
    if (tt && faulty)
        observer.addSink(&counter);
    ProtectionStack stack(config(observer.tracing() ? &observer : nullptr));
    if (faulty) {
        const std::vector<Pin> pins = injectablePins(true);
        stack.setPinCorruptor([&faultRng, pins](uint64_t, PinWord &word) {
            if (faultRng.chance(faultRate))
                word.flip(pins[faultRng.below(pins.size())]);
        });
    }

    MixStats s;
    for (const Access &a : ops) {
        const RecoveryStats before = stack.recoveryStats();
        const uint64_t allocs0 =
            tt ? obs::memprof::processTotals().allocs : 0;
        const size_t slot = slotOf(a.addr);
        bool due = false;
        bool sdc = false;
        double ns;
        if (a.read) {
            const auto t = Clock::now();
            const ReadOutcome got = stack.read(a.addr);
            ns = nsSince(t);
            ++s.reads;
            due = got.due;
            if (!due && shadowState[slot] == 1) {
                expect.setField(0, 64, shadowWord[slot]);
                sdc = got.data != expect;
            }
        } else {
            payload.setField(0, 64, a.word);
            const auto t = Clock::now();
            stack.write(a.addr, payload);
            ns = nsSince(t);
            ++s.writes;
            shadowWord[slot] = a.word;
            shadowState[slot] = 1;
        }
        const RecoveryStats &after = stack.recoveryStats();
        if (!a.read && after.exhausted != before.exhausted) {
            // Recovery gave up on this write: the caller learns the
            // write failed and what the address now holds is unknown.
            due = true;
            shadowState[slot] = 2;
        }
        if (due)
            ++s.due;
        else if (sdc)
            ++s.sdc;
        else
            ++s.ok;
        if (!stack.detections().empty()) {
            s.detections += stack.detections().size();
            stack.clearDetections();
        }
        lat.push_back(ns);
        if (tt) {
            tt->allocs += obs::memprof::processTotals().allocs - allocs0;
            if (a.read) {
                ++tt->reads;
                tt->readNs += ns;
            } else {
                ++tt->writes;
                tt->writeNs += ns;
            }
            if (after.episodes != before.episodes) {
                ++tt->episodeOps;
                tt->episodeNs += ns;
            } else {
                ++tt->plainOps;
                tt->plainNs += ns;
            }
        }
    }
    PassOut out;
    out.ns = nsSince(begin);
    s.cycles = stack.controller().now();
    s.commands = stack.controller().commandsIssued();
    s.episodes = stack.recoveryStats().episodes;
    s.attempts = stack.recoveryStats().attempts;
    s.exhausted = stack.recoveryStats().exhausted;
    out.stats = s;
    out.peakMb = static_cast<double>(
                     obs::memprof::processTotals().peakLiveBytes) /
                 1e6;
    out.events = counter.count;
    if (tt) {
        tt->ops += ops.size();
        tt->events += counter.count;
    }
    return out;
}

} // namespace

RunResult
runMix(const Options &opt, bool faulty)
{
    RunResult out;
    std::unique_ptr<MixRunner> runner;
    measureSetup(out, 7, [&] {
        const auto t = Clock::now();
        runner.reset();
        runner = std::make_unique<MixRunner>(opt.seed, faulty);
        runner->warmup();
        return nsSince(t) * 1e-9;
    });

    // ---- untraced passes: the end-to-end metrics ----------------------
    std::vector<double> lat;
    lat.reserve(passOps);
    PassTimes times;
    MixStats ref;
    double peakMb = 0.0;
    const double budget = opt.trace ? opt.seconds / 3 : opt.seconds;
    repeatFor(budget, 3, [&](unsigned i) {
        const PassOut p = runner->pass(faulty, lat, nullptr);
        times.add(passOps, p.ns, lat);
        if (i == 0)
            ref = p.stats;
        out.check(p.stats == ref, "simulated statistics differ between "
                                  "two passes of the same seed");
        peakMb = std::max(peakMb, p.peakMb);
    });
    out.attempted = times.ops;

    const double n = static_cast<double>(passOps);
    out.check(ref.ok + ref.due + ref.sdc == passOps &&
                  ref.reads + ref.writes == passOps,
              "outcome counts do not add up to ops attempted");
    if (faulty) {
        out.check(ref.episodes > 0, "faulty_mix ran no recovery episode");
    } else {
        const uint64_t bad = ref.due + ref.sdc;
        out.check(bad == 0 && ref.detections == 0 && ref.episodes == 0,
                  "clean_mix: a read mismatched its shadow copy or a "
                  "mechanism fired");
        out.failed = bad * times.p50.size();
    }

    reportTimes(out, times);
    out.set("ok_frac", static_cast<double>(ref.ok) / n);
    out.set("sdc_free_frac", 1.0 - static_cast<double>(ref.sdc) / n);
    out.set("peak_heap_mb", peakMb);
    out.set("sim.failed_frac", static_cast<double>(ref.due + ref.sdc) / n);
    out.set("sim.sdc_frac", static_cast<double>(ref.sdc) / n);
    out.set("sim.cycles_per_op", static_cast<double>(ref.cycles) / n);
    char line[256];
    std::snprintf(line, sizeof(line),
                  "per pass of %zu ops: ok %llu, DUE %llu, SDC %llu, "
                  "detections %llu, episodes %llu (attempts %llu, "
                  "exhausted %llu), %llu commands, %llu cycles",
                  passOps, (unsigned long long)ref.ok,
                  (unsigned long long)ref.due, (unsigned long long)ref.sdc,
                  (unsigned long long)ref.detections,
                  (unsigned long long)ref.episodes,
                  (unsigned long long)ref.attempts,
                  (unsigned long long)ref.exhausted,
                  (unsigned long long)ref.commands,
                  (unsigned long long)ref.cycles);
    out.note(line);
    noteDigest(out, digest(&ref, sizeof(ref)));
    std::snprintf(line, sizeof(line),
                  "setup_s %.4f s, peak_heap_mb %.3f MB, sim_cycles_per_op "
                  "%.4f",
                  out.values["setup_s"], peakMb,
                  static_cast<double>(ref.cycles) / n);
    out.note(line);
    if (!opt.trace)
        return out;

    // ---- traced passes: spans around every stack call -----------------
    // faulty_mix alternates passes with the monitor attached and
    // detached; the difference is the monitor's cost per op.
    PassTimes traced;
    TraceTotals on, off;
    uint64_t eventsRef = 0;
    repeatFor(opt.seconds / 3, faulty ? 2 : 1, [&](unsigned i) {
        const bool monitor = faulty && i % 2 == 0;
        TraceTotals &tt = monitor || !faulty ? on : off;
        const PassOut p = runner->pass(monitor, lat, &tt);
        if (&tt == &on)
            traced.add(passOps, p.ns, lat);
        if (i == 0)
            eventsRef = p.events;
        out.check(p.stats == ref && p.events == eventsRef,
                  "traced pass changed the simulated statistics");
    });

    const double opsOn = static_cast<double>(on.ops);
    out.set("aiecc.read.ns", on.readNs / static_cast<double>(on.reads));
    out.set("aiecc.write.ns", on.writeNs / static_cast<double>(on.writes));
    out.set("recovery.episodes_per_kop",
            static_cast<double>(ref.episodes) * 1000.0 / n);
    if (ref.episodes) {
        out.set("recovery.attempts_per_episode",
                static_cast<double>(ref.attempts) / ref.episodes);
        out.set("recovery.exhausted_ratio",
                static_cast<double>(ref.exhausted) / ref.episodes);
        out.set("recovery.episode.ns",
                on.episodeNs / static_cast<double>(on.episodeOps) -
                    on.plainNs / static_cast<double>(on.plainOps));
    }
    if (faulty)
        out.set("ras.monitor_ns_per_op",
                on.callNsPerOp() - off.callNsPerOp());
    out.set("obs.trace_events_per_op",
            static_cast<double>(on.events) / opsOn);
    out.set("obs.allocs_per_op", static_cast<double>(on.allocs) / opsOn);
    const double tracedRate = median(traced.opsPerSec);
    const double plainRate = median(times.opsPerSec);
    out.set("trace.ops_per_s", tracedRate);
    out.set("trace.untraced_ops_per_s", plainRate);
    out.set("trace.overhead_frac", plainRate / tracedRate - 1.0);
    const double perOp = traced.ns / static_cast<double>(traced.ops);
    out.set("trace.ns_per_op", perOp);

    probeLayers(out, opt.seed, runner->stream(), opt.seconds / 3);

    // ---- attribution: layer self times + unattributed = traced ns/op --
    auto &v = out.values;
    const double call = on.callNsPerOp();
    const double recovery =
        v["recovery.episode.ns"] * v["recovery.episodes_per_kop"] / 1000.0;
    const double ras = v["ras.monitor_ns_per_op"];
    const double ecc = v["_replay.ecc_ns_per_op"];
    const double issue = v["_replay.issue_ns_per_op"];
    const double pin = v["_replay.pin_ns_per_op"];
    const double crc = v["_replay.crc_ns_per_op"];
    const double cstc = v["_replay.cstc_ns_per_op"];
    out.set("aiecc.self_ns_per_op", call - ecc - issue - recovery - ras);
    out.set("controller.self_ns_per_op", issue - pin - crc - cstc);
    out.set("unattributed.ns_per_op", perOp - call);
    const std::pair<const char *, double> rows[] = {
        {"aiecc (self)", v["aiecc.self_ns_per_op"]},
        {"ecc encode+decode", ecc},
        {"controller (self, incl. rank)", v["controller.self_ns_per_op"]},
        {"ddr4 pin codec", pin},
        {"crc eWCRC", crc},
        {"dram CSTC", cstc},
        {"recovery episodes", recovery},
        {"ras monitor", ras},
        {"unattributed (benchmark loop)", v["unattributed.ns_per_op"]},
    };
    out.note("attribution, ns per op (rows add up to the traced ns/op):");
    for (const auto &[name, ns] : rows) {
        std::snprintf(line, sizeof(line), "  %-32s %10.1f", name, ns);
        out.note(line);
    }
    std::snprintf(line, sizeof(line), "  %-32s %10.1f", "traced total",
                  perOp);
    out.note(line);
    std::snprintf(line, sizeof(line),
                  "tracing: untraced %.0f ops/s, traced %.0f ops/s "
                  "(overhead %.1f%%)",
                  plainRate, tracedRate, 100.0 * (plainRate / tracedRate - 1));
    out.note(line);
    return out;
}

} // namespace perfbench
