#include "workload/trace.hh"

#include <deque>

#include "common/logging.hh"

namespace aiecc
{

std::vector<TraceRecord>
generateTrace(const WorkloadParams &params, uint64_t accesses,
              const Geometry &geom)
{
    Rng rng(params.seed ^ 0x7240CE);
    const unsigned numBanks = geom.numBanks();
    std::vector<long long> openRow(numBanks, -1);

    std::vector<TraceRecord> trace;
    trace.reserve(accesses);
    for (uint64_t i = 0; i < accesses; ++i) {
        TraceRecord rec;
        rec.write = !rng.chance(params.readFrac);
        const unsigned bank = static_cast<unsigned>(rng.below(numBanks));
        const bool rowHit =
            openRow[bank] >= 0 && rng.chance(params.rowHitRate);
        if (!rowHit) {
            // A compact footprint keeps re-reference distances short
            // so corruption planted by an error is actually revisited.
            openRow[bank] =
                static_cast<long long>(rng.below(16));
        }
        rec.addr.rank = 0;
        rec.addr.bg = bank / geom.banksPerGroup();
        rec.addr.ba = bank % geom.banksPerGroup();
        rec.addr.row = static_cast<unsigned>(openRow[bank]);
        rec.addr.col = static_cast<unsigned>(rng.below(8));
        trace.push_back(rec);
    }
    return trace;
}

namespace
{

BitVec
versionedPayload(uint32_t packedAddr, uint64_t version)
{
    Rng rng((static_cast<uint64_t>(packedAddr) << 24) ^ version ^
            0x9A71);
    BitVec d(Burst::dataBits);
    for (size_t i = 0; i < d.size(); i += 64)
        d.setField(i, 64, rng.next());
    return d;
}

} // namespace

ReplayReport
replayTrace(ProtectionStack &stack,
            const std::vector<TraceRecord> &trace,
            const ReplayConfig &config)
{
    ReplayReport report;
    Rng noise(config.seed);
    const Geometry geom = stack.geometry();
    const bool parPresent = stack.mechanisms().parPinPresent();
    const auto pins = injectablePins(parPresent);

    // Mirror the report into the stack's observer, if it carries one.
    obs::Observer *obsHook = stack.observer();
    obs::Counter *accessCtr = nullptr;
    obs::Counter *retryCtr = nullptr;
    obs::Counter *flaggedCtr = nullptr;
    obs::Counter *corruptCtr = nullptr;
    if (obsHook && obsHook->stats()) {
        obs::StatsRegistry &reg = *obsHook->stats();
        accessCtr = &reg.counter("replay.accesses",
                                 "trace accesses replayed");
        retryCtr = &reg.counter(
            "stack.retries", "accesses re-executed after a detection");
        flaggedCtr = &reg.counter(
            "replay.flagged_reads", "DUEs delivered to the consumer");
        corruptCtr = &reg.counter(
            "replay.corrupt_reads", "silently corrupt reads consumed");
    }

    // Transmission noise on every command edge.
    uint64_t injected = 0;
    stack.setPinCorruptor([&](uint64_t, PinWord &word) {
        if (!noise.chance(config.edgeErrorRate))
            return;
        ++injected;
        const unsigned flips =
            noise.chance(config.twoPinFrac) ? 2u : 1u;
        for (unsigned i : noise.sample(
                 static_cast<unsigned>(pins.size()), flips)) {
            word.flip(pins[i]);
        }
    });

    std::map<uint32_t, uint64_t> version; // expected data per block
    uint64_t writeCounter = 0;

    auto doAccess = [&](const TraceRecord &rec) -> bool {
        // Returns true if the access completed without detection.
        const size_t before = stack.detections().size();
        if (rec.write) {
            const uint64_t v = ++writeCounter;
            stack.write(rec.addr,
                        versionedPayload(rec.addr.pack(geom), v));
            if (stack.detections().size() == before) {
                version[rec.addr.pack(geom)] = v;
                return true;
            }
            return false;
        }
        const auto out = stack.read(rec.addr);
        const bool flagged = stack.detections().size() > before;
        if (!flagged) {
            const auto it = version.find(rec.addr.pack(geom));
            if (it != version.end() &&
                out.data !=
                    versionedPayload(rec.addr.pack(geom), it->second)) {
                ++report.corruptReads;
                if (corruptCtr)
                    ++*corruptCtr;
            }
            return true;
        }
        if (out.due || out.detected) {
            ++report.flaggedReads;
            if (flaggedCtr)
                ++*flaggedCtr;
        }
        return false;
    };

    // The controller's retry window: a detection (e.g. eCAP firing on
    // the command *after* a lost write) implicates recently issued
    // commands, so recovery replays the recent access window — the
    // write-queue replay a real controller performs (§IV-G).
    std::deque<TraceRecord> window;
    constexpr size_t windowDepth = 4;

    for (const auto &rec : trace) {
        ++report.accesses;
        if (accessCtr)
            ++*accessCtr;
        window.push_back(rec);
        if (window.size() > windowDepth)
            window.pop_front();
        if (!doAccess(rec)) {
            stack.recover();
            for (const auto &pending : window) {
                ++report.retries;
                if (retryCtr)
                    ++*retryCtr;
                if (obsHook && obsHook->tracing())
                    obsHook->emit({.kind = obs::EventKind::Retry,
                                   .detail = obs::Detail::Window,
                                   .cycle = stack.controller().now(),
                                   .value = pending.addr.pack(geom),
                                   .label = pending.write ? "wr" : "rd",
                                   .addr = pending.addr});
                doAccess(pending);
            }
        }
    }

    report.commandEdges = stack.controller().commandsIssued();
    report.injectedErrors = injected;
    for (const auto &ev : stack.detections()) {
        ++report.detections;
        ++report.byMechanism[ev.mech];
    }
    stack.setPinCorruptor({});
    return report;
}

} // namespace aiecc
