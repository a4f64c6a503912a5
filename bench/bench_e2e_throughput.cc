/**
 * @file
 * Canonical end-to-end throughput benchmark — the stack's perf
 * trajectory anchor.
 *
 * Drives a configurable access mix (read/write ratio, injected
 * CCCA-fault rate, recovery on/off, optional patrol scrubbing)
 * through the full ProtectionStack via the high-level read()/write()
 * interface and reports host-side performance: accesses per second,
 * the ns/access distribution (p50/p90/p99), and the heap allocations
 * per access.
 *
 * Two passes over the identical access stream (same seeds):
 *  1. a *hot* pass with no Observer attached — the canonical
 *     throughput and latency numbers, free of instrumentation cost;
 *  2. an *instrumented* pass with stats, cost attribution, lineage and
 *     a RAS health monitor (and, with --trace PATH, a JSONL event
 *     trace) — the event counts and the allocs_per_access gate, which
 *     counts the heap allocations inside every stack.read/write call
 *     of this pass, warmup included.
 *
 * `--json BENCH_e2e.json` writes the schema-versioned artifact that
 * tools/compare_bench.py diffs against the committed baseline in CI.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "aiecc/cost_model.hh"
#include "aiecc/stack.hh"
#include "bench_state.hh"
#include "bench_util.hh"
#include "common/checkpoint.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "ddr4/pins.hh"
#include "dram/rank.hh"
#include "obs/coverage.hh"
#include "obs/heartbeat.hh"
#include "obs/lineage.hh"
#include "obs/memprof.hh"
#include "obs/observer.hh"
#include "obs/shard_run.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "ras/health.hh"

namespace aiecc
{
namespace
{

struct MixConfig
{
    uint64_t accesses = 0;
    uint64_t warmup = 0;
    double readFrac = 0.67;
    double faultRate = 0.0;
    double rowHitRate = 0.6;
    bool recovery = true;
    unsigned recoveryAttempts = 0; ///< 0 = engine default
    uint64_t patrolPeriod = 0;
    uint64_t seed = 0xE2E;

    // Bounded working set: 16 banks x 64 rows x 128 MTB columns
    // (~9 MB of modelled storage) keeps the rank model resident
    // while still spreading traffic across every bank.
    unsigned rowSpace = 64;
    unsigned colSpace = 128;

    /**
     * Lineage stream index for fault-ID derivation: the shard number
     * in campaign mode, 0 for the single canonical stream.  Keeps
     * per-shard fault IDs collision-free under one ledger.
     */
    uint64_t lineageStream = 0;

    /**
     * Long-horizon aging mode: this many wearing fault sites (weak
     * rows, dying chips, marginal CA pins, round-robin) switch on
     * front-loaded across the first half of the measured stream and
     * keep disturbing until the end.  Single-stream only.
     */
    uint64_t agingSites = 0;
    /** Feed HealthMonitor recommendations back into the stack. */
    bool mitigate = false;
};

/**
 * One wearing fault site of the aging mode.  Unlike the transient
 * per-edge fault stream, a site persists from its activation access
 * to the end of the pass, modelling the time-varying arrival and
 * accumulation of real DRAM faults: a weak row disturbs a data bit on
 * every read of that row, a dying chip disturbs its own pins on a
 * fraction of all reads, and a marginal CA pin flips command edges.
 */
struct AgingSite
{
    enum class Kind
    {
        Row,  ///< weak row: one flipped data bit per read of the row
        Chip, ///< dying x4 chip: flips its own pins across all banks
        Pin,  ///< marginal CA pin: command-edge flips (alert family)
    };
    Kind kind = Kind::Row;
    unsigned bank = 0; ///< Row
    unsigned row = 0;  ///< Row
    unsigned chip = 0; ///< Chip
    Pin pin{};         ///< Pin
    uint64_t activateAt = 0; ///< measured-access ordinal
    std::string label;       ///< lineage site ("row:b3:r17", ...)
};

/** Per-read disturbance odds of one wearing-chip site. */
constexpr double agingChipRate = 0.001;
/** Per-command-edge disturbance odds of one marginal CA pin. */
constexpr double agingPinRate = 0.0008;

/**
 * The deterministic aging plan for a mix: site kinds round-robin
 * Row/Chip/Pin, coordinates drawn from a dedicated RNG stream
 * (distinct coordinates per kind so each site is separately
 * scoreable), activation front-loaded so every site is wearing by the
 * run's halfway point and the back half accumulates symptoms.
 */
std::vector<AgingSite>
agingPlan(const MixConfig &mix, const Geometry &geom, bool parPin)
{
    std::vector<AgingSite> sites;
    if (!mix.agingSites)
        return sites;
    Rng rng(mix.seed ^ 0xA61A6);
    const std::vector<Pin> pins = injectablePins(parPin);
    char label[48];
    for (uint64_t i = 0; i < mix.agingSites; ++i) {
        AgingSite s;
        switch (i % 3) {
          case 0:
            s.kind = AgingSite::Kind::Row;
            // Distinct banks (a few re-rolls) keep one weak row per
            // bank sketch, so each site is independently inferable.
            for (unsigned tries = 0; tries < 64; ++tries) {
                s.bank = static_cast<unsigned>(rng.below(geom.numBanks()));
                s.row = static_cast<unsigned>(rng.below(mix.rowSpace));
                bool dup = false;
                for (const AgingSite &o : sites)
                    dup |= o.kind == s.kind && o.bank == s.bank;
                if (!dup)
                    break;
            }
            std::snprintf(label, sizeof(label), "row:b%u:r%u", s.bank,
                          s.row);
            break;
          case 1:
            s.kind = AgingSite::Kind::Chip;
            for (unsigned tries = 0; tries < 64; ++tries) {
                s.chip = static_cast<unsigned>(rng.below(Burst::numChips));
                bool dup = false;
                for (const AgingSite &o : sites)
                    dup |= o.kind == s.kind && o.chip == s.chip;
                if (!dup)
                    break;
            }
            std::snprintf(label, sizeof(label), "chip:%u", s.chip);
            break;
          default:
            s.kind = AgingSite::Kind::Pin;
            for (unsigned tries = 0; tries < 64; ++tries) {
                s.pin = pins[rng.below(pins.size())];
                bool dup = false;
                for (const AgingSite &o : sites)
                    dup |= o.kind == s.kind && o.pin == s.pin;
                if (!dup)
                    break;
            }
            std::snprintf(label, sizeof(label), "pin:%s",
                          pinName(s.pin));
            break;
        }
        s.activateAt = i * mix.accesses / (2 * mix.agingSites);
        s.label = label;
        sites.push_back(s);
    }
    return sites;
}

using bench::PassResult;

/**
 * Run one pass of the access mix; @p observer may be nullptr.
 *
 * With @p ledger attached, every corruption the live fault stream
 * injects opens a per-fault lineage record (fault IDs derived from the
 * mix seed, the lineage stream, and the injection ordinal) that is
 * resolved at the end of the access it rode: Recovered / Detected when
 * a mechanism fired, Masked otherwise (without a golden run, an
 * undetected CA flip that changes nothing is indistinguishable from a
 * benign one — the campaign benches own the SDC accounting).  The
 * fault context is stamped onto every trace event the stack emits
 * while the fault is live.  The ledger never touches the RNG streams,
 * so hot and instrumented passes stay access-identical.
 *
 * In aging mode (mix.agingSites > 0) the pass additionally installs
 * the wearing-site hooks from agingPlan(): a read-disturb model on
 * the rank for weak rows and dying chips, plus marginal CA pins in
 * the edge corruptor.  Each site opens a lineage record at activation
 * and resolves at end of pass from what was observably detected.
 * With @p monitor given and mix.mitigate set, the pass drains the
 * monitor's recommended actions after every access and feeds them
 * back into the stack (raise patrol rate / retire row / quarantine);
 * the hot pass runs without a monitor, so it doubles as the
 * no-mitigation baseline over the identical fault schedule.
 */
PassResult
runPass(const MixConfig &mix, obs::Observer *observer,
        obs::LineageLedger *ledger = nullptr,
        ras::HealthMonitor *monitor = nullptr)
{
    StackConfig cfg;
    cfg.mech = Mechanisms::forLevel(ProtectionLevel::Aiecc);
    cfg.scrubOnCorrection = true;
    cfg.seed = mix.seed;
    cfg.recovery.enabled = mix.recovery;
    if (mix.recoveryAttempts)
        cfg.recovery.maxAttempts = mix.recoveryAttempts;
    cfg.recovery.patrolPeriod = mix.patrolPeriod;
    cfg.observer = observer;
    ProtectionStack stack(cfg);

    const Geometry &geom = stack.geometry();

    // ---- aging fault sites (time-varying arrival) -----------------
    const std::vector<AgingSite> aging =
        agingPlan(mix, geom, cfg.mech.parPinPresent());
    size_t agingActive = 0; ///< activated prefix of `aging`
    std::vector<uint64_t> siteObs(aging.size(), 0);
    std::vector<uint64_t> agingIds(aging.size(), 0);
    Rng agingRng(mix.seed ^ 0xA91D6);
    bool agingPinSites = false;
    bool agingArraySites = false;
    for (const AgingSite &s : aging) {
        if (s.kind == AgingSite::Kind::Pin)
            agingPinSites = true;
        else
            agingArraySites = true;
    }
    if (agingArraySites) {
        stack.rank().setReadDisturb(
            [&aging, &agingActive, &agingRng,
             &geom](const MtbAddress &addr, Burst &out) {
                for (size_t k = 0; k < agingActive; ++k) {
                    const AgingSite &s = aging[k];
                    if (s.kind == AgingSite::Kind::Row) {
                        if (addr.row != s.row ||
                            addr.flatBank(geom) != s.bank)
                            continue;
                        const unsigned pin = static_cast<unsigned>(
                            agingRng.below(Burst::dataPins));
                        const unsigned beat = static_cast<unsigned>(
                            agingRng.below(Burst::numBeats));
                        out.setBit(pin, beat, !out.getBit(pin, beat));
                    } else if (s.kind == AgingSite::Kind::Chip &&
                               agingRng.chance(agingChipRate)) {
                        const unsigned pin =
                            s.chip * Burst::pinsPerChip +
                            static_cast<unsigned>(
                                agingRng.below(Burst::pinsPerChip));
                        const unsigned beat = static_cast<unsigned>(
                            agingRng.below(Burst::numBeats));
                        out.setBit(pin, beat, !out.getBit(pin, beat));
                    }
                }
            });
    }

    Rng faultRng(mix.seed ^ 0xFA017);
    // Live-stream lineage state: one fault window open at a time;
    // flips landing while a window is open ride the same record.
    uint64_t faultOrdinal = 0;
    uint64_t liveFaultId = 0;
    Cycle liveInjectCycle = 0;
    const char *liveFaultSite = nullptr;
    const uint64_t faultSalt =
        mix.seed ^ obs::lineageHash("e2e-live-stream");
    if (mix.faultRate > 0.0 || agingPinSites) {
        const double rate = mix.faultRate;
        auto pins = injectablePins(cfg.mech.parPinPresent());
        stack.setPinCorruptor(
            [rate, pins, &faultRng, &stack, &mix, ledger, faultSalt,
             &faultOrdinal, &liveFaultId, &liveInjectCycle,
             &liveFaultSite, &aging, &agingActive,
             &agingRng](uint64_t, PinWord &word) {
                // Marginal CA pins disturb edges independently of the
                // transient stream; their lifetime lineage records are
                // owned by the aging bookkeeping, not the live window.
                for (size_t k = 0; k < agingActive; ++k) {
                    const AgingSite &s = aging[k];
                    if (s.kind == AgingSite::Kind::Pin &&
                        agingRng.chance(agingPinRate))
                        word.flip(s.pin);
                }
                if (rate <= 0.0 || !faultRng.chance(rate))
                    return;
                const Pin pin = pins[faultRng.below(pins.size())];
                word.flip(pin);
                if (!ledger || liveFaultId != 0)
                    return; // unledgered, or riding the open window
                ++faultOrdinal;
                liveFaultId = obs::deriveFaultId(
                    faultSalt, mix.lineageStream, faultOrdinal);
                liveInjectCycle = stack.controller().now();
                liveFaultSite = pinName(pin);
                // The ledger record opens once the access returns
                // (below), outside the counted stack.read/write call.
                stack.setFaultContext(liveFaultId);
            });
    }
    Rng rng(mix.seed);
    std::vector<unsigned> lastRow(geom.numBanks(), 0);
    BitVec payload(Burst::dataBits);
    for (size_t i = 0; i < payload.size(); i += 64)
        payload.setField(i, 64, rng.next());

    PassResult out;
    const auto nextAddr = [&]() {
        MtbAddress addr;
        addr.bg = static_cast<unsigned>(rng.below(geom.numBankGroups()));
        addr.ba = static_cast<unsigned>(rng.below(geom.banksPerGroup()));
        const unsigned bank = addr.flatBank(geom);
        addr.row = rng.chance(mix.rowHitRate)
                       ? lastRow[bank]
                       : static_cast<unsigned>(rng.below(mix.rowSpace));
        lastRow[bank] = addr.row;
        addr.col = static_cast<unsigned>(rng.below(mix.colSpace));
        return addr;
    };

    // Mitigation scratch, reserved outside the access loop.
    std::vector<ras::RecommendedAction> mitigations;
    mitigations.reserve(8);
    unsigned sparesUsed = 0;

    const auto doAccess = [&](bool measured) {
        const MtbAddress addr = nextAddr();
        const bool isRead = rng.chance(mix.readFrac);
        const uint64_t attemptsBefore = stack.recoveryStats().attempts;
        const uint64_t recoveredBefore = stack.recoveryStats().recovered;
        const auto begin = std::chrono::steady_clock::now();
        if (isRead) {
            const uint64_t allocs0 = obs::memprof::threadAllocs();
            const ReadOutcome got = stack.read(addr);
            out.allocs += obs::memprof::threadAllocs() - allocs0;
            if (measured) {
                out.detections += got.detected ? 1 : 0;
                out.corrected += got.corrected ? 1 : 0;
                out.dues += got.due ? 1 : 0;
            }
            // Wearing-site symptom attribution (prediction ground
            // truth): a weak row's detection is its own address, a
            // dying chip's is a corrected symbol on its chip.
            for (size_t k = 0; k < agingActive; ++k) {
                const AgingSite &s = aging[k];
                if (s.kind == AgingSite::Kind::Row) {
                    if (got.detected && addr.row == s.row &&
                        addr.flatBank(geom) == s.bank)
                        ++siteObs[k];
                } else if (s.kind == AgingSite::Kind::Chip) {
                    if (got.correctedChips & (1u << s.chip))
                        ++siteObs[k];
                }
            }
        } else {
            // Vary the payload cheaply so writes are not all equal.
            payload.setField(0, 64, rng.next());
            const uint64_t allocs0 = obs::memprof::threadAllocs();
            stack.write(addr, payload);
            out.allocs += obs::memprof::threadAllocs() - allocs0;
        }
        const auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - begin)
                .count();
        if (measured) {
            out.latency.sample(ns > 0 ? static_cast<uint64_t>(ns) : 0);
            (isRead ? out.reads : out.writes) += 1;
        }
        // Resolve the live fault window (if one opened during this
        // access) from what the mechanisms observably did with it.
        if (ledger && liveFaultId != 0) {
            ledger->recordInjection(liveFaultId, obs::FaultKind::Ccca,
                                    liveFaultSite);
            uint32_t observations = 0;
            const char *firstMech = nullptr;
            for (const DetectionEvent &ev : stack.detections()) {
                if (ev.faultId != liveFaultId)
                    continue;
                ++observations;
                if (!firstMech)
                    firstMech = mechanismName(ev.mech);
            }
            const uint64_t attempts =
                stack.recoveryStats().attempts - attemptsBefore;
            const bool recovered =
                stack.recoveryStats().recovered > recoveredBefore;
            obs::FaultTerminal terminal = obs::FaultTerminal::Masked;
            if (observations)
                terminal = recovered ? obs::FaultTerminal::Recovered
                                     : obs::FaultTerminal::Detected;
            ledger->resolve(liveFaultId, terminal,
                            firstMech ? firstMech : "",
                            observations,
                            static_cast<uint32_t>(attempts));
            if (observer && observer->tracing()) {
                observer->emit(
                    {.kind = obs::EventKind::FaultInject,
                     .detail = obs::Detail::Why,
                     .cycle = liveInjectCycle,
                     .value = faultOrdinal,
                     .faultId = liveFaultId,
                     .label = liveFaultSite,
                     .why = obs::faultKindName(obs::FaultKind::Ccca)});
                observer->emit({.kind = obs::EventKind::FaultResolve,
                                .detail = firstMech ? obs::Detail::First
                                                    : obs::Detail::None,
                                .cycle = stack.controller().now(),
                                .value = attempts,
                                .faultId = liveFaultId,
                                .label = obs::faultTerminalName(terminal),
                                .mech = firstMech});
            }
            liveFaultId = 0;
            stack.setFaultContext(0);
        }
        // Marginal CA pins announce themselves through the alert
        // families, not an address; attribution is class-level (every
        // active pin site shares the evidence).
        if (agingPinSites && agingActive) {
            bool alert = false;
            for (const DetectionEvent &ev : stack.detections())
                alert |= ev.alert.has_value();
            if (alert)
                for (size_t k = 0; k < agingActive; ++k)
                    if (aging[k].kind == AgingSite::Kind::Pin)
                        ++siteObs[k];
        }
        // Predictive mitigation: apply whatever the monitor
        // recommended while observing this access.
        if (monitor && mix.mitigate) {
            mitigations.clear();
            if (monitor->drainActions(mitigations)) {
                for (const ras::RecommendedAction &a : mitigations) {
                    switch (a.kind) {
                      case ras::ActionKind::RaisePatrol: {
                        const uint64_t cur = stack.patrolPeriod();
                        stack.setPatrolPeriod(
                            cur ? std::max<uint64_t>(8, cur / 4) : 64);
                        break;
                      }
                      case ras::ActionKind::RetireRow:
                        // Spares live above the bench's bounded row
                        // working set, so they are otherwise untouched.
                        stack.retireRow(a.bank, a.row,
                                        mix.rowSpace + sparesUsed++);
                        break;
                      case ras::ActionKind::QuarantineBank:
                        stack.recovery().adviseQuarantine(
                            a.bank, stack.controller().now());
                        break;
                    }
                }
            }
        }
        // The detection log is for campaign introspection; keep it
        // bounded on long runs.
        stack.clearDetections();
    };

    // A wearing site starts its lifetime lineage record (and trace
    // event) the moment it activates; resolution is at end of pass.
    const uint64_t agingSalt = mix.seed ^ obs::lineageHash("e2e-aging");
    const auto activateSite = [&](size_t k) {
        const AgingSite &s = aging[k];
        const obs::FaultKind fk = s.kind == AgingSite::Kind::Pin
                                      ? obs::FaultKind::Ccca
                                      : obs::FaultKind::Data;
        if (ledger) {
            agingIds[k] = obs::deriveFaultId(agingSalt,
                                             mix.lineageStream, k + 1);
            ledger->recordInjection(agingIds[k], fk, s.label);
        }
        if (observer && observer->tracing()) {
            observer->emit({.kind = obs::EventKind::FaultInject,
                            .detail = obs::Detail::Why,
                            .cycle = stack.controller().now(),
                            .value = k,
                            .faultId = agingIds[k],
                            .label = obs::internText(s.label),
                            .why = obs::faultKindName(fk)});
        }
    };

    for (uint64_t i = 0; i < mix.warmup; ++i)
        doAccess(false);
    const auto begin = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < mix.accesses; ++i) {
        while (agingActive < aging.size() &&
               aging[agingActive].activateAt <= i)
            activateSite(agingActive++);
        doAccess(true);
    }
    out.elapsedNs = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - begin)
            .count());

    // Wearing sites reach their terminal from what was observable:
    // corrected in place (rows/chips), absorbed by bounded retry
    // (pins), or nothing ever saw the site age.
    for (size_t k = 0; k < agingActive; ++k) {
        const AgingSite &s = aging[k];
        obs::FaultTerminal terminal = obs::FaultTerminal::Masked;
        if (siteObs[k])
            terminal = s.kind == AgingSite::Kind::Pin
                           ? obs::FaultTerminal::Recovered
                           : obs::FaultTerminal::Corrected;
        if (ledger)
            ledger->resolve(agingIds[k], terminal, "",
                            static_cast<uint32_t>(std::min<uint64_t>(
                                siteObs[k], 0xFFFFFFFFull)),
                            0);
        if (observer && observer->tracing()) {
            observer->emit({.kind = obs::EventKind::FaultResolve,
                            .detail = obs::Detail::Why,
                            .cycle = stack.controller().now(),
                            .value = siteObs[k],
                            .faultId = agingIds[k],
                            .label = obs::faultTerminalName(terminal),
                            .why = obs::internText(s.label)});
        }
    }

    out.recovery = stack.recoveryStats();
    if (observer)
        observer->flush();
    return out;
}

/** Fold @p shard's pass output into @p into (shard-order merge). */
void
mergePass(PassResult &into, const PassResult &shard)
{
    into.reads += shard.reads;
    into.writes += shard.writes;
    into.detections += shard.detections;
    into.dues += shard.dues;
    into.corrected += shard.corrected;
    into.allocs += shard.allocs;
    into.elapsedNs += shard.elapsedNs;
    into.latency.merge(shard.latency);
    into.recovery.episodes += shard.recovery.episodes;
    into.recovery.attempts += shard.recovery.attempts;
    into.recovery.recovered += shard.recovery.recovered;
    into.recovery.recoveredFirstTry += shard.recovery.recoveredFirstTry;
    into.recovery.recoveredAfterRetries +=
        shard.recovery.recoveredAfterRetries;
    into.recovery.exhausted += shard.recovery.exhausted;
    into.recovery.wrReplays += shard.recovery.wrReplays;
    into.recovery.rdReissues += shard.recovery.rdReissues;
    into.recovery.wrtResyncs += shard.recovery.wrtResyncs;
    into.recovery.quarantines += shard.recovery.quarantines;
    into.recovery.rankDegrades += shard.recovery.rankDegrades;
    into.recovery.patrolReads += shard.recovery.patrolReads;
    into.recovery.patrolScrubs += shard.recovery.patrolScrubs;
}

/** Campaign-mode shard size (accesses per shard); output-affecting. */
constexpr uint64_t campaignShardSize = 25000;

/**
 * Sharded campaign pass through obs::runSharded(): each shard runs
 * its own ProtectionStack over its own RNG stream
 * (Rng::forStream(mix.seed, shard)) and folds into @p merged in shard
 * order, so merged counts are bit-identical for any jobs value.
 * What @p parent carries gets shard-local twins; @p shard0Trace records
 * shard 0's event stream; @p rasMon takes shard-local monitors merged
 * in shard order.  With @p checkpoint the pass runs in durable
 * batches on top of the committed prefix that @p merged and the
 * registries carry in.  merged.elapsedNs is the shard-run wall clock,
 * summed across sessions without commit time (timing-only).
 */
RunStatus
runCampaignPass(const MixConfig &mix, unsigned jobs, PassResult &merged,
                const obs::Observer *parent,
                obs::TraceSink *shard0Trace, ras::HealthMonitor *rasMon,
                const std::function<void(uint64_t)> &progress,
                const obs::ShardCheckpoint *checkpoint)
{
    const uint64_t shards = shardCount(mix.accesses, campaignShardSize);
    std::vector<PassResult> parts(shards);
    std::vector<std::unique_ptr<ras::HealthMonitor>> rasMons(shards);

    // Accumulated wall clock rides inside merged.elapsedNs between
    // sessions; it overwrites the per-shard sums mergePass() adds.
    double wallNs = merged.elapsedNs;
    auto clockStart = std::chrono::steady_clock::now();
    const auto stopClock = [&]() {
        wallNs += static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - clockStart)
                .count());
        merged.elapsedNs = wallNs;
    };
    obs::ShardCheckpoint timed;
    if (checkpoint) {
        timed = *checkpoint;
        timed.commit = [&](uint64_t b, uint64_t e) {
            stopClock();
            checkpoint->commit(b, e);
            clockStart = std::chrono::steady_clock::now();
        };
    }

    const RunStatus status = obs::runSharded(
        mix.accesses, campaignShardSize, jobs, parent,
        [&](uint64_t shard, uint64_t, uint64_t n, obs::ShardObservers &so) {
            MixConfig sub = mix;
            sub.accesses = n;
            sub.warmup = sub.accesses / 20 + 500;
            // One next() hop decouples the shard's access stream from
            // the raw (seed, shard) pair the derivation mixes.
            sub.seed = Rng::forStream(mix.seed, shard).next();
            // Fault IDs stay unique across shards under one ledger.
            sub.lineageStream = shard;

            obs::Observer &shardObs = so.observer();
            if (shard == 0)
                shardObs.addSink(shard0Trace);
            if (rasMon) {
                // Attached after the trace sink so emitted RasHealth
                // events trail their triggering symptom in shard 0's
                // trace.
                rasMons[shard] = std::make_unique<ras::HealthMonitor>();
                shardObs.addSink(rasMons[shard].get());
                rasMons[shard]->setObserver(&shardObs);
            }
            parts[shard] = runPass(sub, so.observed() ? &shardObs : nullptr,
                                   shardObs.lineage());
        },
        [&](uint64_t shard) {
            mergePass(merged, parts[shard]);
            if (rasMon)
                rasMon->merge(*rasMons[shard]);
            rasMons[shard].reset();
        },
        checkpoint ? &timed : nullptr, progress);
    if (!checkpoint)
        stopClock();
    return status;
}

void
printLatencyRow(const char *name, const obs::Histogram &h)
{
    std::printf("  %-18s %10.0f %10.0f %10.0f %10.0f %10.0f\n", name,
                h.mean(), h.quantile(0.50), h.quantile(0.90),
                h.quantile(0.99), static_cast<double>(h.max()));
}

} // namespace
} // namespace aiecc

int
main(int argc, char **argv)
{
    using namespace aiecc;
    const bench::Options opt = bench::parse(argc, argv);

    MixConfig mix;
    mix.accesses = opt.trials ? opt.trials : (opt.quick ? 20000 : 200000);
    mix.warmup = mix.accesses / 20 + 500;
    mix.readFrac = opt.readFrac;
    mix.faultRate = opt.faultRate;
    mix.recovery = !opt.noRecovery;
    mix.recoveryAttempts = opt.recoveryAttempts;
    mix.patrolPeriod = opt.recoveryPatrol;
    mix.agingSites = opt.aging;
    mix.mitigate = opt.mitigate;

    // --jobs given => sharded campaign mode; absent => the canonical
    // single-stream run (the cross-machine perf anchor CI compares).
    const bool campaignMode = opt.jobs != 0;
    const uint64_t shards =
        campaignMode ? shardCount(mix.accesses, campaignShardSize) : 0;
    if (!opt.checkpointPath.empty() && !campaignMode) {
        std::fprintf(stderr, "--checkpoint requires the sharded "
                             "campaign; add --jobs N\n");
        return 2;
    }
    if ((mix.agingSites || mix.mitigate) && campaignMode) {
        // A wearing site's lifetime spans the whole stream; shards
        // would each age independently and the mitigation feedback
        // loop needs one continuous stack.
        std::fprintf(stderr, "--aging/--mitigate require the "
                             "single-stream run; drop --jobs\n");
        return 2;
    }

    bench::banner("End-to-end throughput: full AIECC stack, "
                  "high-level access mix");
    std::printf("accesses: %llu (+%llu warmup)   read fraction: %.2f   "
                "fault rate: %g/edge   recovery: %s\n",
                static_cast<unsigned long long>(mix.accesses),
                static_cast<unsigned long long>(mix.warmup), mix.readFrac,
                mix.faultRate, mix.recovery ? "on" : "off");
    if (campaignMode) {
        std::printf("mode: sharded campaign — %llu shard(s) of %llu "
                    "accesses on %u worker thread(s)\n\n",
                    static_cast<unsigned long long>(shards),
                    static_cast<unsigned long long>(campaignShardSize),
                    resolveJobs(opt.jobs));
    } else {
        std::printf("mode: single stream (canonical; use --jobs N for "
                    "the sharded campaign)\n\n");
    }

    // Pass state.  Pass 1 — hot — is the canonical numbers with no
    // instrumentation at all; pass 2 — instrumented — replays the
    // same seeds and stream plus stats, cost attribution,
    // per-fault lineage for the live fault stream, and the optional
    // JSONL trace.
    PassResult hot;
    PassResult inst;
    obs::StatsRegistry stats;
    obs::CostAccountant cost(
        makeCostModel(Mechanisms::forLevel(ProtectionLevel::Aiecc)));
    obs::LineageLedger lineage;
    obs::LineageLedger *ledger =
        (mix.faultRate > 0.0 || mix.agingSites) ? &lineage : nullptr;
    obs::Observer observer(&stats);
    observer.setCost(&cost);
    std::unique_ptr<obs::JsonlTraceSink> traceSink;
    if (!opt.tracePath.empty()) {
        traceSink = std::make_unique<obs::JsonlTraceSink>(opt.tracePath);
        if (!traceSink->ok()) {
            std::fprintf(stderr, "cannot write trace: %s\n",
                         opt.tracePath.c_str());
            return 1;
        }
        observer.addSink(traceSink.get());
    }

    // RAS health telemetry rides the instrumented pass, always on for
    // this bench.  The monitor subscribes after the trace sink so the
    // RasHealth/RasAction events it emits trail their triggering
    // symptom in the file; its snapshots ride the heartbeat too.
    ras::HealthMonitor monitor;
    observer.addSink(&monitor);
    monitor.setObserver(&observer);

    // ---- checkpointed campaign (DESIGN.md §12) --------------------
    // Two units in fixed order: unit 0 = hot pass, unit 1 =
    // instrumented pass, of equal shard count; single-stream mode
    // reports each whole pass as one "shard".  Every section persists
    // at each committed batch, so a resume at any point reloads both
    // passes.
    bench::Campaign campaign(opt, "e2e_throughput");
    const uint64_t unitShardSize =
        campaignMode ? campaignShardSize : mix.accesses;
    campaign.unit("hot pass", mix.accesses, unitShardSize);
    campaign.unit("instrumented pass", mix.accesses, unitShardSize);
    campaign.state("pass:0", hot);
    campaign.state("pass:1", inst);
    campaign.state("stats", stats);
    campaign.state("cost", cost);
    campaign.state("lineage", lineage);
    campaign.state("ras", monitor);
    campaign.heartbeat().setPayload(
        [&monitor](obs::JsonWriter &w) { monitor.writeHeartbeat(w); });

    // Campaign mode feeds the trace from shard 0 only — one writer,
    // and a stream a sequential shard-0 run would reproduce exactly.
    // Its parent Observer therefore carries no sinks; the shard
    // monitors merge into `monitor` separately.
    obs::Observer instParent(&stats);
    instParent.setCost(&cost);
    instParent.setLineage(ledger);
    campaign.run([&](size_t unit, const obs::ShardCheckpoint &checkpoint) {
        if (!campaignMode) {
            if (unit == 0) {
                hot = runPass(mix, nullptr);
                campaign.tick(0, 1);
            } else {
                inst = runPass(mix, &observer, ledger, &monitor);
            }
            return RunStatus::Completed;
        }
        const obs::ShardCheckpoint *durable =
            campaign.checkpointing() ? &checkpoint : nullptr;
        return unit == 0
                   ? runCampaignPass(mix, opt.jobs, hot, nullptr, nullptr,
                                     nullptr, campaign.shardProgress(0),
                                     durable)
                   : runCampaignPass(mix, opt.jobs, inst, &instParent,
                                     traceSink.get(), &monitor,
                                     campaign.shardProgress(1), durable);
    });

    std::printf("throughput (hot pass):    %12.0f accesses/sec\n",
                hot.accessesPerSec());
    std::printf("throughput (instrumented): %11.0f accesses/sec\n\n",
                inst.accessesPerSec());

    std::printf("  %-18s %10s %10s %10s %10s %10s\n", "ns/access",
                "mean", "p50", "p90", "p99", "max");
    printLatencyRow("hot", hot.latency);
    printLatencyRow("instrumented", inst.latency);

    std::printf("\noutcomes (hot pass): %llu detections, %llu corrected, "
                "%llu DUEs, %llu recovery episodes (%llu recovered, "
                "%llu exhausted)\n",
                static_cast<unsigned long long>(hot.detections),
                static_cast<unsigned long long>(hot.corrected),
                static_cast<unsigned long long>(hot.dues),
                static_cast<unsigned long long>(hot.recovery.episodes),
                static_cast<unsigned long long>(hot.recovery.recovered),
                static_cast<unsigned long long>(hot.recovery.exhausted));

    if (traceSink) {
        std::printf("\ntrace: %llu events -> %s (%llu dropped, "
                    "%llu IO errors)\n",
                    static_cast<unsigned long long>(traceSink->recorded()),
                    opt.tracePath.c_str(),
                    static_cast<unsigned long long>(traceSink->dropped()),
                    static_cast<unsigned long long>(traceSink->ioErrors()));
    }

    // ---- RAS health report + prediction scoring -------------------
    std::printf("\nRAS health (instrumented pass): rank %s, "
                "%u degraded / %u failing banks, %zu topology call(s), "
                "%llu action(s) recommended\n",
                ras::healthStateName(monitor.rankState()),
                monitor.degradedBanks(), monitor.failingBanks(),
                monitor.topologies().size(),
                static_cast<unsigned long long>(
                    monitor.actionCount(ras::ActionKind::RaisePatrol) +
                    monitor.actionCount(ras::ActionKind::RetireRow) +
                    monitor.actionCount(
                        ras::ActionKind::QuarantineBank)));

    bench::RasReport rasReport;
    rasReport.monitor = &monitor;
    if (mix.agingSites) {
        // Score the monitor's inferred topologies against the aging
        // plan (the lineage ground truth): a weak row must be called
        // as that (bank, row), a dying chip as that chip, a marginal
        // CA pin as a link fault (class-level — alerts carry no
        // address, so the pin itself is only diagnosable via eDECC).
        rasReport.hasPrediction = true;
        const auto plan = agingPlan(
            mix, Geometry{},
            Mechanisms::forLevel(ProtectionLevel::Aiecc).parPinPresent());
        char buf[64];
        for (const AgingSite &s : plan) {
            bench::RasReport::SiteScore sc;
            sc.site = s.label;
            switch (s.kind) {
              case AgingSite::Kind::Row: {
                const ras::TopologyCall call =
                    monitor.bankTopology(s.bank);
                sc.matched = call.kind == ras::Topology::Row &&
                             call.row == s.row;
                std::snprintf(buf, sizeof(buf), "%s b%u r%u",
                              ras::topologyName(call.kind), call.bank,
                              call.row);
                sc.inferred = buf;
                break;
              }
              case AgingSite::Kind::Chip: {
                sc.inferred = "none";
                for (const ras::TopologyCall &call :
                     monitor.chipTopologies()) {
                    if (call.chip != s.chip)
                        continue;
                    sc.matched = true;
                    std::snprintf(buf, sizeof(buf), "chip %u",
                                  call.chip);
                    sc.inferred = buf;
                    break;
                }
                break;
              }
              case AgingSite::Kind::Pin: {
                const ras::TopologyCall call = monitor.linkTopology();
                sc.matched = call.kind == ras::Topology::Link;
                sc.inferred =
                    !sc.matched ? "none"
                    : call.pin >= 0
                        ? std::string("link pin ") + pinName(static_cast<Pin>(call.pin))
                        : "link";
                break;
              }
            }
            rasReport.sites.push_back(sc);
        }
        std::printf("aging: %zu wearing site(s), topology inference "
                    "matched %llu (%.0f%%)\n",
                    rasReport.sites.size(),
                    static_cast<unsigned long long>(
                        rasReport.matchedSites()),
                    100.0 * rasReport.accuracy());
        for (const bench::RasReport::SiteScore &sc : rasReport.sites)
            std::printf("  %-14s -> %-18s %s\n", sc.site.c_str(),
                        sc.inferred.c_str(),
                        sc.matched ? "match" : "MISS");
    }
    if (mix.mitigate) {
        std::printf("\npredictive mitigation (instrumented vs "
                    "baseline hot pass): corrected %llu -> %llu, "
                    "DUEs %llu -> %llu, recovery episodes %llu -> "
                    "%llu\n",
                    static_cast<unsigned long long>(hot.corrected),
                    static_cast<unsigned long long>(inst.corrected),
                    static_cast<unsigned long long>(hot.dues),
                    static_cast<unsigned long long>(inst.dues),
                    static_cast<unsigned long long>(
                        hot.recovery.episodes),
                    static_cast<unsigned long long>(
                        inst.recovery.episodes));
    }

    if (ledger) {
        const obs::CoverageMatrix cov =
            obs::CoverageMatrix::fromLedger(lineage);
        const obs::CoverageMatrix::Audit audit = cov.audit();
        std::printf("\nlive fault stream: %llu faults injected, "
                    "%llu unaccounted, ledger digest %016llx\n",
                    static_cast<unsigned long long>(audit.injected),
                    static_cast<unsigned long long>(audit.unaccounted),
                    static_cast<unsigned long long>(lineage.digest()));
        if (!audit.ok) {
            for (const std::string &v : audit.violations)
                std::fprintf(stderr, "coverage audit: %s\n", v.c_str());
            return 1;
        }
    }

    // Per-access allocation report (DESIGN.md §13): the instrumented
    // pass's allocations inside stack.read/write over every access it
    // drove, warmup included.
    uint64_t instAccesses = 0;
    if (campaignMode) {
        for (uint64_t shard = 0; shard < shards; ++shard) {
            const uint64_t len =
                shardLength(mix.accesses, campaignShardSize, shard);
            instAccesses += len + len / 20 + 500;
        }
    } else {
        instAccesses = mix.accesses + mix.warmup;
    }
    bench::allocReport() = {inst.allocs, instAccesses};

    bench::CostEntries costs;
    costs.emplace_back("aiecc", cost);

    bench::writeJsonArtifact(opt, "bench_e2e_throughput", costs, {},
                             rasReport, [&](obs::JsonWriter &w) {
        w.beginObject();
        w.kv("mode", campaignMode ? "campaign" : "single_stream");
        if (campaignMode) {
            w.kv("shards", shards);
            w.kv("shard_size", campaignShardSize);
        }
        w.kv("accesses", mix.accesses);
        w.kv("warmup", mix.warmup);
        w.kv("reads", hot.reads);
        w.kv("writes", hot.writes);
        w.key("outcomes").beginObject();
        w.kv("detections", hot.detections);
        w.kv("corrected", hot.corrected);
        w.kv("dues", hot.dues);
        w.kv("recovery_episodes", hot.recovery.episodes);
        w.kv("recovery_recovered", hot.recovery.recovered);
        w.kv("recovery_exhausted", hot.recovery.exhausted);
        w.endObject();
        if (mix.agingSites)
            w.kv("aging_sites", mix.agingSites);
        if (mix.mitigate) {
            // The instrumented pass ran with the monitor's actions
            // fed back; the hot pass above is the same fault schedule
            // unmitigated, so this pair is the mitigation effect.
            w.key("outcomes_mitigated").beginObject();
            w.kv("detections", inst.detections);
            w.kv("corrected", inst.corrected);
            w.kv("dues", inst.dues);
            w.kv("recovery_episodes", inst.recovery.episodes);
            w.kv("recovery_recovered", inst.recovery.recovered);
            w.kv("recovery_exhausted", inst.recovery.exhausted);
            w.kv("patrol_reads", inst.recovery.patrolReads);
            w.endObject();
        }
        w.key("counters").beginObject();
        w.kv("stack_reads", stats.counterValue("stack.reads"));
        w.kv("stack_writes", stats.counterValue("stack.writes"));
        w.kv("stack_detections", stats.counterValue("stack.detections"));
        w.kv("controller_commands",
             stats.counterValue("controller.commands"));
        w.kv("recovery_episodes",
             stats.counterValue("stack.recovery.episodes"));
        w.endObject();
        if (ledger) {
            w.key("lineage");
            lineage.writeJson(w);
        }
        w.endObject();
    }, [&](obs::JsonWriter &w) {
        if (campaignMode)
            w.kv("jobs_resolved", resolveJobs(opt.jobs));
        w.kv("elapsed_ns", hot.elapsedNs);
        w.kv("accesses_per_sec", hot.accessesPerSec());
        w.kv("instrumented_accesses_per_sec", inst.accessesPerSec());
        w.key("ns_per_access").beginObject();
        w.kv("mean", hot.latency.mean());
        w.kv("min", hot.latency.min());
        w.kv("max", hot.latency.max());
        w.kv("p50", hot.latency.quantile(0.50));
        w.kv("p90", hot.latency.quantile(0.90));
        w.kv("p99", hot.latency.quantile(0.99));
        w.endObject();
    });
    campaign.finish();
    return 0;
}
