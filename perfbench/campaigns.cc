/**
 * @file
 * The two fault-injection campaign workloads.
 *
 * data_campaign runs the Table III data + address Monte-Carlo (4
 * schemes x 11 injecting cells) through DataMonteCarlo::runCellSharded
 * on one thread: the RS decoder's dirty path and the retry loop, with
 * no controller, DRAM or recovery code at all.
 *
 * ccca_campaign runs InjectionCampaign at AIECC level over the
 * exhaustive 1-pin and 2-pin error spaces of the 5 command patterns.
 * Every trial builds a golden and a faulty stack and drives the
 * low-level issue*() path, so stack construction and the rank's
 * erroneous-command handling dominate.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

#include "inject/campaign.hh"
#include "inject/montecarlo.hh"
#include "obs/memprof.hh"
#include "obs/stats.hh"
#include "perfbench.hh"

namespace perfbench
{
namespace
{

using namespace aiecc;

/** Trials per timed runCellSharded() call: one default-sized shard. */
constexpr uint64_t shardTrials = 1024;

const EccScheme schemes[] = {EccScheme::Qpc, EccScheme::AzulQpc,
                             EccScheme::EDeccTransformQpc,
                             EccScheme::EDeccQpc};
const char *const schemeKeys[] = {"qpc", "azul", "edecc_t", "edecc_c"};
const char *const patternKeys[] = {"act_wr", "act_rd", "wr", "rd", "pre"};

struct Cell
{
    DataErrorModel data;
    AddrErrorModel addr;
};

/** The 11 Table III cells that inject something. */
std::vector<Cell>
injectingCells()
{
    std::vector<Cell> cells;
    for (DataErrorModel d : {DataErrorModel::None, DataErrorModel::Bit1,
                             DataErrorModel::Chip1, DataErrorModel::Rank1})
        for (AddrErrorModel a : {AddrErrorModel::None, AddrErrorModel::Bit1,
                                 AddrErrorModel::Bits32})
            if (d != DataErrorModel::None || a != AddrErrorModel::None)
                cells.push_back({d, a});
    return cells;
}

bool
sameCounts(const MonteCarloCell &a, const MonteCarloCell &b)
{
    return a.trials == b.trials &&
           !std::memcmp(a.counts, b.counts, sizeof(a.counts));
}

double
peakMb()
{
    return static_cast<double>(
               obs::memprof::processTotals().peakLiveBytes) /
           1e6;
}

/** Traced-run tail shared by both campaigns. */
void
reportCampaignTrace(RunResult &out, const Options &opt,
                    const PassTimes &plain, const PassTimes &traced,
                    double callNsPerOp, uint64_t allocs)
{
    const double tracedRate = median(traced.opsPerSec);
    const double plainRate = median(plain.opsPerSec);
    const double perOp = traced.ns / static_cast<double>(traced.ops);
    out.set("trace.ops_per_s", tracedRate);
    out.set("trace.untraced_ops_per_s", plainRate);
    out.set("trace.overhead_frac", plainRate / tracedRate - 1.0);
    out.set("trace.ns_per_op", perOp);
    out.set("unattributed.ns_per_op", perOp - callNsPerOp);
    out.set("obs.allocs_per_op",
            static_cast<double>(allocs) / static_cast<double>(traced.ops));
    probeLayers(out, opt.seed, makeStream(opt.seed, 20000), opt.seconds / 3);

    char line[200];
    out.note("attribution, ns per op (rows add up to the traced ns/op):");
    std::snprintf(line, sizeof(line), "  %-32s %10.1f", "inject (trial calls)",
                  callNsPerOp);
    out.note(line);
    std::snprintf(line, sizeof(line), "  %-32s %10.1f",
                  "unattributed (benchmark loop)", perOp - callNsPerOp);
    out.note(line);
    std::snprintf(line, sizeof(line), "  %-32s %10.1f", "traced total", perOp);
    out.note(line);
    std::snprintf(line, sizeof(line),
                  "tracing: untraced %.0f ops/s, traced %.0f ops/s "
                  "(overhead %.1f%%)",
                  plainRate, tracedRate, 100.0 * (plainRate / tracedRate - 1));
    out.note(line);
    out.note("layer probes below ran on a 20k-access replay of the "
             "mix generator with this seed");
}

} // namespace

RunResult
runDataCampaign(const Options &opt)
{
    RunResult out;
    const std::vector<Cell> cells = injectingCells();
    ShardPlan plan;
    plan.jobs = 1;
    std::vector<std::unique_ptr<DataMonteCarlo>> mc;
    measureSetup(out, 7, [&] {
        const auto t = Clock::now();
        mc.clear();
        for (EccScheme s : schemes) {
            mc.push_back(std::make_unique<DataMonteCarlo>(s, opt.seed));
            for (size_t c = 0; c < cells.size(); ++c)
                mc.back()->runCellSharded(cells[c].data, cells[c].addr,
                                          shardTrials, plan);
        }
        return nsSince(t) * 1e-9;
    });

    const uint64_t passTrials = std::size(schemes) * cells.size() * shardTrials;
    std::vector<MonteCarloCell> ref;
    std::vector<double> lat;
    double peak = 0.0;
    // One pass: every (scheme, cell) once; @p schemeNs collects the
    // call time per scheme.
    const auto pass = [&](double *schemeNs) {
        std::vector<MonteCarloCell> got;
        lat.clear();
        obs::memprof::resetProcessTotals();
        const auto begin = Clock::now();
        for (size_t s = 0; s < mc.size(); ++s) {
            for (const Cell &c : cells) {
                const auto t = Clock::now();
                got.push_back(mc[s]->runCellSharded(c.data, c.addr,
                                                    shardTrials, plan));
                const double ns = nsSince(t);
                lat.push_back(ns / shardTrials);
                if (schemeNs)
                    schemeNs[s] += ns;
            }
        }
        const double ns = nsSince(begin);
        peak = std::max(peak, peakMb());
        if (ref.empty())
            ref = got;
        bool same = true;
        for (size_t i = 0; i < got.size(); ++i)
            same &= sameCounts(got[i], ref[i]);
        out.check(same, "simulated statistics differ between two passes of "
                        "the same seed");
        return ns;
    };

    PassTimes times;
    repeatFor(opt.trace ? opt.seconds / 3 : opt.seconds, 3, [&](unsigned) {
        const double ns = pass(nullptr);
        times.add(passTrials, ns, lat);
    });
    out.attempted = times.ops;

    uint64_t ok = 0, sdc = 0, due = 0;
    for (size_t i = 0; i < ref.size(); ++i) {
        const MonteCarloCell &c = ref[i];
        uint64_t sum = 0;
        for (uint64_t n : c.counts)
            sum += n;
        out.check(c.trials == shardTrials && sum == c.trials,
                  "outcome counts do not add up to trials attempted");
        sdc += c.count(DataOutcome::Sdc);
        due += c.count(DataOutcome::Due);
        ok += c.trials - c.count(DataOutcome::Sdc) - c.count(DataOutcome::Due);
        // Table III: QPC alone turns every address error into SDC
        // (rank-wide garbage is detected as DUE before the address
        // matters, as in the paper's 1-rank row).
        const Cell &cell = cells[i % cells.size()];
        if (i < cells.size() && cell.addr != AddrErrorModel::None &&
            cell.data != DataErrorModel::Rank1)
            out.check(c.count(DataOutcome::Sdc) == c.trials,
                      "QPC is not 100% SDC on an address-error cell");
    }
    const double n = static_cast<double>(passTrials);
    reportTimes(out, times);
    out.set("ok_frac", static_cast<double>(ok) / n);
    out.set("sdc_free_frac", 1.0 - static_cast<double>(sdc) / n);
    out.set("peak_heap_mb", peak);
    out.set("sim.failed_frac", static_cast<double>(sdc + due) / n);
    out.set("sim.sdc_frac", static_cast<double>(sdc) / n);
    char line[200];
    std::snprintf(line, sizeof(line),
                  "per pass of %llu trials (%zu cells x %llu): ok %llu, DUE "
                  "%llu, SDC %llu; setup_s %.4f s, peak_heap_mb %.3f MB",
                  (unsigned long long)passTrials, ref.size(),
                  (unsigned long long)shardTrials, (unsigned long long)ok,
                  (unsigned long long)due, (unsigned long long)sdc,
                  out.values["setup_s"], peak);
    out.note(line);
    uint64_t h = digest(nullptr, 0);
    for (const MonteCarloCell &c : ref)
        h = digest(c.counts, sizeof(c.counts), digest(&c.trials, 8, h));
    noteDigest(out, h);
    out.note("op latency here is one runCellSharded() shard call divided "
             "by its trials, so a pass has one sample per cell and its p99 "
             "is its costliest cell");
    if (!opt.trace)
        return out;

    obs::StatsRegistry stats;
    obs::Observer observer(&stats);
    for (auto &m : mc)
        m->setObserver(&observer);
    double schemeNs[std::size(schemes)] = {};
    PassTimes traced;
    uint64_t allocs = 0;
    repeatFor(opt.seconds / 3, 1, [&](unsigned) {
        const double ns = pass(schemeNs);
        allocs += obs::memprof::processTotals().allocs; // reset per pass
        traced.add(passTrials, ns, lat);
    });
    const double perScheme = static_cast<double>(traced.p50.size()) *
                             cells.size() * shardTrials;
    double callNs = 0.0;
    for (size_t s = 0; s < std::size(schemes); ++s) {
        out.set(std::string("inject.mc_trial_ns.") + schemeKeys[s],
                schemeNs[s] / perScheme);
        callNs += schemeNs[s];
    }
    const obs::Counter *retries =
        stats.findCounter("montecarlo.retry.attempts");
    out.set("inject.mc_retries_per_trial",
            retries ? static_cast<double>(retries->value()) / traced.ops
                    : 0.0);
    reportCampaignTrace(out, opt, times, traced,
                        callNs / static_cast<double>(traced.ops), allocs);
    return out;
}

RunResult
runCccaCampaign(const Options &opt)
{
    RunResult out;
    const Mechanisms mech = Mechanisms::forLevel(ProtectionLevel::Aiecc);
    const std::vector<CommandPattern> patterns = allPatterns();
    std::unique_ptr<InjectionCampaign> campaign;
    std::vector<PinError> errors;
    measureSetup(out, 7, [&] {
        const auto t = Clock::now();
        campaign = std::make_unique<InjectionCampaign>(mech, opt.seed);
        errors.clear();
        for (unsigned k = 1; k <= 2; ++k) {
            const uint64_t size = campaign->kPinSpace(k).size();
            for (uint64_t r = 0; r < size; ++r)
                errors.push_back(campaign->kPinError(k, r));
        }
        for (CommandPattern p : patterns)
            for (size_t i = 0; i < 80; ++i)
                campaign->runTrial(p, errors[i * errors.size() / 80]);
        return nsSince(t) * 1e-9;
    });

    const uint64_t passTrials = patterns.size() * errors.size();
    std::vector<std::string> ref;
    std::vector<CampaignStats> refStats;
    std::vector<double> lat;
    double peak = 0.0;
    // One pass: every error against every pattern.  Each pattern's
    // sweep is one timing window of @p t.
    const auto pass = [&](PassTimes &t, double *patternNs) {
        std::vector<CampaignStats> got(patterns.size());
        lat.clear();
        obs::memprof::resetProcessTotals();
        for (size_t p = 0; p < patterns.size(); ++p) {
            const auto begin = Clock::now();
            for (const PinError &e : errors) {
                const auto t0 = Clock::now();
                const TrialResult r = campaign->runTrial(patterns[p], e);
                const double ns = nsSince(t0);
                lat.push_back(ns);
                if (patternNs)
                    patternNs[p] += ns;
                got[p].add(r);
            }
            t.addWindow(errors.size(), nsSince(begin));
        }
        t.addLatencies(lat);
        peak = std::max(peak, peakMb());
        std::vector<std::string> state;
        for (const CampaignStats &s : got)
            state.push_back(s.serializeState());
        if (ref.empty()) {
            ref = state;
            refStats = got;
        }
        out.check(state == ref, "simulated statistics differ between two "
                                "passes of the same seed");
    };

    PassTimes times;
    repeatFor(opt.trace ? opt.seconds / 3 : opt.seconds, 3,
              [&](unsigned) { pass(times, nullptr); });
    out.attempted = times.ops;

    CampaignStats all;
    for (const CampaignStats &s : refStats)
        all.merge(s);
    const unsigned silent = all.sdc + all.mdc - all.sdcMdcBoth;
    out.check(all.trials == passTrials &&
                  all.noEffect + all.corrected + all.due + silent ==
                      all.trials,
              "outcome counts do not add up to trials attempted");
    // Figure 7: AIECC leaves no 1-pin or 2-pin error silent.
    out.check(silent == 0, "AIECC let a 1- or 2-pin CCCA error through "
                           "silently");
    const double n = static_cast<double>(passTrials);
    reportTimes(out, times);
    out.set("ok_frac", (all.noEffect + all.corrected) / n);
    out.set("sdc_free_frac", 1.0 - silent / n);
    out.set("peak_heap_mb", peak);
    out.set("sim.failed_frac", (all.due + silent) / n);
    out.set("sim.sdc_frac", silent / n);
    char line[240];
    std::snprintf(line, sizeof(line),
                  "per pass of %llu trials: no effect %u, corrected %u, DUE "
                  "%u, SDC/MDC %u, recovery episodes %llu; setup_s %.4f s, "
                  "peak_heap_mb %.3f MB",
                  (unsigned long long)passTrials, all.noEffect, all.corrected,
                  all.due, silent,
                  (unsigned long long)all.recoveryEpisodes,
                  out.values["setup_s"], peak);
    out.note(line);
    uint64_t h = digest(nullptr, 0);
    for (const std::string &s : ref)
        h = digest(s.data(), s.size(), h);
    noteDigest(out, h);
    if (!opt.trace)
        return out;

    double patternNs[5] = {};
    PassTimes traced;
    uint64_t allocs = 0;
    repeatFor(opt.seconds / 3, 1, [&](unsigned) {
        pass(traced, patternNs);
        allocs += obs::memprof::processTotals().allocs; // reset per pass
    });
    // ccca_campaign is not in BENCHMARK.json, so its per-pattern trial
    // times are printed rather than reported as metrics.
    double callNs = 0.0;
    for (size_t p = 0; p < patterns.size(); ++p) {
        std::snprintf(line, sizeof(line), "trial_us.%s %.1f us",
                      patternKeys[p],
                      patternNs[p] / (traced.p50.size() * errors.size()) /
                          1000.0);
        out.note(line);
        callNs += patternNs[p];
    }
    out.set("recovery.episodes_per_kop", all.recoveryEpisodes * 1000.0 / n);
    if (all.recoveryEpisodes)
        out.set("recovery.attempts_per_episode",
                static_cast<double>(all.recoveryAttempts) /
                    all.recoveryEpisodes);
    reportCampaignTrace(out, opt, times, traced,
                        callNs / static_cast<double>(traced.ops), allocs);
    return out;
}

} // namespace perfbench
