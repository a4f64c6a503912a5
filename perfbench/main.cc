/**
 * @file
 * Entry point of the repository benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Prints a human-readable report, then, as the last line of standard
 * output, one JSON object: {"correct", "attempted", "failed",
 * "metrics"}.  --trace 0 reports the end-to-end metrics, --trace 1 the
 * per-layer ones.  Exits 1 when an output check fails, 2 on bad usage.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench.hh"

namespace perfbench
{
namespace
{

struct MetricDef
{
    const char *name;
    const char *unit;
};

const MetricDef endToEnd[] = {
    {"ops_per_s", "1/s"},     {"op_p50_ns", "ns"},
    {"op_p99_ns", "ns"},      {"ok_frac", "ratio"},
    {"sdc_free_frac", "ratio"}, {"peak_heap_mb", "MB"},
    {"setup_s", "s"},
};

// Every per-layer metric is printed on every workload; a layer the
// workload does not exercise reads 0.
const MetricDef perLayer[] = {
    {"aiecc.read.ns", "ns"},
    {"aiecc.write.ns", "ns"},
    {"aiecc.self_ns_per_op", "ns"},
    {"aiecc.ctor_us", "us"},
    {"ecc.encode.ns", "ns"},
    {"ecc.decode_clean.ns", "ns"},
    {"ecc.decode_corrected.ns", "ns"},
    {"ecc.decode_due.ns", "ns"},
    {"rs.syndrome.ns", "ns"},
    {"rs.decode_dirty.ns", "ns"},
    {"controller.issue.ns", "ns"},
    {"controller.self_ns_per_op", "ns"},
    {"controller.cmds_per_op", "count"},
    {"ddr4.pin_codec.ns", "ns"},
    {"crc.ewcrc.ns", "ns"},
    {"dram.cstc.ns", "ns"},
    {"recovery.episodes_per_kop", "count"},
    {"recovery.attempts_per_episode", "count"},
    {"recovery.exhausted_ratio", "ratio"},
    {"recovery.episode.ns", "ns"},
    {"ras.monitor_ns_per_op", "ns"},
    {"obs.trace_events_per_op", "count"},
    {"obs.allocs_per_op", "count"},
    {"inject.mc_trial_ns.qpc", "ns"},
    {"inject.mc_trial_ns.azul", "ns"},
    {"inject.mc_trial_ns.edecc_t", "ns"},
    {"inject.mc_trial_ns.edecc_c", "ns"},
    {"inject.mc_retries_per_trial", "count"},
    {"sim.failed_frac", "ratio"},
    {"sim.sdc_frac", "ratio"},
    {"sim.cycles_per_op", "cycles"},
    {"trace.ops_per_s", "1/s"},
    {"trace.untraced_ops_per_s", "1/s"},
    {"trace.overhead_frac", "ratio"},
    {"trace.ns_per_op", "ns"},
    {"unattributed.ns_per_op", "ns"},
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload clean_mix|faulty_mix|"
                 "data_campaign|ccca_campaign --seed N --seconds S "
                 "--trace 0|1\n",
                 why);
    return 2;
}

bool
parseOptions(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const char *flag = argv[i];
        if (i + 1 >= argc)
            return false;
        const char *val = argv[++i];
        char *end = nullptr;
        if (!std::strcmp(flag, "--workload")) {
            opt.workload = val;
        } else if (!std::strcmp(flag, "--seed")) {
            opt.seed = std::strtoull(val, &end, 10);
            if (*end)
                return false;
        } else if (!std::strcmp(flag, "--seconds")) {
            opt.seconds = std::strtod(val, &end);
            if (*end || !(opt.seconds > 0.0) || opt.seconds > 600.0)
                return false;
        } else if (!std::strcmp(flag, "--trace")) {
            if (std::strcmp(val, "0") && std::strcmp(val, "1"))
                return false;
            opt.trace = val[0] == '1';
        } else {
            return false;
        }
    }
    return !opt.workload.empty();
}

void
printJson(const RunResult &res, bool correct, bool trace)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed));
    const MetricDef *defs = trace ? perLayer : endToEnd;
    const size_t n = trace ? std::size(perLayer) : std::size(endToEnd);
    for (size_t i = 0; i < n; ++i) {
        const auto it = res.values.find(defs[i].name);
        double v = it == res.values.end() ? 0.0 : it->second;
        if (!std::isfinite(v))
            v = 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", defs[i].name, v, defs[i].unit);
    }
    std::printf("}}\n");
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    if (!parseOptions(argc, argv, opt))
        return usage("bad or missing arguments");

    RunResult res;
    if (opt.workload == "clean_mix")
        res = runMix(opt, /*faulty=*/false);
    else if (opt.workload == "faulty_mix")
        res = runMix(opt, /*faulty=*/true);
    else if (opt.workload == "data_campaign")
        res = runDataCampaign(opt);
    else if (opt.workload == "ccca_campaign")
        res = runCccaCampaign(opt);
    else
        return usage(("unknown workload " + opt.workload).c_str());

    res.check(res.attempted > 0, "no op completed");
    std::printf("workload %s, seed %llu, %s run\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                opt.trace ? "traced" : "untraced");
    for (const std::string &line : res.notes)
        std::printf("  %s\n", line.c_str());
    for (const std::string &err : res.errors)
        std::printf("  CHECK FAILED: %s\n", err.c_str());
    const bool correct = res.errors.empty();
    printJson(res, correct, opt.trace);
    std::fflush(stdout);
    return correct ? 0 : 1;
}
