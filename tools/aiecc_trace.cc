/**
 * @file
 * `aiecc-trace` — offline analysis of recorded JSONL event traces.
 *
 * Every simulation surface that attaches a JsonlTraceSink (campaign
 * drivers, bench_e2e_throughput --trace, examples) writes the same
 * flat one-object-per-line schema, every fact its own member (trace
 * format 2, DESIGN.md §6); this CLI consumes those files:
 *
 *   aiecc-trace summary FILE...            per-kind counts, rates and
 *                                          inter-event gap statistics
 *   aiecc-trace filter [PRED...] FILE...   re-emit matching events as
 *                                          JSONL on stdout
 *   aiecc-trace export --chrome [-o OUT] FILE...
 *                                          Chrome trace-event JSON
 *                                          (chrome://tracing, Perfetto)
 *                                          with recovery episodes as
 *                                          duration spans
 *   aiecc-trace lineage [--chrome] [-o OUT] FILE...
 *                                          per-fault inject→observe*→
 *                                          resolve timelines, orphan /
 *                                          unresolved diagnostics, and
 *                                          (--chrome) lineage spans
 *   aiecc-trace cost [--level L] [-o OUT] FILE...
 *                                          replay the command/retry/
 *                                          scrub stream through the
 *                                          protection cost model and
 *                                          print per-level attribution
 *   aiecc-trace progress FILE...           latest state of a live (or
 *                                          finished) campaign from its
 *                                          --heartbeat JSONL: percent
 *                                          done, trial rate, ETA, and
 *                                          the record history
 *   aiecc-trace health [-o OUT] FILE...    replay the symptom stream
 *                                          through the RAS health
 *                                          monitor: per-component
 *                                          states, inferred fault
 *                                          topologies, recommended
 *                                          actions, and inference
 *                                          accuracy against aging-site
 *                                          ground truth when present
 *
 * Filter predicates: --kind NAME, --label TEXT, --cycle-min N,
 * --cycle-max N.  Multiple input files are concatenated in argument
 * order.  Exit status: 0 success, 1 file/IO error, 2 usage error.
 * With --strict, malformed lines, a truncated final record, and
 * lineage integrity violations are hard errors (exit 1) instead of
 * warnings.  `lineage` and `cost` stream their inputs — a trace
 * larger than memory is fine; only fault-stamped events (lineage) or
 * plain counters (cost) are retained.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "aiecc/cost_model.hh"
#include "aiecc/mechanisms.hh"
#include "obs/cost.hh"
#include "obs/json.hh"
#include "obs/trace.hh"
#include "obs/trace_reader.hh"
#include "ras/health.hh"

namespace
{

using namespace aiecc;

void
usage(std::FILE *to)
{
    std::fprintf(
        to,
        "usage: aiecc-trace <command> [options] FILE...\n"
        "\n"
        "commands:\n"
        "  summary   per-kind event counts, rates per kilocycle, and\n"
        "            inter-event gap statistics\n"
        "  filter    print events matching every predicate as JSONL\n"
        "  export    convert to another format (requires --chrome)\n"
        "  lineage   per-fault inject/observe/resolve timelines and\n"
        "            integrity diagnostics (orphan events, unresolved\n"
        "            faults); --chrome exports lineage spans\n"
        "  cost      replay commands/retries/scrubs through the\n"
        "            protection cost model: per-level storage, bus and\n"
        "            latency attribution plus the conservation audit\n"
        "  progress  summarize a campaign's --heartbeat JSONL file:\n"
        "            latest shard/trial counts, percent done, trial\n"
        "            rate, ETA, and forced (SIGUSR1) dumps\n"
        "  health    replay the symptom stream through the RAS health\n"
        "            monitor: rank/bank states, inferred fault\n"
        "            topologies, recommended actions, and — when the\n"
        "            trace carries aging-site FaultInject ground truth\n"
        "            — topology-inference accuracy; -o writes the\n"
        "            monitor's `ras` JSON section\n"
        "\n"
        "common options:\n"
        "  --strict        malformed lines, truncated tails, and\n"
        "                  lineage integrity violations exit 1\n"
        "\n"
        "filter predicates:\n"
        "  --kind NAME     event kind (command, detection, retry, ...)\n"
        "  --label TEXT    exact label match\n"
        "  --cycle-min N   keep events at cycle >= N\n"
        "  --cycle-max N   keep events at cycle <= N\n"
        "\n"
        "export / lineage options:\n"
        "  --chrome        Chrome trace-event JSON (Perfetto-loadable)\n"
        "  -o, --out PATH  write to PATH instead of stdout\n"
        "  --limit N       lineage: print at most N fault timelines\n"
        "                  (default 20; 0 = all)\n"
        "\n"
        "cost options:\n"
        "  --level L       protection level whose cost model prices\n"
        "                  the replay: none, decc, edecc, aiecc\n"
        "                  (default aiecc)\n"
        "  -o, --out PATH  also write the accountant's JSON to PATH\n");
    std::fprintf(to, "\nknown kinds:");
    for (unsigned k = 0; k < obs::numEventKinds; ++k) {
        const std::string_view name =
            obs::eventKindNameView(static_cast<obs::EventKind>(k));
        std::fprintf(to, " %.*s", static_cast<int>(name.size()),
                     name.data());
    }
    std::fprintf(to, "\n");
}

/**
 * Stream every input file through @p consume without retaining
 * events; exits on unreadable files.  With @p strict, malformed lines
 * and truncated tails exit 1 instead of warning — recorded campaign
 * traces are complete by construction, so in CI any parse damage
 * means the artifact cannot be trusted.  Returns the total number of
 * events delivered.
 */
uint64_t
streamAll(const std::vector<std::string> &paths, bool strict,
          const std::function<void(obs::TraceEvent &)> &consume)
{
    uint64_t total = 0;
    bool damaged = false;
    for (const std::string &path : paths) {
        const obs::StreamResult sr = obs::streamTraceFile(path, consume);
        if (!sr.opened) {
            std::fprintf(stderr, "aiecc-trace: cannot read %s\n",
                         path.c_str());
            std::exit(1);
        }
        if (sr.badLines) {
            damaged = true;
            std::fprintf(stderr,
                         "aiecc-trace: %s: %llu malformed line(s) "
                         "skipped (first: %s)\n",
                         path.c_str(),
                         static_cast<unsigned long long>(sr.badLines),
                         sr.firstError.c_str());
        }
        if (sr.truncatedTail) {
            damaged = true;
            std::fprintf(stderr,
                         "aiecc-trace: %s: truncated final record "
                         "dropped (writer stopped mid-write?)\n",
                         path.c_str());
        }
        total += sr.events;
    }
    if (strict && damaged) {
        std::fprintf(stderr,
                     "aiecc-trace: --strict: damaged input is a hard "
                     "error\n");
        std::exit(1);
    }
    return total;
}

/** Load and concatenate every input file (streamAll's policy). */
std::vector<obs::TraceEvent>
loadAll(const std::vector<std::string> &paths, bool strict)
{
    std::vector<obs::TraceEvent> events;
    streamAll(paths, strict,
              [&](const obs::TraceEvent &event) { events.push_back(event); });
    return events;
}

int
cmdSummary(const std::vector<std::string> &paths, bool strict)
{
    const std::vector<obs::TraceEvent> events = loadAll(paths, strict);
    const obs::TraceSummary sum = obs::summarizeTrace(events);

    std::printf("%llu events over cycles [%llu, %llu]\n\n",
                static_cast<unsigned long long>(sum.totalEvents),
                static_cast<unsigned long long>(sum.firstCycle),
                static_cast<unsigned long long>(sum.lastCycle));
    std::printf("%-16s %10s %12s %12s %12s %12s\n", "kind", "count",
                "per-kcycle", "gap-mean", "gap-p50", "gap-p99");
    for (const auto &[kind, ks] : sum.byKind) {
        const std::string_view name = obs::eventKindNameView(kind);
        std::printf("%-16.*s %10llu %12.3f %12.1f %12.1f %12.1f\n",
                    static_cast<int>(name.size()), name.data(),
                    static_cast<unsigned long long>(ks.count),
                    sum.ratePerKiloCycle(kind), ks.gaps.mean(),
                    ks.gaps.quantile(0.50), ks.gaps.quantile(0.99));
    }
    for (const auto &[kind, ks] : sum.byKind) {
        if (ks.byLabel.empty() ||
            (ks.byLabel.size() == 1 && ks.byLabel.count("")))
            continue;
        const std::string_view name = obs::eventKindNameView(kind);
        std::printf("\n%.*s by label:\n", static_cast<int>(name.size()),
                    name.data());
        for (const auto &[label, n] : ks.byLabel) {
            std::printf("  %-24s %10llu\n",
                        label.empty() ? "(none)" : label.c_str(),
                        static_cast<unsigned long long>(n));
        }
    }
    return 0;
}

int
cmdFilter(const obs::TraceFilter &filter,
          const std::vector<std::string> &paths, bool strict)
{
    const std::vector<obs::TraceEvent> events = loadAll(paths, strict);
    uint64_t matched = 0;
    for (const obs::TraceEvent &event :
         obs::filterEvents(events, filter)) {
        obs::JsonWriter w(0);
        event.writeJson(w);
        std::printf("%s\n", w.str().c_str());
        ++matched;
    }
    std::fprintf(stderr, "aiecc-trace: %llu of %llu events matched\n",
                 static_cast<unsigned long long>(matched),
                 static_cast<unsigned long long>(events.size()));
    return 0;
}

int
cmdExport(const std::string &outPath,
          const std::vector<std::string> &paths, bool strict)
{
    const std::vector<obs::TraceEvent> events = loadAll(paths, strict);
    obs::JsonWriter w;
    const uint64_t spans = obs::writeChromeTrace(events, w);
    if (outPath.empty()) {
        std::printf("%s\n", w.str().c_str());
    } else if (!w.writeFile(outPath)) {
        std::fprintf(stderr, "aiecc-trace: cannot write %s\n",
                     outPath.c_str());
        return 1;
    } else {
        std::fprintf(stderr,
                     "aiecc-trace: %llu events, %llu episode span(s) "
                     "-> %s\n",
                     static_cast<unsigned long long>(events.size()),
                     static_cast<unsigned long long>(spans),
                     outPath.c_str());
    }
    return 0;
}

/** One short timeline line per event of a fault. */
void
printTimeline(const obs::FaultTimeline &ft)
{
    std::printf("fault %016llx  %zu event(s)%s%s\n",
                static_cast<unsigned long long>(ft.faultId),
                ft.events.size(),
                ft.injected ? "" : "  [NO INJECT — orphan]",
                ft.resolved ? "" : "  [UNRESOLVED]");
    for (const obs::TraceEvent &event : ft.events) {
        const std::string_view kind = obs::eventKindNameView(event.kind);
        const std::string label(event.labelText());
        const std::string detail = event.detailText();
        std::printf("  cycle %8llu  %-14.*s %-20s value=%llu%s%s\n",
                    static_cast<unsigned long long>(event.cycle),
                    static_cast<int>(kind.size()), kind.data(),
                    label.empty() ? "-" : label.c_str(),
                    static_cast<unsigned long long>(event.value),
                    detail.empty() ? "" : "  ", detail.c_str());
    }
}

int
cmdLineage(bool chrome, const std::string &outPath, uint64_t limit,
           const std::vector<std::string> &paths, bool strict)
{
    // Streamed: only fault-stamped events are retained, so the faulty
    // slice of an arbitrarily large trace is all that hits memory.
    obs::LineageBuilder builder;
    const uint64_t totalEvents = streamAll(
        paths, strict,
        [&](const obs::TraceEvent &event) { builder.add(event); });
    const obs::LineageView view = builder.finish();

    if (chrome) {
        obs::JsonWriter w;
        const uint64_t spans = obs::writeLineageChromeTrace(view, w);
        if (outPath.empty()) {
            std::printf("%s\n", w.str().c_str());
        } else if (!w.writeFile(outPath)) {
            std::fprintf(stderr, "aiecc-trace: cannot write %s\n",
                         outPath.c_str());
            return 1;
        } else {
            std::fprintf(stderr,
                         "aiecc-trace: %zu fault(s), %llu lineage "
                         "span(s) -> %s\n",
                         view.faults.size(),
                         static_cast<unsigned long long>(spans),
                         outPath.c_str());
        }
    } else {
        std::printf("%zu fault(s) across %llu event(s)\n",
                    view.faults.size(),
                    static_cast<unsigned long long>(totalEvents));
        uint64_t shown = 0;
        for (const obs::FaultTimeline &ft : view.faults) {
            if (limit && shown >= limit) {
                std::printf("... and %zu more fault(s) (--limit 0 "
                            "shows all)\n",
                            view.faults.size() -
                                static_cast<size_t>(shown));
                break;
            }
            printTimeline(ft);
            ++shown;
        }
    }

    // Integrity diagnostics go to stderr either way; under --strict a
    // broken lineage (a producer lost an inject or resolve edge) is a
    // hard failure, mirroring the coverage auditor's conservation rule.
    const bool broken =
        view.orphanEvents || view.unresolved || view.resolveWithoutInject;
    if (broken) {
        std::fprintf(
            stderr,
            "aiecc-trace: lineage integrity: %llu orphan event(s), "
            "%llu unresolved fault(s), %llu resolve(s) without "
            "inject\n",
            static_cast<unsigned long long>(view.orphanEvents),
            static_cast<unsigned long long>(view.unresolved),
            static_cast<unsigned long long>(view.resolveWithoutInject));
        if (strict)
            return 1;
    }
    return 0;
}

/**
 * Replay a recorded event stream through the protection cost model.
 *
 * A trace does not know which mechanisms produced it, so the caller
 * names the protection level (--level) and the replay prices every
 * edge with that level's CostModel.  Demand and recovery traffic are
 * separated by event kind: every Retry is a recovery re-execution and
 * every Scrub / PatrolScrub a recovery write-back, and since those
 * re-executions also appear in the command stream, their count is
 * subtracted from the CommandIssued totals before the demand-side
 * billing — the same command edge is never billed twice.
 */
int
cmdCost(ProtectionLevel level, const std::string &outPath,
        const std::vector<std::string> &paths, bool strict)
{
    // Pass 1 over the stream: plain counters, constant memory.
    uint64_t nEdges = 0, nWr = 0, nRd = 0;
    uint64_t retryRd = 0, retryWr = 0, scrubs = 0;
    const uint64_t totalEvents = streamAll(
        paths, strict, [&](const obs::TraceEvent &event) {
            switch (event.kind) {
              case obs::EventKind::CommandIssued:
                ++nEdges;
                if (event.labelText() == "WR")
                    ++nWr;
                else if (event.labelText() == "RD")
                    ++nRd;
                break;
              case obs::EventKind::Retry:
                // The replay harness labels write re-executions "wr";
                // recovery-engine retries re-read the failing block.
                if (event.labelText() == "wr")
                    ++retryWr;
                else
                    ++retryRd;
                break;
              case obs::EventKind::Scrub:
              case obs::EventKind::PatrolScrub:
                ++scrubs;
                break;
              default:
                break;
            }
        });

    // Recovery traffic is part of the recorded command stream; keep
    // the split consistent even if a producer emitted Retry markers
    // without the matching command edges.
    const uint64_t recRd = std::min(nRd, retryRd);
    const uint64_t recWr = std::min(nWr, retryWr + scrubs);
    const uint64_t demandRd = nRd - recRd;
    const uint64_t demandWr = nWr - recWr;
    const uint64_t otherEdges = nEdges - nWr - nRd;

    const Mechanisms mech = Mechanisms::forLevel(level);
    obs::CostAccountant acct(makeCostModel(mech));
    for (uint64_t i = 0; i < otherEdges; ++i)
        acct.onCommand(false, false);
    for (uint64_t i = 0; i < demandWr; ++i) {
        acct.onCommand(true, false);
        acct.onEccEncode();
    }
    for (uint64_t i = 0; i < demandRd; ++i) {
        acct.onCommand(false, true);
        acct.onEccDecode();
    }
    {
        obs::ScopedRecoveryCost episode(&acct);
        for (uint64_t i = 0; i < recWr; ++i) {
            acct.onCommand(true, false);
            acct.onEccEncode();
        }
        for (uint64_t i = 0; i < recRd; ++i) {
            acct.onCommand(false, true);
            acct.onEccDecode();
        }
    }

    std::printf("%llu event(s): %llu command edge(s) "
                "(%llu WR, %llu RD), %llu retries, %llu scrub(s)\n"
                "priced as %s\n\n",
                static_cast<unsigned long long>(totalEvents),
                static_cast<unsigned long long>(nEdges),
                static_cast<unsigned long long>(nWr),
                static_cast<unsigned long long>(nRd),
                static_cast<unsigned long long>(retryRd + retryWr),
                static_cast<unsigned long long>(scrubs),
                mech.describe().c_str());

    std::printf("%-12s %16s %16s %16s\n", "level", "storage_bits",
                "bus_bits", "latency_ps");
    for (unsigned l = 0; l < obs::numCostLevels; ++l) {
        const auto level2 = static_cast<obs::CostLevel>(l);
        std::printf(
            "%-12s %16llu %16llu %16llu\n",
            obs::costLevelName(level2).c_str(),
            static_cast<unsigned long long>(
                acct.cell(level2, obs::CostCategory::Storage)),
            static_cast<unsigned long long>(
                acct.cell(level2, obs::CostCategory::Bus)),
            static_cast<unsigned long long>(
                acct.cell(level2, obs::CostCategory::Latency)));
    }
    std::printf("%-12s %16llu %16llu %16llu\n", "total",
                static_cast<unsigned long long>(
                    acct.total(obs::CostCategory::Storage)),
                static_cast<unsigned long long>(
                    acct.total(obs::CostCategory::Bus)),
                static_cast<unsigned long long>(
                    acct.total(obs::CostCategory::Latency)));
    std::printf("\nstorage overhead: %.2f%%   bus overhead: %.2f%%   "
                "latency: %.3f ns/access\n",
                acct.storageOverheadPct(), acct.busOverheadPct(),
                acct.latencyNsPerAccess());

    if (!outPath.empty()) {
        obs::JsonWriter w;
        acct.writeJson(w);
        if (!w.writeFile(outPath)) {
            std::fprintf(stderr, "aiecc-trace: cannot write %s\n",
                         outPath.c_str());
            return 1;
        }
        std::fprintf(stderr, "aiecc-trace: cost attribution -> %s\n",
                     outPath.c_str());
    }

    const obs::CostAccountant::Audit audit = acct.audit();
    if (!audit.ok) {
        for (const std::string &v : audit.violations)
            std::fprintf(stderr, "aiecc-trace: cost audit: %s\n",
                         v.c_str());
        return 1;
    }
    return 0;
}

/** Render @p seconds as "1h 02m 03s" / "4m 05s" / "6.7s". */
std::string
humanSeconds(double seconds)
{
    char buf[64];
    if (seconds < 0)
        seconds = 0;
    const uint64_t s = static_cast<uint64_t>(seconds);
    if (s >= 3600) {
        std::snprintf(buf, sizeof buf, "%lluh %02llum %02llus",
                      static_cast<unsigned long long>(s / 3600),
                      static_cast<unsigned long long>((s / 60) % 60),
                      static_cast<unsigned long long>(s % 60));
    } else if (s >= 60) {
        std::snprintf(buf, sizeof buf, "%llum %02llus",
                      static_cast<unsigned long long>(s / 60),
                      static_cast<unsigned long long>(s % 60));
    } else {
        std::snprintf(buf, sizeof buf, "%.1fs", seconds);
    }
    return buf;
}

/**
 * Summarize a campaign heartbeat file: the latest record carries the
 * live state (every record is cumulative), earlier records are the
 * history.  Multiple files are reported independently — heartbeat
 * files are per-campaign and concatenating them would splice
 * unrelated shard counters.
 */
int
cmdProgress(const std::vector<std::string> &paths, bool strict)
{
    bool damaged = false;
    for (const std::string &path : paths) {
        const obs::HeartbeatFile hf = obs::readHeartbeatFile(path);
        if (!hf.opened) {
            std::fprintf(stderr, "aiecc-trace: cannot read %s\n",
                         path.c_str());
            return 1;
        }
        if (hf.badLines) {
            damaged = true;
            std::fprintf(stderr,
                         "aiecc-trace: %s: %llu malformed line(s) "
                         "skipped (first: %s)\n",
                         path.c_str(),
                         static_cast<unsigned long long>(hf.badLines),
                         hf.firstError.c_str());
        }
        if (hf.truncatedTail) {
            // Expected mid-write on a live campaign; not damage.
            std::fprintf(stderr,
                         "aiecc-trace: %s: torn final record dropped "
                         "(campaign still writing?)\n",
                         path.c_str());
        }
        if (hf.records.empty()) {
            std::printf("%s: no heartbeat records yet\n", path.c_str());
            continue;
        }

        const obs::HeartbeatRecord &last = hf.records.back();
        uint64_t forced = 0;
        for (const obs::HeartbeatRecord &r : hf.records)
            forced += r.forced;

        const double pct =
            last.shardsTotal
                ? 100.0 * static_cast<double>(last.shardsDone) /
                      static_cast<double>(last.shardsTotal)
                : 0.0;
        const bool done = last.shardsTotal &&
                          last.shardsDone == last.shardsTotal;
        if (paths.size() > 1)
            std::printf("== %s ==\n", path.c_str());
        std::printf("campaign: %s\n", last.campaign.c_str());
        if (!last.note.empty())
            std::printf("at:       %s\n", last.note.c_str());
        std::printf("progress: %llu/%llu shards (%.1f%%), "
                    "%llu/%llu trials%s\n",
                    static_cast<unsigned long long>(last.shardsDone),
                    static_cast<unsigned long long>(last.shardsTotal),
                    pct,
                    static_cast<unsigned long long>(last.trialsDone),
                    static_cast<unsigned long long>(last.trialsTotal),
                    done ? "  [complete]" : "");
        std::printf("session:  %s elapsed, %.0f trials/s",
                    humanSeconds(last.elapsedS).c_str(),
                    last.trialsPerS);
        if (!done)
            std::printf(", ETA %s", humanSeconds(last.etaS).c_str());
        std::printf("\n");
        std::printf("records:  %zu (%llu forced dump(s), last seq "
                    "%llu)\n",
                    hf.records.size(),
                    static_cast<unsigned long long>(forced),
                    static_cast<unsigned long long>(last.seq));
        for (const auto &[key, value] : last.extras) {
            std::printf("  %-28s %.6g\n", key.c_str(), value);
        }
    }
    if (strict && damaged) {
        std::fprintf(stderr,
                     "aiecc-trace: --strict: damaged input is a hard "
                     "error\n");
        return 1;
    }
    return 0;
}

/** Human-readable one-liner for a confident topology call. */
std::string
describeTopology(const ras::TopologyCall &call)
{
    char buf[96];
    switch (call.kind) {
      case ras::Topology::SingleCell:
        std::snprintf(buf, sizeof buf, "bank %u single-cell r%u c%u",
                      call.bank, call.row, call.col);
        break;
      case ras::Topology::Row:
        std::snprintf(buf, sizeof buf, "bank %u row r%u", call.bank,
                      call.row);
        break;
      case ras::Topology::Column:
        std::snprintf(buf, sizeof buf, "bank %u column c%u", call.bank,
                      call.col);
        break;
      case ras::Topology::Chip:
        std::snprintf(buf, sizeof buf, "chip %u", call.chip);
        break;
      case ras::Topology::Link:
        if (call.pin >= 0)
            return std::string("link pin ") + pinName(static_cast<Pin>(call.pin));
        return "link";
      case ras::Topology::None:
      default:
        return "none";
    }
    return buf;
}

/**
 * Replay a recorded symptom stream through a fresh HealthMonitor —
 * the exact sink the live benches attach — and report what an
 * operator would see: rank/bank health states, windowed symptom
 * counters, confident topology inferences, and the recommended-action
 * log.  FaultInject events whose labels follow the aging-site
 * convention ("row:b<B>:r<R>", "chip:<N>", "pin:<NAME>") are ground
 * truth; when any are present the inferences are scored against them,
 * mirroring the prediction accuracy in bench_e2e_throughput --aging.
 */
int
cmdHealth(const std::string &outPath,
          const std::vector<std::string> &paths, bool strict)
{
    // Streamed: the monitor is a constant-size aggregate, and only the
    // (few) distinct aging-site labels are retained.
    ras::HealthMonitor monitor;
    std::vector<std::string> sites;
    const uint64_t totalEvents = streamAll(
        paths, strict, [&](obs::TraceEvent &event) {
            const std::string_view label = event.labelText();
            if (event.kind == obs::EventKind::FaultInject &&
                (label.starts_with("row:b") || label.starts_with("chip:") ||
                 label.starts_with("pin:")) &&
                std::find(sites.begin(), sites.end(), label) == sites.end())
                sites.emplace_back(label);
            monitor.record(event);
        });

    std::printf("%llu event(s) replayed: rank %s, %u degraded / %u "
                "failing bank(s)\n",
                static_cast<unsigned long long>(totalEvents),
                ras::healthStateName(monitor.rankState()),
                monitor.degradedBanks(), monitor.failingBanks());
    std::printf("faults followed: %llu injected, %llu resolved\n",
                static_cast<unsigned long long>(
                    monitor.faultsInjected()),
                static_cast<unsigned long long>(
                    monitor.faultsResolved()));

    for (unsigned b = 0; b < monitor.config().geom.numBanks(); ++b) {
        if (monitor.bankState(b) == ras::HealthState::Healthy)
            continue;
        std::printf("  bank %-2u %s\n", b,
                    ras::healthStateName(monitor.bankState(b)));
    }

    const std::vector<ras::TopologyCall> calls = monitor.topologies();
    std::printf("\ntopology calls (%zu):\n", calls.size());
    if (calls.empty())
        std::printf("  (none — not enough concentrated evidence)\n");
    for (const ras::TopologyCall &call : calls) {
        std::printf("  %-28s evidence=%llu share=%.0f%%\n",
                    describeTopology(call).c_str(),
                    static_cast<unsigned long long>(call.evidence),
                    100.0 * call.share);
    }

    const std::vector<ras::RecommendedAction> &log = monitor.actionLog();
    std::printf("\nrecommended actions (%zu):\n", log.size());
    for (const ras::RecommendedAction &act : log) {
        std::printf("  cycle %8llu  %-16s",
                    static_cast<unsigned long long>(act.cycle),
                    ras::actionName(act.kind));
        if (act.kind == ras::ActionKind::RetireRow)
            std::printf("  bank %u row %u", act.bank, act.row);
        else if (act.kind == ras::ActionKind::QuarantineBank)
            std::printf("  bank %u", act.bank);
        std::printf("\n");
    }

    if (!sites.empty()) {
        // Score each ground-truth site exactly as the aging bench
        // does: a weak row must be called as that (bank, row), a dying
        // chip as that chip, a marginal CA pin as a link fault
        // (class-level — alert events carry no pin address).
        uint64_t matched = 0;
        std::printf("\naging-site ground truth (%zu site(s)):\n",
                    sites.size());
        for (const std::string &site : sites) {
            bool ok = false;
            std::string inferred = "none";
            unsigned bank = 0, row = 0, chip = 0;
            if (std::sscanf(site.c_str(), "row:b%u:r%u", &bank,
                            &row) == 2) {
                const ras::TopologyCall call = monitor.bankTopology(bank);
                ok = call.kind == ras::Topology::Row && call.row == row;
                if (call.kind != ras::Topology::None)
                    inferred = describeTopology(call);
            } else if (std::sscanf(site.c_str(), "chip:%u", &chip) ==
                       1) {
                for (const ras::TopologyCall &call :
                     monitor.chipTopologies()) {
                    if (call.chip != chip)
                        continue;
                    ok = true;
                    inferred = describeTopology(call);
                    break;
                }
            } else {
                const ras::TopologyCall call = monitor.linkTopology();
                ok = call.kind == ras::Topology::Link;
                if (ok)
                    inferred = describeTopology(call);
            }
            matched += ok;
            std::printf("  %-14s -> %-28s %s\n", site.c_str(),
                        inferred.c_str(), ok ? "match" : "MISS");
        }
        std::printf("topology inference matched %llu/%zu (%.0f%%)\n",
                    static_cast<unsigned long long>(matched),
                    sites.size(),
                    sites.empty()
                        ? 0.0
                        : 100.0 * static_cast<double>(matched) /
                              static_cast<double>(sites.size()));
    }

    if (!outPath.empty()) {
        obs::JsonWriter w;
        monitor.writeJson(w);
        if (!w.writeFile(outPath)) {
            std::fprintf(stderr, "aiecc-trace: cannot write %s\n",
                         outPath.c_str());
            return 1;
        }
        std::fprintf(stderr, "aiecc-trace: ras section -> %s\n",
                     outPath.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage(stderr);
        return 2;
    }
    const std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "help") {
        usage(stdout);
        return 0;
    }

    obs::TraceFilter filter;
    bool chrome = false;
    bool strict = false;
    uint64_t limit = 20;
    ProtectionLevel costLevel = ProtectionLevel::Aiecc;
    std::string outPath;
    std::vector<std::string> paths;
    for (int i = 2; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--kind") && i + 1 < argc) {
            const auto kind = obs::eventKindFromName(argv[++i]);
            if (!kind) {
                std::fprintf(stderr, "aiecc-trace: unknown kind: %s\n",
                             argv[i]);
                return 2;
            }
            filter.kind = *kind;
        } else if (!std::strcmp(arg, "--label") && i + 1 < argc) {
            filter.label = argv[++i];
        } else if (!std::strcmp(arg, "--cycle-min") && i + 1 < argc) {
            filter.cycleMin = std::strtoull(argv[++i], nullptr, 10);
        } else if (!std::strcmp(arg, "--cycle-max") && i + 1 < argc) {
            filter.cycleMax = std::strtoull(argv[++i], nullptr, 10);
        } else if (!std::strcmp(arg, "--chrome")) {
            chrome = true;
        } else if (!std::strcmp(arg, "--strict")) {
            strict = true;
        } else if (!std::strcmp(arg, "--limit") && i + 1 < argc) {
            limit = std::strtoull(argv[++i], nullptr, 10);
        } else if (!std::strcmp(arg, "--level") && i + 1 < argc) {
            const std::string name = argv[++i];
            if (name == "none")
                costLevel = ProtectionLevel::None;
            else if (name == "decc")
                costLevel = ProtectionLevel::Ddr4Decc;
            else if (name == "edecc")
                costLevel = ProtectionLevel::Ddr4EDecc;
            else if (name == "aiecc")
                costLevel = ProtectionLevel::Aiecc;
            else {
                std::fprintf(stderr,
                             "aiecc-trace: unknown level: %s "
                             "(none, decc, edecc, aiecc)\n",
                             name.c_str());
                return 2;
            }
        } else if ((!std::strcmp(arg, "-o") ||
                    !std::strcmp(arg, "--out")) &&
                   i + 1 < argc) {
            outPath = argv[++i];
        } else if (!std::strcmp(arg, "--help")) {
            usage(stdout);
            return 0;
        } else if (arg[0] == '-' && arg[1] != '\0') {
            std::fprintf(stderr,
                         "aiecc-trace: unknown or incomplete option: "
                         "%s\n",
                         arg);
            usage(stderr);
            return 2;
        } else {
            paths.emplace_back(arg);
        }
    }
    if (paths.empty()) {
        std::fprintf(stderr, "aiecc-trace: no input files\n");
        usage(stderr);
        return 2;
    }

    if (cmd == "summary")
        return cmdSummary(paths, strict);
    if (cmd == "filter")
        return cmdFilter(filter, paths, strict);
    if (cmd == "export") {
        if (!chrome) {
            std::fprintf(stderr,
                         "aiecc-trace: export requires a format flag "
                         "(--chrome)\n");
            return 2;
        }
        return cmdExport(outPath, paths, strict);
    }
    if (cmd == "lineage")
        return cmdLineage(chrome, outPath, limit, paths, strict);
    if (cmd == "cost")
        return cmdCost(costLevel, outPath, paths, strict);
    if (cmd == "progress")
        return cmdProgress(paths, strict);
    if (cmd == "health")
        return cmdHealth(outPath, paths, strict);
    std::fprintf(stderr, "aiecc-trace: unknown command: %s\n",
                 cmd.c_str());
    usage(stderr);
    return 2;
}
