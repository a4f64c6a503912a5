/**
 * @file
 * Tiny shared helpers for the paper-reproduction benches: flag
 * parsing (--trials N, --allpin N, --quick, --json PATH), banner
 * printing, the checkpointed campaign loop, and the shared JSON
 * artifact shape.
 */

#ifndef AIECC_BENCH_BENCH_UTIL_HH
#define AIECC_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/checkpoint.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "obs/cost.hh"
#include "obs/heartbeat.hh"
#include "obs/json.hh"
#include "obs/memprof.hh"
#include "obs/shard_run.hh"
#include "obs/state.hh"
#include "ras/health.hh"

namespace aiecc
{
namespace bench
{

/**
 * Version of the shared `--json` artifact envelope written by
 * writeJsonArtifact().  Bump when the envelope shape changes so
 * offline consumers (tools/compare_bench.py, trend dashboards) can
 * refuse to compare apples to oranges.
 *
 * v1: {bench, options, results} (implicit, unversioned)
 * v2: adds "schema_version" to the envelope
 * v3: adds "jobs" (worker-thread request, 0 = auto) to "options"
 * v4: adds the top-level "cost" section (per-configuration protection
 *     cost attribution, obs/cost.hh) next to "results"
 * v5: adds "checkpoint", "resume" and "exhaustive" to "options"
 *     (crash-tolerant campaigns; none is output-affecting except
 *     "exhaustive", which switches enumerable spaces from sampling to
 *     full enumeration)
 * v6: adds "heartbeat" to "options" (live progress telemetry path;
 *     never output-affecting) and the top-level "alloc" section
 *     (process allocation totals, per-scope attribution and the
 *     allocs_per_access top line — the hot-path allocation baseline
 *     compare_bench.py hard-gates)
 * v7: adds "health", "aging" and "mitigate" to "options" (RAS health
 *     telemetry; all three output-affecting) and the top-level "ras"
 *     section (sliding-window error rates, per-component health
 *     states, inferred fault topologies and the recommended-action
 *     log) whenever a health monitor observed the run
 * v8: splits the artifact into a deterministic body and one top-level
 *     "host" object holding every host-dependent value: the jobs,
 *     checkpoint, resume and heartbeat options, wall clock, resolved
 *     worker count, throughput and latency, timing histograms and the
 *     "alloc" section.  The body ("options" now lists only
 *     output-affecting options) is a pure function of the code and the
 *     options, so `compare_bench.py --same` gates identity on it
 */
constexpr int artifactSchemaVersion = 8;

/** Common bench options. */
struct Options
{
    uint64_t trials = 0;   ///< Monte-Carlo trials per cell (0 = default)
    unsigned allPin = 0;   ///< all-pin noise samples (0 = default)
    bool quick = false;    ///< cut work for smoke runs
    std::string jsonPath;  ///< write a machine-readable artifact here

    /**
     * Campaign worker threads.  0 = the flag was not given; campaign
     * benches resolve that to the hardware concurrency, while the e2e
     * throughput bench keeps its canonical single-stream mode.  Never
     * output-affecting: for a fixed seed the campaign results are
     * bit-identical for every value.
     */
    unsigned jobs = 0;

    // In-band recovery knobs (benches that model recovery only).
    unsigned recoveryAttempts = 0; ///< retry budget override (0 = default)
    unsigned recoveryPersist = 0;  ///< fault persistence edges (0 = 1)
    uint64_t recoveryPatrol = 0;   ///< patrol period in accesses (0 = off)

    // Access-mix knobs (end-to-end throughput bench only).
    double readFrac = 0.67;  ///< fraction of accesses that read
    double faultRate = 0.0;  ///< per-edge pin-corruption probability
    bool noRecovery = false; ///< disable the in-band recovery engine
    std::string tracePath;   ///< stream a JSONL event trace here

    // Crash-tolerant campaign knobs (checkpointed benches only).
    std::string checkpointPath; ///< durable checkpoint file ("" = off)
    bool resume = false;        ///< resume from --checkpoint if present
    bool exhaustive = false;    ///< enumerate enumerable error spaces

    /** Live progress telemetry JSONL path ("" = off; never
     *  output-affecting — see obs/heartbeat.hh). */
    std::string heartbeatPath;

    // RAS health telemetry knobs (src/ras).
    /**
     * Attach a RAS health monitor and emit the artifact's "ras"
     * section.  The e2e throughput bench always monitors; the
     * campaign benches do so only with this flag (the extra event
     * materialization is measurable at campaign scale).
     */
    bool health = false;
    /**
     * Aging mode (e2e bench only): activate N wearing fault sites —
     * weak rows, dying chips, flaky CA pins — on a front-loaded
     * schedule across the run, so error rates climb and accumulate
     * the way end-of-life DIMMs age.  0 = off.
     */
    uint64_t aging = 0;
    /** Feed recommended actions back into the stack (predictive
     *  mitigation); compare coverage against a run without it. */
    bool mitigate = false;
};

inline void
usage(std::FILE *to, const char *prog)
{
    std::fprintf(to,
                 "usage: %s [--quick] [--trials N] [--allpin N] "
                 "[--jobs N] [--json PATH]\n"
                 "       [--recovery-attempts N] [--recovery-persist N] "
                 "[--recovery-patrol N]\n"
                 "       [--read-frac F] [--fault-rate F] "
                 "[--no-recovery] [--trace PATH] [--help]\n"
                 "  --quick      cut work for smoke runs\n"
                 "  --trials N   Monte-Carlo trials per cell\n"
                 "  --allpin N   all-pin noise samples per cell\n"
                 "  --jobs N     campaign worker threads (0 = hardware "
                 "auto;\n"
                 "               results are identical for every N)\n"
                 "  --json PATH  also write the results as JSON\n"
                 "  --recovery-attempts N  in-band retry budget per "
                 "episode\n"
                 "  --recovery-persist N   injected faults persist N "
                 "command edges\n"
                 "  --recovery-patrol N    patrol-scrub one block every "
                 "N accesses\n"
                 "  --read-frac F   fraction of accesses that read "
                 "(e2e bench)\n"
                 "  --fault-rate F  per-edge pin-corruption probability "
                 "(e2e bench)\n"
                 "  --no-recovery   disable the in-band recovery engine "
                 "(e2e bench)\n"
                 "  --trace PATH    stream a JSONL event trace "
                 "(e2e bench)\n"
                 "  --checkpoint PATH  write a durable campaign "
                 "checkpoint (atomic replace)\n"
                 "  --resume        continue from the --checkpoint "
                 "file's last good state\n"
                 "  --exhaustive    fully enumerate enumerable error "
                 "spaces instead of sampling\n"
                 "  --heartbeat PATH  append live progress telemetry "
                 "records (JSONL;\n"
                 "               SIGUSR1 forces an immediate dump; "
                 "see aiecc-trace progress)\n"
                 "  --health     attach a RAS health monitor and emit "
                 "the \"ras\" section\n"
                 "  --aging N    activate N wearing fault sites over "
                 "the run (e2e bench)\n"
                 "  --mitigate   apply the monitor's recommended "
                 "actions (predictive\n"
                 "               mitigation; implies --health)\n",
                 prog);
}

inline Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--quick")) {
            opt.quick = true;
        } else if (!std::strcmp(argv[i], "--trials") && i + 1 < argc) {
            opt.trials = std::strtoull(argv[++i], nullptr, 10);
        } else if (!std::strcmp(argv[i], "--allpin") && i + 1 < argc) {
            opt.allPin = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc) {
            opt.jobs = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
            opt.jsonPath = argv[++i];
        } else if (!std::strcmp(argv[i], "--recovery-attempts") &&
                   i + 1 < argc) {
            opt.recoveryAttempts = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (!std::strcmp(argv[i], "--recovery-persist") &&
                   i + 1 < argc) {
            opt.recoveryPersist = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (!std::strcmp(argv[i], "--recovery-patrol") &&
                   i + 1 < argc) {
            opt.recoveryPatrol = std::strtoull(argv[++i], nullptr, 10);
        } else if (!std::strcmp(argv[i], "--read-frac") && i + 1 < argc) {
            opt.readFrac = std::strtod(argv[++i], nullptr);
        } else if (!std::strcmp(argv[i], "--fault-rate") &&
                   i + 1 < argc) {
            opt.faultRate = std::strtod(argv[++i], nullptr);
        } else if (!std::strcmp(argv[i], "--no-recovery")) {
            opt.noRecovery = true;
        } else if (!std::strcmp(argv[i], "--trace") && i + 1 < argc) {
            opt.tracePath = argv[++i];
        } else if (!std::strcmp(argv[i], "--checkpoint") &&
                   i + 1 < argc) {
            opt.checkpointPath = argv[++i];
        } else if (!std::strcmp(argv[i], "--resume")) {
            opt.resume = true;
        } else if (!std::strcmp(argv[i], "--exhaustive")) {
            opt.exhaustive = true;
        } else if (!std::strcmp(argv[i], "--heartbeat") &&
                   i + 1 < argc) {
            opt.heartbeatPath = argv[++i];
        } else if (!std::strcmp(argv[i], "--health")) {
            opt.health = true;
        } else if (!std::strcmp(argv[i], "--aging") && i + 1 < argc) {
            opt.aging = std::strtoull(argv[++i], nullptr, 10);
        } else if (!std::strcmp(argv[i], "--mitigate")) {
            opt.mitigate = true;
            opt.health = true;
        } else if (!std::strcmp(argv[i], "--help")) {
            usage(stdout, argv[0]);
            std::exit(0);
        } else {
            std::fprintf(stderr, "unknown or incomplete flag: %s\n",
                         argv[i]);
            usage(stderr, argv[0]);
            std::exit(2);
        }
    }
    return opt;
}

inline void
banner(const std::string &title)
{
    std::printf("\n==============================================="
                "=====================\n%s\n"
                "==============================================="
                "=====================\n\n",
                title.c_str());
}

/** When an option appears in campaignIdFor()'s string. */
enum class InId
{
    Always, ///< always, as " tag=value"
    IfSet   ///< only when nonzero/true: " tag" (flag) or " tag=value"
};

/**
 * The one list of output-affecting options: @p visit(key, tag, value,
 * inId) sees each one's artifact "options" member name, its campaign-id
 * tag, its value (uint64_t, double or bool) and its id form.  The
 * artifact body and campaignIdFor() both read this list, so an option
 * cannot be identity in one and ignored by the other.  Not listed:
 * --jobs (bit-identical by contract), --checkpoint, --resume and
 * --heartbeat (the artifact's "host" object records them) and the
 * --json/--trace output paths.  Order and forms are frozen: existing
 * checkpoint files carry the id this list renders.
 */
template <class Visit>
inline void
forEachOutputOption(const Options &opt, Visit &&visit)
{
    visit("trials", "trials", opt.trials, InId::Always);
    visit("allpin", "allpin", uint64_t{opt.allPin}, InId::Always);
    visit("quick", "quick", opt.quick, InId::IfSet);
    visit("recovery_attempts", "rattempts", uint64_t{opt.recoveryAttempts},
          InId::Always);
    visit("recovery_persist", "rpersist", uint64_t{opt.recoveryPersist},
          InId::Always);
    visit("recovery_patrol", "rpatrol", opt.recoveryPatrol, InId::Always);
    // Access-mix knobs: output-affecting for the e2e bench, constant
    // defaults everywhere else.
    visit("read_frac", "readfrac", opt.readFrac, InId::Always);
    visit("fault_rate", "faultrate", opt.faultRate, InId::Always);
    visit("no_recovery", "norecovery", opt.noRecovery, InId::IfSet);
    visit("exhaustive", "exhaustive", opt.exhaustive, InId::IfSet);
    // RAS knobs: --health changes the event-materialization path (and
    // the artifact), --aging/--mitigate change the modeled run.
    visit("health", "health", opt.health, InId::IfSet);
    visit("aging", "aging", opt.aging, InId::IfSet);
    visit("mitigate", "mitigate", opt.mitigate, InId::IfSet);
}

/**
 * Canonical campaign identity for checkpoint files: the bench name
 * plus every output-affecting option (forEachOutputOption()), so a
 * checkpoint taken at --jobs 8 resumes cleanly at --jobs 1.
 */
inline std::string
campaignIdFor(const Options &opt, const std::string &benchName)
{
    std::string id = benchName;
    forEachOutputOption(opt, [&id](const char *, const char *tag,
                                   auto value, InId inId) {
        if (inId == InId::IfSet && !value)
            return;
        id += ' ';
        id += tag;
        if constexpr (!std::is_same_v<decltype(value), bool>) {
            id += '=';
            id += std::to_string(value);
        }
    });
    return id;
}

/**
 * The one checkpointed campaign loop (DESIGN.md §12, §13).
 *
 * A bench declares its merged state once — state(name, obj) per
 * checkpoint section, unit(label, trials, shardSize) per resumable
 * unit in run order — and supplies only the unit body.  run() walks
 * the units from the resume cursor and hands each body an
 * obs::ShardCheckpoint whose commit persists every section plus the
 * cursor, saves with the note "unit U/N (label) shard S" and ticks the
 * heartbeat.  Restore and persist read the same section list, so no
 * section can be saved without being restored, or the reverse.
 *
 * The file is pinned to campaignIdFor(): every output-affecting
 * option, never --jobs or paths, so a checkpoint cannot resume into a
 * differently-configured run but resumes at any worker count.  With
 * no --checkpoint the file side is inert and the loop, heartbeat
 * included, runs unchanged.
 */
class Campaign
{
  public:
    /** The checkpoint's "cursor" section: the unit in flight and its
     *  first uncommitted shard. */
    struct Cursor
    {
        uint64_t unit = 0;
        uint64_t shard = 0;

        template <class Self, class Archive>
        static void
        layout(Self &c, Archive &ar)
        {
            ar.tag("unit")(c.unit).tag("shard")(c.shard);
        }
    };

    /**
     * Open the checkpoint (--resume loads and verifies it; a file
     * that fails to verify or belongs to other options is fatal) and
     * the heartbeat (an unwritable path exits 2, like a flag error).
     */
    Campaign(const Options &opt, const std::string &benchName)
        : path(opt.checkpointPath), batch(checkpointBatchShards(opt.jobs))
    {
        const std::string id = campaignIdFor(opt, benchName);
        openCheckpoint(opt.resume, id);
        if (!opt.heartbeatPath.empty() &&
            !hb.open(opt.heartbeatPath, id)) {
            std::fprintf(stderr, "cannot write heartbeat: %s\n",
                         opt.heartbeatPath.c_str());
            std::exit(2);
        }
    }

    /**
     * Checkpoint @p obj (any type with a layout(), obs/state.hh) as
     * section @p name at every commit.  A resumed campaign restores it
     * here when the file carries it; a section that fails to parse is
     * fatal.  @p obj must stay alive through run().
     */
    template <class T>
    void
    state(const std::string &name, T &obj)
    {
        AIECC_ASSERT(name != "cursor", "section name 'cursor' is taken");
        if (resumed && ckpt.has(name))
            restore(name, obj);
        sections.push_back({name, [&obj] { return obs::writeState(obj); }});
    }

    /** Append a unit of @p trials trials in shards of @p shardSize. */
    void
    unit(std::string label, uint64_t trials, uint64_t shardSize)
    {
        units.push_back(
            {std::move(label), totalShards, totalTrials, trials, shardSize});
        totalShards += shardCount(trials, shardSize);
        totalTrials += trials;
        hb.setTotals(totalShards, totalTrials);
    }

    /** True when --checkpoint was given. */
    bool checkpointing() const { return !path.empty(); }

    /** The heartbeat, for the bench's payload. */
    obs::HeartbeatEmitter &heartbeat() { return hb; }

    /** Trials of the units before @p u (campaign-global numbering). */
    uint64_t trialsBefore(size_t u) const { return units[u].trialsBefore; }

    /**
     * The unit run() starts at: the cursor's on resume, else 0.  The
     * cursor is checked against the declared units, so call this
     * after the last unit(); a malformed cursor, or one past the
     * plan, is fatal.
     */
    size_t resumeUnit() { return resumeAt().unit; }

    /** Heartbeat progress: @p shardsDone shards of unit @p u are done. */
    void
    tick(size_t u, uint64_t shardsDone)
    {
        hb.tick(units[u].shardsBefore + shardsDone, trialsAt(u, shardsDone));
    }

    /** tick() for unit @p u as a per-shard progress hook (empty when
     *  there is no heartbeat). */
    std::function<void(uint64_t)>
    shardProgress(size_t u)
    {
        if (!hb.enabled())
            return {};
        return [this, u](uint64_t done) { tick(u, done); };
    }

    /**
     * Run every unit from the resume cursor: @p body(u, checkpoint)
     * runs unit u through an engine's checkpointed entry point and
     * returns its RunStatus.  An Interrupted unit writes the final
     * heartbeat record and exits 75 (exitInterrupted).
     */
    template <class Body>
    void
    run(Body &&body)
    {
        const Cursor at = resumeAt();
        for (size_t u = at.unit; u < units.size(); ++u) {
            uint64_t next = u == at.unit ? at.shard : 0;
            hb.setNote(units[u].label);
            const obs::ShardCheckpoint checkpoint{
                batch, &next,
                [this, u](uint64_t, uint64_t end) { commit(u, end); }};
            if (body(u, checkpoint) == RunStatus::Interrupted) {
                hb.finalTick(units[u].shardsBefore + next,
                             trialsAt(u, next));
                std::fprintf(stderr,
                             "interrupted; resumable state saved to %s "
                             "— rerun with --resume to continue\n",
                             path.empty() ? "(no checkpoint)"
                                          : path.c_str());
                std::exit(exitInterrupted);
            }
        }
        hb.finalTick(totalShards, totalTrials);
    }

    /** The run completed: the checkpoint has served its purpose. */
    void
    finish()
    {
        if (!path.empty())
            std::remove(path.c_str());
    }

  private:
    struct Section
    {
        std::string name;
        std::function<std::string()> write;
    };
    struct Unit
    {
        std::string label;
        uint64_t shardsBefore, trialsBefore, trials, shardSize;
    };

    void
    openCheckpoint(bool resume, const std::string &id)
    {
        ckpt.setCampaignId(id);
        if (path.empty()) {
            if (resume) {
                std::fprintf(stderr, "--resume requires --checkpoint PATH\n");
                std::exit(2);
            }
            return;
        }
        installStopHandlers();
        if (resume) {
            if (std::FILE *probe = std::fopen(path.c_str(), "rb")) {
                std::fclose(probe);
                CampaignCheckpoint loaded;
                const CampaignCheckpoint::Load res = loaded.loadFile(path);
                // An atomic replace never leaves a torn file, so a
                // file that does not verify is external damage:
                // refuse to guess.
                if (!res.ok)
                    AIECC_FATAL("cannot resume: " << res.error);
                if (loaded.campaignId() != id) {
                    AIECC_FATAL("checkpoint "
                                << path << " belongs to campaign '"
                                << loaded.campaignId()
                                << "', not this run's '" << id
                                << "' — options differ; delete it or "
                                   "fix the flags");
                }
                ckpt = std::move(loaded);
                resumed = true;
                std::printf("resuming campaign from %s (%s)\n",
                            path.c_str(),
                            ckpt.progressNote().empty()
                                ? "no progress note"
                                : ckpt.progressNote().c_str());
            } else {
                std::fprintf(stderr,
                             "checkpoint %s not found; starting fresh\n",
                             path.c_str());
            }
        }
        // Persist immediately: the file exists (and pins the campaign
        // ID) before the first batch runs, so a kill at any instant
        // leaves a loadable state behind.
        save(resumed ? ckpt.progressNote() : "starting");
    }

    template <class T>
    void
    restore(const std::string &name, T &obj)
    {
        const std::string why = obs::readState(obj, ckpt.get(name));
        if (!why.empty())
            refuse(name, why);
    }

    [[noreturn]] void
    refuse(const std::string &name, const std::string &why) const
    {
        AIECC_FATAL("cannot resume from " << path << ": section '" << name
                                          << "': " << why);
    }

    const Cursor &
    resumeAt()
    {
        if (cursor)
            return *cursor;
        cursor.emplace();
        if (!resumed || !ckpt.has("cursor"))
            return *cursor;
        restore("cursor", *cursor);
        const Cursor &c = *cursor;
        if (c.unit >= units.size()) {
            refuse("cursor", "unit " + std::to_string(c.unit) +
                                 " is past the plan's " +
                                 std::to_string(units.size()) + " units");
        }
        const Unit &u = units[c.unit];
        const uint64_t shards = shardCount(u.trials, u.shardSize);
        if (c.shard > shards) {
            refuse("cursor", "shard " + std::to_string(c.shard) +
                                 " is past unit " + std::to_string(c.unit) +
                                 "'s " + std::to_string(shards) +
                                 " shards");
        }
        return c;
    }

    uint64_t
    trialsAt(size_t u, uint64_t shardsDone) const
    {
        const Unit &unit = units[u];
        return unit.trialsBefore +
               std::min(shardsDone * unit.shardSize, unit.trials);
    }

    void
    commit(size_t u, uint64_t next)
    {
        if (!path.empty()) {
            ckpt.set("cursor", obs::writeState(Cursor{u, next}));
            for (const Section &s : sections)
                ckpt.set(s.name, s.write());
            save("unit " + std::to_string(u + 1) + "/" +
                 std::to_string(units.size()) + " (" + units[u].label +
                 ") shard " + std::to_string(next));
        }
        tick(u, next);
    }

    void
    save(const std::string &progressNote)
    {
        if (path.empty())
            return;
        ckpt.setProgressNote(progressNote);
        const CampaignCheckpoint::Load res = ckpt.saveAtomic(path);
        if (!res.ok)
            AIECC_FATAL("cannot save checkpoint: " << res.error);
    }

    std::string path;
    uint64_t batch;
    CampaignCheckpoint ckpt;
    bool resumed = false;
    obs::HeartbeatEmitter hb;
    std::vector<Section> sections;
    std::vector<Unit> units;
    uint64_t totalShards = 0, totalTrials = 0;
    std::optional<Cursor> cursor;
};

/**
 * The bench's access-path allocation report: the heap allocations
 * its measured calls made (memprof::threadAllocs() deltas, summed on
 * the threads that made the calls) and the access count the
 * allocs_per_access top line divides by.  Benches that measure an
 * access path set this (a process-wide slot, like the options they
 * parsed from one argv) before writeJsonArtifact(); benches without
 * one leave it empty and the artifact's "alloc" section carries
 * process totals only.
 */
struct AllocReport
{
    uint64_t allocs = 0;
    /** Denominator for allocs_per_access (0 = no report). */
    uint64_t accesses = 0;
};

inline AllocReport &
allocReport()
{
    static AllocReport report;
    return report;
}

/**
 * Emit the artifact's "alloc" member: process-wide totals (always)
 * plus the access count and the allocs_per_access top line when the
 * bench registered an AllocReport.  Written inside the artifact's
 * "host" object: process totals vary with --jobs (thread stacks, pool
 * bookkeeping), so the section is no part of the deterministic body.
 */
inline void
writeAllocSection(obs::JsonWriter &w)
{
    const obs::memprof::ProcessTotals t = obs::memprof::processTotals();
    w.key("alloc");
    w.beginObject();
    w.key("process");
    w.beginObject();
    w.kv("allocs", t.allocs);
    w.kv("frees", t.frees);
    w.kv("alloc_bytes", t.allocBytes);
    w.kv("free_bytes", t.freeBytes);
    w.kv("live_bytes", t.liveBytes);
    w.kv("peak_live_bytes", t.peakLiveBytes);
    w.endObject();
    const AllocReport &report = allocReport();
    if (report.accesses) {
        w.kv("accesses", report.accesses);
        w.kv("allocs_per_access", static_cast<double>(report.allocs) /
                                      static_cast<double>(report.accesses));
    }
    w.endObject();
}

/**
 * Labeled protection-cost accountants a bench accumulated, one per
 * configuration (scheme, protection level, ...) it ran.  Becomes the
 * artifact's "cost" section and the Pareto table's cost axis.
 */
using CostEntries =
    std::vector<std::pair<std::string, obs::CostAccountant>>;

/**
 * Enforce the conservation invariant on every accumulated accountant:
 * per category, total == Σ per-level, all recovery scopes closed.  A
 * violation is an accounting bug, not a measurement — print it and
 * exit nonzero so CI artifacts can never carry silently-broken cost
 * numbers.
 */
inline void
auditCostsOrDie(const CostEntries &costs)
{
    bool ok = true;
    for (const auto &[label, acct] : costs) {
        const obs::CostAccountant::Audit verdict = acct.audit();
        if (verdict.ok)
            continue;
        ok = false;
        for (const std::string &violation : verdict.violations) {
            std::fprintf(stderr,
                         "cost conservation violated [%s]: %s\n",
                         label.c_str(), violation.c_str());
        }
    }
    if (!ok)
        std::exit(1);
}

/** Emit the "cost" member: one attribution object per configuration. */
inline void
writeCostSection(obs::JsonWriter &w, const CostEntries &costs)
{
    w.key("cost");
    w.beginObject();
    for (const auto &[label, acct] : costs) {
        w.key(label);
        acct.writeJson(w);
    }
    w.endObject();
}

/**
 * One reliability×cost Pareto point: a configuration's reliability
 * metric next to its three derived cost-overhead axes.
 */
struct ParetoPoint
{
    std::string config;
    std::string metricName; ///< e.g. "covered_frac", "sdc_frac"
    double metric = 0.0;
    double storagePct = 0.0;
    double busPct = 0.0;
    double latencyNs = 0.0;

    static ParetoPoint
    of(const std::string &config, const std::string &metricName,
       double metric, const obs::CostAccountant &acct)
    {
        return {config,           metricName,
                metric,           acct.storageOverheadPct(),
                acct.busOverheadPct(), acct.latencyNsPerAccess()};
    }
};

/** Print the Pareto table to stdout (the committed-artifact view). */
inline void
printParetoTable(const std::vector<ParetoPoint> &points)
{
    if (points.empty())
        return;
    std::printf("\nReliability x cost Pareto (%s):\n",
                points.front().metricName.c_str());
    std::printf("  %-26s %12s %12s %10s %12s\n", "config",
                points.front().metricName.c_str(), "storage_%",
                "bus_%", "latency_ns");
    for (const ParetoPoint &p : points) {
        std::printf("  %-26s %12.6f %12.3f %10.3f %12.3f\n",
                    p.config.c_str(), p.metric, p.storagePct, p.busPct,
                    p.latencyNs);
    }
}

/**
 * The artifact's RAS health payload: the monitor that observed the
 * run plus, in aging mode, the prediction-accuracy block scoring the
 * monitor's inferred topologies against the lineage ground truth.
 */
struct RasReport
{
    const ras::HealthMonitor *monitor = nullptr;

    /** One injected aging site and whether inference matched it. */
    struct SiteScore
    {
        std::string site;    ///< lineage site label ("row:b3:r17", ...)
        bool matched = false;
        std::string inferred; ///< what the monitor called it
    };
    bool hasPrediction = false; ///< aging mode ran
    std::vector<SiteScore> sites;

    uint64_t
    matchedSites() const
    {
        uint64_t n = 0;
        for (const SiteScore &s : sites)
            n += s.matched ? 1 : 0;
        return n;
    }
    double
    accuracy() const
    {
        return sites.empty() ? 0.0
                             : static_cast<double>(matchedSites()) /
                                   static_cast<double>(sites.size());
    }
};

/** Emit the "ras" member: monitor telemetry (+ prediction scoring). */
inline void
writeRasSection(obs::JsonWriter &w, const RasReport &report)
{
    w.key("ras");
    w.beginObject();
    report.monitor->writeJsonMembers(w);
    if (report.hasPrediction) {
        w.key("prediction");
        w.beginObject();
        w.kv("sites", static_cast<uint64_t>(report.sites.size()));
        w.kv("matched", report.matchedSites());
        w.kv("accuracy", report.accuracy());
        w.key("per_site");
        w.beginArray();
        for (const RasReport::SiteScore &s : report.sites) {
            w.beginObject();
            w.kv("site", s.site);
            w.kv("matched", s.matched);
            w.kv("inferred", s.inferred);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endObject();
}

/** Emit the "pareto" member: the table as a JSON array. */
inline void
writeParetoSection(obs::JsonWriter &w,
                   const std::vector<ParetoPoint> &points)
{
    w.key("pareto");
    w.beginArray();
    for (const ParetoPoint &p : points) {
        w.beginObject();
        w.kv("config", p.config);
        w.kv("metric", p.metricName);
        w.kv("reliability", p.metric);
        w.kv("storage_overhead_pct", p.storagePct);
        w.kv("bus_overhead_pct", p.busPct);
        w.kv("latency_ns_per_access", p.latencyNs);
        w.endObject();
    }
    w.endArray();
}

/** Writes a bench's own members into the artifact's "host" object. */
using HostFn = std::function<void(obs::JsonWriter &)>;

/**
 * Write the bench's JSON artifact if --json was given.
 *
 * The artifact shape is shared by every bench:
 * @code
 *   { "schema_version": N, "bench": "...", "options": {...},
 *     "results": <fill's output>, "cost": {...}[, "pareto": [...]]
 *     [, "ras": {...}], "host": {...} }
 * @endcode
 * Everything but "host" is the deterministic body: "options" holds
 * forEachOutputOption()'s list, and @p fill receives the writer
 * positioned at the "results" member and must emit exactly one value
 * (object/array/scalar) that depends on the options alone.  @p costs is
 * audited first (exit 1 on a conservation violation) and becomes the
 * "cost" section; @p pareto, when nonempty, the "pareto" table;
 * @p rasReport, when it carries a monitor, the "ras" section.  "host"
 * holds every value that varies from run to run or host to host: the
 * jobs/checkpoint/resume/heartbeat options, then @p host's members
 * (wall clock, resolved workers, rates), then the "alloc" section.
 */
template <typename FillFn>
inline void
writeJsonArtifact(const Options &opt, const std::string &benchName,
                  const CostEntries &costs,
                  const std::vector<ParetoPoint> &pareto,
                  const RasReport &rasReport, FillFn &&fill,
                  const HostFn &host = {})
{
    auditCostsOrDie(costs);
    if (opt.jsonPath.empty())
        return;
    obs::JsonWriter w;
    w.beginObject();
    w.kv("schema_version", artifactSchemaVersion);
    w.kv("bench", benchName);
    w.key("options");
    w.beginObject();
    forEachOutputOption(opt, [&w](const char *key, const char *,
                                  auto value, InId) { w.kv(key, value); });
    w.endObject();
    w.key("results");
    fill(w);
    writeCostSection(w, costs);
    if (!pareto.empty())
        writeParetoSection(w, pareto);
    if (rasReport.monitor)
        writeRasSection(w, rasReport);
    w.key("host");
    w.beginObject();
    w.key("options");
    w.beginObject();
    w.kv("jobs", opt.jobs);
    w.kv("checkpoint", opt.checkpointPath);
    w.kv("resume", opt.resume);
    w.kv("heartbeat", opt.heartbeatPath);
    w.endObject();
    if (host)
        host(w);
    writeAllocSection(w);
    w.endObject();
    w.endObject();
    if (!w.writeFile(opt.jsonPath)) {
        std::fprintf(stderr, "cannot write JSON artifact: %s\n",
                     opt.jsonPath.c_str());
        std::exit(1);
    }
    std::printf("JSON artifact written to %s\n", opt.jsonPath.c_str());
}

/** Artifact without a RAS health monitor. */
template <typename FillFn>
inline void
writeJsonArtifact(const Options &opt, const std::string &benchName,
                  const CostEntries &costs,
                  const std::vector<ParetoPoint> &pareto, FillFn &&fill)
{
    writeJsonArtifact(opt, benchName, costs, pareto, RasReport{},
                      std::forward<FillFn>(fill));
}

/** Artifact without cost entries (a bench that models no traffic). */
template <typename FillFn>
inline void
writeJsonArtifact(const Options &opt, const std::string &benchName,
                  FillFn &&fill)
{
    writeJsonArtifact(opt, benchName, CostEntries{}, {},
                      std::forward<FillFn>(fill));
}

} // namespace bench
} // namespace aiecc

#endif // AIECC_BENCH_BENCH_UTIL_HH
