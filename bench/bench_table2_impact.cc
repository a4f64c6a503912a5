/**
 * @file
 * Table II reproduction: the impact of undetected 1-pin CCCA errors
 * across pin locations and the five command patterns, on an
 * unprotected DDR4 channel.  Each cell reports the end-to-end outcome
 * (NE / SDC / MDC / SDC+MDC) and how the corrupted edge decoded
 * (missing, extra, or altered command), matching the paper's
 * CMD- / CMD+ / CMD_A->CMD_B notation.
 *
 * Two companion sweeps ride along: the same 1-pin errors under full
 * AIECC with the in-band recovery engine doing the correcting, and an
 * exhaustive 2-pin sweep under AIECC — every C(pins, 2) combination
 * enumerated by combinadic rank, proving the paper's Figure 7 claim
 * that no 2-pin CCCA error silently corrupts under full AIECC.
 *
 * The whole bench is one checkpointed campaign (DESIGN.md §12): with
 * --checkpoint PATH it persists merged state after every committed
 * shard batch, survives SIGKILL at any instant, and a --resume run
 * finishes with a byte-identical artifact.
 */

#include <algorithm>
#include <cstdio>
#include <map>

#include "aiecc/cost_model.hh"
#include "bench_state.hh"
#include "bench_util.hh"
#include "common/parallel.hh"
#include "common/table.hh"
#include "inject/campaign.hh"
#include "obs/coverage.hh"
#include "obs/heartbeat.hh"
#include "ras/health.hh"

using namespace aiecc;

namespace
{

/** Paper-style annotation of what the error turned the command into. */
std::string
transition(const TrialResult &r)
{
    const std::string from = cmdName(r.intended.type);
    if (!r.decoded.executed)
        return from + "-";
    if (r.decoded.cmd.type != r.intended.type)
        return from + "->" + cmdName(r.decoded.cmd.type);
    if (!(r.decoded.cmd == r.intended))
        return "addr";
    return "=";
}

using bench::Grid;
using bench::GridCell;

/** The sweeps, each split per pattern into one resumable unit. */
enum class UnitKind
{
    PerPin,   ///< unprotected 1-pin sweep (the Table II grid)
    Recovery, ///< intermittent 1-pin under AIECC + in-band recovery
    TwoPin,   ///< exhaustive 2-pin under AIECC (combinadic order)
    ThreePin, ///< exhaustive 3-pin under AIECC (--exhaustive only)
};

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = bench::parse(argc, argv);
    bench::banner("Table II: impact of undetected 1-pin CCCA errors "
                  "(no protection)");

    // 0 = flag absent: campaign benches default to hardware auto
    // (runShards resolves 0 to the hardware concurrency).
    const unsigned jobs = opt.jobs;
    const std::vector<CommandPattern> patterns = allPatterns();

    // One ledger follows every fault of all three sweeps below; the
    // fault-ID salt includes each campaign's mechanism config, so the
    // unprotected and AIECC sweeps can share it without collisions.
    obs::LineageLedger lineage;

    // Per-configuration cost accountants: what each protection level
    // pays for what it catches (the other Pareto axis).
    const Mechanisms noneMech =
        Mechanisms::forLevel(ProtectionLevel::None);
    obs::CostAccountant noneCost(makeCostModel(noneMech));

    obs::Observer campObs;
    campObs.setLineage(&lineage);
    campObs.setCost(&noneCost);
    InjectionCampaign camp(noneMech);
    camp.setObserver(&campObs);

    // The AIECC campaign runs both the recovery sweep and the
    // exhaustive 2-pin sweep (shared trial counter, shared salt — the
    // counter keeps their fault IDs apart).
    RecoveryConfig rc;
    if (opt.recoveryAttempts)
        rc.maxAttempts = opt.recoveryAttempts;
    rc.patrolPeriod = opt.recoveryPatrol;
    const unsigned persistence =
        opt.recoveryPersist ? opt.recoveryPersist : 1;

    const Mechanisms aieccMech =
        Mechanisms::forLevel(ProtectionLevel::Aiecc);
    obs::CostAccountant aieccCost(makeCostModel(aieccMech));
    obs::Observer aieccObs;
    aieccObs.setLineage(&lineage);
    aieccObs.setCost(&aieccCost);
    InjectionCampaign aiecc(aieccMech);
    aiecc.setRecoveryConfig(rc);
    aiecc.setObserver(&aieccObs);

    // ---- RAS health telemetry (--health, DESIGN.md §15) -----------
    // One monitor rides both campaigns' detection-replay streams
    // (the ledger is already attached, so attaching the sink is all
    // it takes).  Shard buffers re-emit in shard order, keeping the
    // monitor bit-identical for any --jobs value.
    ras::HealthMonitor rasMon;
    if (opt.health) {
        campObs.addSink(&rasMon);
        aieccObs.addSink(&rasMon);
    }

    struct UnitSpec
    {
        UnitKind kind;
        size_t patternIdx;
    };
    std::vector<UnitSpec> units;
    for (size_t p = 0; p < patterns.size(); ++p)
        units.push_back({UnitKind::PerPin, p});
    for (size_t p = 0; p < patterns.size(); ++p)
        units.push_back({UnitKind::Recovery, p});
    for (size_t p = 0; p < patterns.size(); ++p)
        units.push_back({UnitKind::TwoPin, p});
    if (opt.exhaustive) {
        for (size_t p = 0; p < patterns.size(); ++p)
            units.push_back({UnitKind::ThreePin, p});
    }

    const auto nonePins = injectablePins(noneMech.parPinPresent());
    const auto aieccPins = injectablePins(aieccMech.parPinPresent());
    const CombinationSpace twoSpace = aiecc.kPinSpace(2);
    const CombinationSpace threeSpace = aiecc.kPinSpace(3);

    auto unitErrors = [&](const UnitSpec &u) {
        std::vector<PinError> errors;
        switch (u.kind) {
        case UnitKind::PerPin:
            for (Pin pin : nonePins)
                errors.push_back(PinError::onePin(pin));
            break;
        case UnitKind::Recovery:
            for (Pin pin : aieccPins)
                errors.push_back(
                    PinError::intermittent(pin, persistence));
            break;
        case UnitKind::TwoPin:
            errors.reserve(twoSpace.size());
            for (uint64_t rank = 0; rank < twoSpace.size(); ++rank)
                errors.push_back(aiecc.kPinError(2, rank));
            break;
        case UnitKind::ThreePin:
            errors.reserve(threeSpace.size());
            for (uint64_t rank = 0; rank < threeSpace.size(); ++rank)
                errors.push_back(aiecc.kPinError(3, rank));
            break;
        }
        return errors;
    };
    auto unitLabel = [&](const UnitSpec &u) {
        const std::string pat = patternName(patterns[u.patternIdx]);
        switch (u.kind) {
        case UnitKind::PerPin:
            return "perpin:" + pat;
        case UnitKind::Recovery:
            return "recovery:" + pat;
        case UnitKind::TwoPin:
            return "x2pin:" + pat;
        default:
            return "x3pin:" + pat;
        }
    };

    // ---- checkpointed campaign (DESIGN.md §12) --------------------
    // Units in fixed order: 5 per-pin, 5 recovery, 5 exhaustive
    // 2-pin, and with --exhaustive 5 more exhaustive 3-pin.  Each unit
    // is one runTrialsCheckpointed() call; every state section is
    // rewritten at each commit.
    bench::Campaign campaign(opt, "table2_impact");
    for (const UnitSpec &u : units)
        campaign.unit(unitLabel(u), unitErrors(u).size(),
                      InjectionCampaign::trialShardSize);

    // Merged campaign state (what the checkpoint persists).
    CampaignStats noneStats;
    Grid grid;
    std::map<CommandPattern, CampaignStats> recStats;
    std::map<CommandPattern, CampaignStats> twoStats;
    std::map<CommandPattern, CampaignStats> threeStats;
    std::vector<bench::GridColumn> gridColumns;
    for (CommandPattern pattern : patterns)
        gridColumns.push_back({grid, pattern});
    campaign.state("stats:none", noneStats);
    for (size_t p = 0; p < patterns.size(); ++p) {
        const std::string idx = std::to_string(p);
        campaign.state("grid:" + idx, gridColumns[p]);
        campaign.state("rec:" + idx, recStats[patterns[p]]);
        campaign.state("two:" + idx, twoStats[patterns[p]]);
        if (opt.exhaustive)
            campaign.state("three:" + idx, threeStats[patterns[p]]);
    }
    campaign.state("lineage", lineage);
    campaign.state("cost:none", noneCost);
    campaign.state("cost:aiecc", aieccCost);
    if (opt.health)
        campaign.state("ras", rasMon);

    // Fault-ID positioning: completed units advance their campaign's
    // trial counter exactly as a live run would; the resumed unit's
    // counter stays at the unit start (runTrialsCheckpointed
    // reconstructs indices from the shard).
    for (size_t u = 0; u < campaign.resumeUnit(); ++u) {
        const uint64_t n = unitErrors(units[u]).size();
        if (units[u].kind == UnitKind::PerPin)
            camp.skipTrials(n);
        else
            aiecc.skipTrials(n);
    }

    // ---- heartbeat (DESIGN.md §13) --------------------------------
    // Commit-driven ticks (main thread, after the batch merge), so
    // the payload's live coverage counters read settled state.
    campaign.heartbeat().setPayload([&](obs::JsonWriter &w) {
        const obs::CoverageMatrix::Audit live =
            obs::CoverageMatrix::fromLedger(lineage).audit();
        w.kv("cov_injected", live.injected);
        w.kv("cov_unaccounted", live.unaccounted);
        w.kv("cost_aiecc_storage_bits",
             aieccCost.total(obs::CostCategory::Storage));
        w.kv("cost_aiecc_bus_bits",
             aieccCost.total(obs::CostCategory::Bus));
        w.kv("cost_aiecc_latency_ps",
             aieccCost.total(obs::CostCategory::Latency));
        if (opt.health)
            rasMon.writeHeartbeat(w);
    });

    // ---- run ------------------------------------------------------
    campaign.run([&](size_t u, const obs::ShardCheckpoint &checkpoint) {
        const UnitSpec &spec = units[u];
        const CommandPattern pattern = patterns[spec.patternIdx];
        InjectionCampaign &runner =
            spec.kind == UnitKind::PerPin ? camp : aiecc;
        return runner.runTrialsCheckpointed(
            pattern, unitErrors(spec), jobs, checkpoint,
            [&](uint64_t trial, const TrialResult &r) {
                switch (spec.kind) {
                case UnitKind::PerPin:
                    noneStats.add(r);
                    grid[nonePins[trial]][pattern] = {
                        r.outcome, r.detected, transition(r)};
                    break;
                case UnitKind::Recovery:
                    recStats[pattern].add(r);
                    break;
                case UnitKind::TwoPin:
                    twoStats[pattern].add(r);
                    break;
                case UnitKind::ThreePin:
                    threeStats[pattern].add(r);
                    break;
                }
            });
    });

    // ---- report ---------------------------------------------------
    TextTable t;
    t.header({"pin", "ACT(+WR)", "ACT(+RD)", "WR", "RD", "PRE"});
    for (unsigned i = numCccaPins; i-- > 0;) {
        const Pin pin = static_cast<Pin>(i);
        if (grid.find(pin) == grid.end())
            continue; // CK / PAR not injectable here
        std::vector<std::string> row{pinName(pin)};
        for (CommandPattern pattern : patterns) {
            const GridCell &r = grid[pin][pattern];
            std::string cell = outcomeName(r.outcome);
            if (r.transition != "=" && r.transition != "addr")
                cell += " (" + r.transition + ")";
            row.push_back(cell);
        }
        t.row(row);
    }
    std::printf("%s\n", t.str().c_str());

    bench::banner("In-band recovery under AIECC (persistence " +
                  std::to_string(persistence) + " edge" +
                  (persistence > 1 ? "s" : "") + ", budget " +
                  std::to_string(rc.maxAttempts) + " attempts)");
    TextTable rt;
    rt.header({"pattern", "trials", "episodes", "attempts",
               "att/episode", "recovered", "exhausted", "exh rate"});
    for (CommandPattern pattern : patterns) {
        const CampaignStats &s = recStats[pattern];
        const double perEpisode =
            s.recoveryEpisodes
                ? static_cast<double>(s.recoveryAttempts) /
                      s.recoveryEpisodes
                : 0.0;
        const double exhRate =
            s.trials ? static_cast<double>(s.retryExhausted) / s.trials
                     : 0.0;
        char perEp[32], rate[32];
        std::snprintf(perEp, sizeof perEp, "%.2f", perEpisode);
        std::snprintf(rate, sizeof rate, "%.3f", exhRate);
        rt.row({patternName(pattern), std::to_string(s.trials),
                std::to_string(s.recoveryEpisodes),
                std::to_string(s.recoveryAttempts), perEp,
                std::to_string(s.recoveredFirstTry +
                               s.recoveredAfterRetries),
                std::to_string(s.retryExhausted), rate});
    }
    std::printf("%s\n", rt.str().c_str());

    // Exhaustive 2-pin detection under AIECC: every C(pins, 2)
    // combination of every pattern was enumerated (combinadic rank 0
    // .. C-1), so "all detected" here is a proof over the whole space,
    // not a sample estimate — the paper's 2-pin CA-parity claim.
    bench::banner("Exhaustive 2-pin CCCA errors under AIECC (" +
                  std::to_string(twoSpace.size()) +
                  " combinations per pattern, full enumeration)");
    TextTable xt;
    xt.header({"pattern", "combinations", "detected", "covered",
               "sdc", "mdc"});
    bool twoPinAllCovered = true;
    for (CommandPattern pattern : patterns) {
        const CampaignStats &s = twoStats[pattern];
        // The paper's claim is zero *silent* corruption: undetected
        // combinations are fine as long as they are provably benign
        // (e.g. both flips land in don't-care address bits).
        if (s.sdc || s.mdc)
            twoPinAllCovered = false;
        char cov[32];
        std::snprintf(cov, sizeof cov, "%.6f", s.coveredFrac());
        xt.row({patternName(pattern), std::to_string(s.trials),
                std::to_string(s.detected), cov, std::to_string(s.sdc),
                std::to_string(s.mdc)});
    }
    std::printf("%s", xt.str().c_str());
    std::printf("2-pin coverage claim (Figure 7): %s\n\n",
                twoPinAllCovered
                    ? "HOLDS — zero SDC/MDC over the full space"
                    : "VIOLATED (some combination silently "
                      "corrupted)");

    // --exhaustive extends the proof one order deeper: every
    // C(pins, 3) combination of every pattern, enumerated by
    // combinadic rank exactly like the 2-pin sweep.
    bool threePinAllCovered = true;
    if (opt.exhaustive) {
        bench::banner("Exhaustive 3-pin CCCA errors under AIECC (" +
                      std::to_string(threeSpace.size()) +
                      " combinations per pattern, full enumeration)");
        TextTable x3;
        x3.header({"pattern", "combinations", "detected", "covered",
                   "sdc", "mdc"});
        for (CommandPattern pattern : patterns) {
            const CampaignStats &s = threeStats[pattern];
            if (s.sdc || s.mdc)
                threePinAllCovered = false;
            char cov[32];
            std::snprintf(cov, sizeof cov, "%.6f", s.coveredFrac());
            x3.row({patternName(pattern), std::to_string(s.trials),
                    std::to_string(s.detected), cov,
                    std::to_string(s.sdc), std::to_string(s.mdc)});
        }
        std::printf("%s", x3.str().c_str());
        std::printf("3-pin coverage claim: %s\n\n",
                    threePinAllCovered
                        ? "HOLDS — zero SDC/MDC over the full space"
                        : "VIOLATED (some combination silently "
                          "corrupted)");
    }

    // Conservation audit: every fault either of the campaigns injected
    // must have reached exactly one terminal state.  An unaccounted
    // fault is a harness bug, not a result — fail the bench on it.
    const obs::CoverageMatrix coverage =
        obs::CoverageMatrix::fromLedger(lineage);
    const obs::CoverageMatrix::Audit audit = coverage.audit();
    std::printf("lineage: %llu faults injected, %llu unaccounted, "
                "ledger digest %016llx\n\n",
                static_cast<unsigned long long>(audit.injected),
                static_cast<unsigned long long>(audit.unaccounted),
                static_cast<unsigned long long>(lineage.digest()));

    // Reliability x cost: coverage of each configuration against what
    // its protected traffic cost, from the same trials.
    CampaignStats aieccTotal;
    for (const auto &[pattern, s] : recStats)
        aieccTotal.merge(s);
    bench::CostEntries costs;
    costs.emplace_back("none", noneCost);
    costs.emplace_back("aiecc", aieccCost);
    std::vector<bench::ParetoPoint> pareto{
        bench::ParetoPoint::of("none", "covered_frac",
                               noneStats.coveredFrac(), noneCost),
        bench::ParetoPoint::of("aiecc", "covered_frac",
                               aieccTotal.coveredFrac(), aieccCost)};
    bench::printParetoTable(pareto);

    bench::RasReport rasReport;
    if (opt.health) {
        rasReport.monitor = &rasMon;
        std::printf("\nRAS health: rank %s, %llu event(s) observed, "
                    "%llu fault(s) followed, %zu topology call(s)\n",
                    ras::healthStateName(rasMon.rankState()),
                    static_cast<unsigned long long>(rasMon.eventsSeen()),
                    static_cast<unsigned long long>(
                        rasMon.faultsInjected()),
                    rasMon.topologies().size());
    }

    bench::writeJsonArtifact(
        opt, "table2_impact", costs, pareto, rasReport,
        [&](obs::JsonWriter &w) {
            w.beginObject();
            w.key("impact");
            w.beginObject();
            for (const auto &[pin, perPattern] : grid) {
                w.key(pinName(pin));
                w.beginObject();
                for (const auto &[pattern, r] : perPattern) {
                    w.key(patternName(pattern));
                    w.beginObject();
                    w.kv("outcome", outcomeName(r.outcome));
                    w.kv("transition", r.transition);
                    w.kv("detected", r.detected);
                    w.endObject();
                }
                w.endObject();
            }
            w.endObject();
            w.key("recovery");
            w.beginObject();
            for (const auto &[pattern, s] : recStats) {
                w.key(patternName(pattern));
                s.writeJson(w);
            }
            w.endObject();
            w.key("two_pin");
            w.beginObject();
            w.kv("exhaustive", true);
            w.kv("combinations_per_pattern", twoSpace.size());
            w.kv("all_covered", twoPinAllCovered);
            w.key("patterns");
            w.beginObject();
            for (const auto &[pattern, s] : twoStats) {
                w.key(patternName(pattern));
                s.writeJson(w);
            }
            w.endObject();
            w.endObject();
            if (opt.exhaustive) {
                w.key("three_pin");
                w.beginObject();
                w.kv("exhaustive", true);
                w.kv("combinations_per_pattern", threeSpace.size());
                w.kv("all_covered", threePinAllCovered);
                w.key("patterns");
                w.beginObject();
                for (const auto &[pattern, s] : threeStats) {
                    w.key(patternName(pattern));
                    s.writeJson(w);
                }
                w.endObject();
                w.endObject();
            }
            w.key("coverage");
            coverage.writeJson(w);
            w.key("lineage");
            lineage.writeJson(w);
            w.endObject();
        });

    std::printf(
        "Legend: NE = no error manifests; SDC = silent data corruption;"
        "\nMDC = memory data corruption; CMD- = the command is lost;\n"
        "CMD->X = the command is altered into X.\n\n"
        "Paper cross-checks (Section V-A1):\n"
        "  * any undetected ACT error => SDC+MDC (with WR) or SDC "
        "(with RD);\n"
        "  * WR: A11/A13/A17 manifest no error, everything else "
        "SDC+MDC;\n"
        "  * RD: A11/A13/A17 no error; column/bank/CKE/CS/CAS/BC "
        "errors => SDC;\n"
        "  * PRE: 14 pins (A17, A13..A11, A9..A0) manifest no "
        "error.\n");

    if (!audit.ok) {
        for (const std::string &v : audit.violations)
            std::fprintf(stderr, "coverage audit: %s\n", v.c_str());
        std::fprintf(stderr,
                     "coverage audit FAILED: %llu of %llu injected "
                     "faults unaccounted\n",
                     static_cast<unsigned long long>(audit.unaccounted),
                     static_cast<unsigned long long>(audit.injected));
        return 1;
    }
    campaign.finish();
    return 0;
}
