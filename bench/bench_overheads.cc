/**
 * @file
 * Section V-D reproduction: AIECC hardware overheads in NAND2
 * equivalents and mW, from the structural gate model, side by side
 * with the paper's Synopsys/TSMC-40nm numbers.
 */

#include <cstdio>

#include "aiecc/cost_model.hh"
#include "bench_util.hh"
#include "common/table.hh"
#include "hwmodel/gate_model.hh"
#include "inject/campaign.hh"

using namespace aiecc;

int
main(int argc, char **argv)
{
    const auto opt = bench::parse(argc, argv);
    bench::banner("Section V-D: AIECC hardware overheads");

    GateModel model;
    TextTable t;
    t.header({"mechanism", "NAND2 (model)", "NAND2 (paper)",
              "power mW (model)", "power mW (paper)"});
    for (const auto &e : model.all()) {
        t.row({e.name, TextTable::num(e.nand2, 3),
               TextTable::num(e.paperNand2, 3),
               TextTable::num(e.powerMw, 2),
               TextTable::num(e.paperPowerMw, 2)});
    }
    std::printf("%s\n", t.str().c_str());

    // The other overhead axis: per-access protection cost attributed
    // by level, from a 1-pin sweep over every command pattern per
    // protection level.  The same trials yield the coverage metric,
    // so each level is one reliability x cost Pareto point.
    const ProtectionLevel levels[] = {
        ProtectionLevel::None, ProtectionLevel::Ddr4Decc,
        ProtectionLevel::Ddr4EDecc, ProtectionLevel::Aiecc};
    const char *levelNames[] = {"None", "DECC", "eDECC", "AIECC"};
    bench::CostEntries costs;
    std::vector<bench::ParetoPoint> pareto;
    for (unsigned li = 0; li < 4; ++li) {
        const Mechanisms mech = Mechanisms::forLevel(levels[li]);
        obs::CostAccountant acct(makeCostModel(mech));
        obs::Observer costObs;
        costObs.setCost(&acct);
        InjectionCampaign camp(mech);
        camp.setObserver(&costObs);
        CampaignStats stats;
        for (CommandPattern pattern : allPatterns())
            stats.merge(camp.sweepOnePin(pattern, opt.jobs));
        costs.emplace_back(levelNames[li], acct);
        pareto.push_back(bench::ParetoPoint::of(
            levelNames[li], "covered_frac", stats.coveredFrac(), acct));
    }
    bench::printParetoTable(pareto);

    bench::writeJsonArtifact(
        opt, "overheads", costs, pareto, [&](obs::JsonWriter &w) {
            w.beginArray();
            for (const auto &e : model.all()) {
                w.beginObject();
                w.kv("mechanism", e.name);
                w.kv("nand2_model", e.nand2);
                w.kv("nand2_paper", e.paperNand2);
                w.kv("power_mw_model", e.powerMw);
                w.kv("power_mw_paper", e.paperPowerMw);
                w.endObject();
            }
            w.endArray();
        });

    std::printf(
        "Model: XOR trees from the exact GF(2) matrices of each code,\n"
        "flip-flop/counter/comparator counts for the CSTC, standard\n"
        "gate-equivalent weights (substitution for Synopsys DC + TSMC "
        "40nm;\nsee DESIGN.md).  Headline: every AIECC addition is "
        "negligible\nagainst a DRAM die or memory controller, no new "
        "pins, no added\nstorage, and the decode critical path grows "
        "by a single XOR.\n");
    return 0;
}
