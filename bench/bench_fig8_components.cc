/**
 * @file
 * Figure 8 reproduction: the contribution of each AIECC component —
 * eDECC, eWCRC, address protection (both), CSTC, eCAP, command
 * protection (CSTC+eCAP), eDECC+eWCRC+eCAP, and full AIECC — to CCCA
 * error coverage, per error model and command pattern.
 */

#include <cstdio>

#include "aiecc/cost_model.hh"
#include "bench_util.hh"
#include "common/table.hh"
#include "inject/campaign.hh"

using namespace aiecc;

namespace
{

struct ComponentConfig
{
    const char *name;
    Mechanisms mech;
};

std::vector<ComponentConfig>
componentConfigs()
{
    // The Figure 8 x-axis, expressed as mechanism subsets.  eDECC is
    // the QPC combined organization; eWCRC/eCAP imply their base
    // DDR4 mechanisms extended per Section IV.
    std::vector<ComponentConfig> configs;

    Mechanisms edecc;
    edecc.ecc = EccScheme::EDeccQpc;
    configs.push_back({"eDECC", edecc});

    Mechanisms ewcrc;
    ewcrc.wcrc = WcrcMode::DataAddress;
    configs.push_back({"eWCRC", ewcrc});

    Mechanisms addr = edecc;
    addr.wcrc = WcrcMode::DataAddress;
    configs.push_back({"addr (eDECC+eWCRC)", addr});

    Mechanisms cstc;
    cstc.cstc = true;
    configs.push_back({"CSTC", cstc});

    Mechanisms ecap;
    ecap.parity = ParityMode::ECap;
    configs.push_back({"eCAP", ecap});

    Mechanisms cmd = cstc;
    cmd.parity = ParityMode::ECap;
    configs.push_back({"cmd (CSTC+eCAP)", cmd});

    Mechanisms noCstc = addr;
    noCstc.parity = ParityMode::ECap;
    configs.push_back({"eDECC+eWCRC+eCAP", noCstc});

    configs.push_back(
        {"AIECC", Mechanisms::forLevel(ProtectionLevel::Aiecc)});
    return configs;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = bench::parse(argc, argv);
    const unsigned allPinSamples =
        opt.allPin ? opt.allPin : (opt.quick ? 15u : 50u);
    const bool twoPin = !opt.quick;

    bench::banner("Figure 8: coverage contribution of each AIECC "
                  "component");

    // model -> component -> pattern -> covered fraction, as printed.
    std::vector<std::pair<
        std::string,
        std::vector<std::pair<std::string, std::vector<double>>>>>
        all;

    // Per-component cost accountants and aggregate coverage, shared
    // across every sweep of that component (the Pareto inputs).
    const auto configs = componentConfigs();
    std::vector<obs::CostAccountant> componentCost;
    for (const auto &config : configs)
        componentCost.emplace_back(makeCostModel(config.mech));
    std::vector<CampaignStats> componentTotal(configs.size());

    for (const char *model : {"1-pin", "2-pin", "all-pin"}) {
        if (!twoPin && std::string(model) == "2-pin")
            continue;
        std::printf("---- %s errors (coverage per pattern) ----\n",
                    model);
        TextTable t;
        std::vector<std::string> head{"component"};
        for (CommandPattern pattern : allPatterns())
            head.push_back(patternName(pattern));
        t.header(head);

        std::vector<std::pair<std::string, std::vector<double>>> rows;
        for (size_t ci = 0; ci < configs.size(); ++ci) {
            const auto &config = configs[ci];
            std::vector<std::string> row{config.name};
            std::vector<double> covered;
            for (CommandPattern pattern : allPatterns()) {
                obs::Observer costObs;
                costObs.setCost(&componentCost[ci]);
                InjectionCampaign camp(config.mech);
                camp.setObserver(&costObs);
                CampaignStats stats;
                if (std::string(model) == "1-pin")
                    stats = camp.sweepOnePin(pattern);
                else if (std::string(model) == "2-pin")
                    stats = camp.sweepTwoPin(pattern);
                else
                    stats = camp.sweepAllPin(pattern, allPinSamples);
                row.push_back(TextTable::pct(stats.coveredFrac()));
                componentTotal[ci].merge(stats);
                covered.push_back(stats.coveredFrac());
            }
            t.row(row);
            rows.emplace_back(config.name, std::move(covered));
        }
        std::printf("%s\n", t.str().c_str());
        all.emplace_back(model, std::move(rows));
    }

    bench::CostEntries costs;
    std::vector<bench::ParetoPoint> pareto;
    for (size_t ci = 0; ci < configs.size(); ++ci) {
        costs.emplace_back(configs[ci].name, componentCost[ci]);
        pareto.push_back(bench::ParetoPoint::of(
            configs[ci].name, "covered_frac",
            componentTotal[ci].coveredFrac(), componentCost[ci]));
    }
    bench::printParetoTable(pareto);

    bench::writeJsonArtifact(
        opt, "fig8_components", costs, pareto, [&](obs::JsonWriter &w) {
            w.beginObject();
            w.kv("allpin_samples", allPinSamples);
            w.key("models");
            w.beginObject();
            for (const auto &[model, rows] : all) {
                w.key(model);
                w.beginObject();
                for (const auto &[component, covered] : rows) {
                    w.key(component);
                    w.beginObject();
                    const auto patterns = allPatterns();
                    for (size_t i = 0; i < patterns.size(); ++i)
                        w.kv(patternName(patterns[i]), covered[i]);
                    w.endObject();
                }
                w.endObject();
            }
            w.endObject();
            w.endObject();
        });

    std::printf(
        "Paper cross-checks (Figure 8 discussion):\n"
        "  * address protection (eDECC+eWCRC) dominates for WR and RD "
        "errors;\n"
        "  * eCAP is the most effective mechanism against 1-pin ACT "
        "errors;\n"
        "  * CSTC leads for all-pin ACT noise (garbage commands break "
        "protocol);\n"
        "  * only the full combination reaches complete coverage.\n");
    return 0;
}
