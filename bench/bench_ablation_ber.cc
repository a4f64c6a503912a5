/**
 * @file
 * Ablation: "Enriching the DRAM Design Space" (Section VI).
 *
 * Circuit techniques buy transmission reliability with power and
 * frequency margin.  If AIECC holds system-level reliability at a
 * target MTTF, the designer can instead *relax* the raw CCCA BER.
 * This bench sweeps BER and reports (a) the SDC MTTF each protection
 * level achieves, and (b) the maximum BER each level tolerates while
 * meeting a 5-year fleet MTTF target — the headroom AIECC hands back
 * to the signal-integrity budget.
 */

#include <cmath>
#include <cstdio>

#include "bench_util.hh"
#include "common/table.hh"
#include "reliability/fit.hh"

using namespace aiecc;

int
main(int argc, char **argv)
{
    const auto opt = bench::parse(argc, argv);
    const unsigned allPinSamples =
        opt.allPin ? opt.allPin : (opt.quick ? 15u : 60u);
    const double fleet = 1.2e6;       // DRAM devices
    const double targetHours = 5 * 24 * 365.25; // 5-year MTTF

    bench::banner("Ablation: tolerable CCCA BER per protection level");

    const ProtectionLevel levels[] = {
        ProtectionLevel::None, ProtectionLevel::Ddr4Decc,
        ProtectionLevel::Ddr4EDecc, ProtectionLevel::Aiecc};

    std::printf("measuring undetected-harm probabilities (%u all-pin "
                "samples)...\n\n",
                allPinSamples);
    std::vector<HarmProbs> probs;
    for (ProtectionLevel level : levels) {
        probs.push_back(measureHarmProbs(Mechanisms::forLevel(level),
                                         allPinSamples));
    }

    const auto &high = paperCentroids()[2]; // high-bandwidth centroid

    const char *levelNames[] = {"None", "DECC", "eDECC", "AIECC"};

    struct MttfPoint
    {
        double ber;
        double hours[4];
        bool lowerBound[4];
    };
    std::vector<MttfPoint> sweep;

    TextTable t;
    t.header({"BER", "None", "DECC", "eDECC", "AIECC"});
    for (double ber = 1e-22; ber <= 1.01e-15; ber *= 10) {
        std::vector<std::string> row{TextTable::num(ber, 2)};
        MttfPoint point{ber, {}, {}};
        for (size_t i = 0; i < probs.size(); ++i) {
            const auto fit = computeFit(ber, high.rates, probs[i]);
            double sdcFit = fit.sdcFit;
            if (sdcFit <= 0) {
                sdcFit = fitResolutionFloor(ber, high.rates,
                                            probs[i].allPinSamples);
                point.lowerBound[i] = true;
                row.push_back(std::string(">").append(
                    formatDuration(mttfHours(sdcFit, fleet))));
            } else {
                row.push_back(
                    formatDuration(mttfHours(sdcFit, fleet)));
            }
            point.hours[i] = mttfHours(sdcFit, fleet);
        }
        sweep.push_back(point);
        t.row(row);
    }
    std::printf("%s\n", t.str().c_str());

    // Maximum tolerable BER for the 5-year target (FIT scales
    // linearly in BER, so solve directly).
    TextTable m;
    m.header({"protection", "max BER for 5-year fleet MTTF",
              "headroom vs unprotected"});
    struct BerBudget
    {
        double maxBer;
        double headroom;
        bool lowerBound;
    };
    std::vector<BerBudget> budgets;
    double baseline = 0;
    for (size_t i = 0; i < probs.size(); ++i) {
        const auto fitAt = computeFit(1e-20, high.rates, probs[i]);
        double sdcAt = fitAt.sdcFit;
        bool bound = false;
        if (sdcAt <= 0) {
            sdcAt = fitResolutionFloor(1e-20, high.rates,
                                       probs[i].allPinSamples);
            bound = true;
        }
        // FIT(ber) = sdcAt * ber / 1e-20; target FIT from MTTF.
        const double targetFit = 1e9 / (targetHours * fleet);
        const double maxBer = 1e-20 * targetFit / sdcAt;
        if (i == 0)
            baseline = maxBer;
        budgets.push_back({maxBer, maxBer / baseline, bound});
        m.row({protectionLevelName(levels[i]),
               std::string(bound ? ">" : "")
                   .append(TextTable::num(maxBer, 2)),
               std::string(bound ? ">" : "")
                   .append(TextTable::num(maxBer / baseline, 3))
                   .append("x")});
    }
    std::printf("%s\n", m.str().c_str());

    bench::writeJsonArtifact(
        opt, "ablation_ber", [&](obs::JsonWriter &w) {
            w.beginObject();
            w.kv("allpin_samples", allPinSamples);
            w.kv("fleet_devices", fleet);
            w.kv("target_mttf_hours", targetHours);
            w.key("sdc_mttf_hours");
            w.beginArray();
            for (const auto &point : sweep) {
                w.beginObject();
                w.kv("ber", point.ber);
                for (size_t i = 0; i < 4; ++i) {
                    w.key(levelNames[i]);
                    w.beginObject();
                    w.kv("hours", point.hours[i]);
                    w.kv("lower_bound", point.lowerBound[i]);
                    w.endObject();
                }
                w.endObject();
            }
            w.endArray();
            w.key("max_tolerable_ber");
            w.beginObject();
            for (size_t i = 0; i < budgets.size(); ++i) {
                w.key(levelNames[i]);
                w.beginObject();
                w.kv("max_ber", budgets[i].maxBer);
                w.kv("headroom_vs_unprotected", budgets[i].headroom);
                w.kv("lower_bound", budgets[i].lowerBound);
                w.endObject();
            }
            w.endObject();
            w.endObject();
        });

    std::printf(
        "A system holding the 5-year target with AIECC tolerates a raw "
        "CCCA BER\nseveral orders of magnitude above what the "
        "unprotected channel needs,\nheadroom a designer can spend on "
        "lower I/O power, higher CCCA rates\n(no geardown), or cheaper "
        "margining - the Section VI design-space\nargument, "
        "quantified.\n");
    return 0;
}
