#include "reliability/fit.hh"

#include <cmath>
#include <cstdio>

namespace aiecc
{

std::vector<Centroid>
paperCentroids()
{
    // Figure 9a, command bandwidths in 1e6 commands/second.
    const double M = 1e6;
    return {
        {"Low Data BW", 33, 0.0050,
         {0.64 * M, 0.39 * M, 0.69 * M, 2.22 * M, 1.03 * M}},
        {"Med. Data BW", 10, 0.0790,
         {9.18 * M, 16.7 * M, 8.57 * M, 33.3 * M, 25.9 * M}},
        {"High Data BW", 11, 0.2200,
         {39.4 * M, 76.2 * M, 29.2 * M, 90.1 * M, 116.0 * M}},
        {"High RD/WR (wat-ns)", 1, 0.0431,
         {0.15 * M, 6.13 * M, 0.17 * M, 23.6 * M, 6.28 * M}},
    };
}

double
fitResolutionFloor(double ber, const CommandRates &rates,
                   unsigned allPinSamples)
{
    if (allPinSamples == 0)
        return 0.0;
    HarmProbs floorProbs;
    for (auto &pp : floorProbs.perPattern)
        pp.sdcAllPin = 1.0 / allPinSamples;
    return computeFit(ber, rates, floorProbs).sdcFit;
}

HarmProbs
measureHarmProbs(const Mechanisms &mech, unsigned allPinSamples,
                 uint64_t seed, obs::CostAccountant *cost)
{
    HarmProbs probs;
    probs.label = mech.describe();
    probs.allPinSamples = allPinSamples;
    obs::Observer costObs;
    costObs.setCost(cost);
    InjectionCampaign campaign(mech, seed);
    campaign.setObserver(&costObs);
    const auto patterns = allPatterns();
    for (size_t i = 0; i < patterns.size(); ++i) {
        const auto onePin = campaign.sweepOnePin(patterns[i]);
        const auto allPin =
            campaign.sweepAllPin(patterns[i], allPinSamples);
        auto &pp = probs.perPattern[i];
        // 1-pin: each pin contributes its own 0/1 undetected-harm
        // indicator; the sum equals SignalCount x average probability.
        pp.sdcPins = static_cast<double>(onePin.sdc);
        pp.mdcPins = static_cast<double>(onePin.mdc);
        pp.sdcAllPin = allPin.sdcFrac();
        pp.mdcAllPin = allPin.mdcFrac();
    }
    return probs;
}

FitResult
computeFit(double ber, const CommandRates &rates, const HarmProbs &probs)
{
    // Equation 1: FIT = BER * sum_i sum_j {CmdBW_i * SignalCount_j *
    // UndetectedProb_ij * 3.6e12}, with j in {per-pin, all-pin(CK)}.
    const double bw[5] = {rates.actWr, rates.actRd, rates.wr, rates.rd,
                          rates.pre};
    constexpr double secToGigaHours = 3.6e12;

    FitResult fit;
    for (size_t i = 0; i < 5; ++i) {
        const auto &pp = probs.perPattern[i];
        fit.sdcFit += bw[i] * (pp.sdcPins + pp.sdcAllPin);
        fit.mdcFit += bw[i] * (pp.mdcPins + pp.mdcAllPin);
    }
    fit.sdcFit *= ber * secToGigaHours;
    fit.mdcFit *= ber * secToGigaHours;
    return fit;
}

double
mttfHours(double fitPerDevice, double numDevices)
{
    const double systemFit = fitPerDevice * numDevices;
    if (systemFit <= 0)
        return INFINITY;
    return 1e9 / systemFit;
}

std::string
formatDuration(double hours)
{
    char buf[64];
    if (std::isinf(hours))
        return "inf";
    if (hours < 2) {
        std::snprintf(buf, sizeof(buf), "%.0f minutes", hours * 60);
    } else if (hours < 48) {
        std::snprintf(buf, sizeof(buf), "%.0f hours", hours);
    } else if (hours < 24 * 60) {
        std::snprintf(buf, sizeof(buf), "%.0f days", hours / 24);
    } else if (hours < 24 * 365 * 2) {
        std::snprintf(buf, sizeof(buf), "%.0f months",
                      hours / (24 * 30.44));
    } else {
        std::snprintf(buf, sizeof(buf), "%.0f years",
                      hours / (24 * 365.25));
    }
    return buf;
}

} // namespace aiecc
