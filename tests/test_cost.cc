/**
 * @file
 * Tests for protection cost accounting (obs/cost.hh): conservation
 * auditing, recovery-scope billing, merge correctness/associativity
 * and its panics, bit-identical cost sections across worker counts
 * for both the Monte-Carlo and injection campaigns, and finite JSON
 * output for empty and populated accountants.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "aiecc/cost_model.hh"
#include "aiecc/mechanisms.hh"
#include "inject/campaign.hh"
#include "inject/montecarlo.hh"
#include "obs/cost.hh"
#include "obs/json.hh"
#include "obs/observer.hh"

namespace aiecc
{
namespace
{

using obs::CostAccountant;
using obs::CostCategory;
using obs::CostLevel;
using obs::CostModel;

CostModel
aieccModel()
{
    return makeCostModel(Mechanisms::forLevel(ProtectionLevel::Aiecc));
}

/** Recompute total(category) from the per-level cells. */
uint64_t
sumCells(const CostAccountant &acct, CostCategory category)
{
    uint64_t sum = 0;
    for (unsigned l = 0; l < obs::numCostLevels; ++l)
        sum += acct.cell(static_cast<CostLevel>(l), category);
    return sum;
}

TEST(Cost, EmptyAccountantAuditsCleanWithFiniteMetrics)
{
    CostAccountant acct(aieccModel());
    const auto audit = acct.audit();
    EXPECT_TRUE(audit.ok) << (audit.violations.empty()
                                  ? ""
                                  : audit.violations.front());
    for (unsigned c = 0; c < obs::numCostCategories; ++c)
        EXPECT_EQ(acct.total(static_cast<CostCategory>(c)), 0u);

    // Zero traffic must not divide by zero: the derived Pareto
    // metrics are exact zeros, not NaN.
    EXPECT_EQ(acct.storageOverheadPct(), 0.0);
    EXPECT_EQ(acct.busOverheadPct(), 0.0);
    EXPECT_EQ(acct.latencyNsPerAccess(), 0.0);
}

TEST(Cost, ConservationHoldsAndRecoveryTrafficIsRecoveryBilled)
{
    CostAccountant acct(aieccModel());

    // Demand traffic: one write (encode) and two reads (decodes).
    acct.onCommand(true, false);
    acct.onEccEncode();
    acct.onCommand(false, true);
    acct.onEccDecode();
    acct.onCommand(false, true);
    acct.onEccDecode();

    const uint64_t demandBus = acct.total(CostCategory::Bus);
    EXPECT_GT(demandBus, 0u);
    EXPECT_EQ(acct.cell(CostLevel::Recovery, CostCategory::Bus), 0u);
    EXPECT_EQ(acct.demandAccesses(), 3u);
    EXPECT_EQ(acct.storedBlocks(), 1u);

    // Recovery traffic: a retried read plus backoff, inside a scope.
    {
        obs::ScopedRecoveryCost episode(&acct);
        EXPECT_TRUE(acct.inRecovery());
        acct.onCommand(false, true);
        acct.onEccDecode();
        acct.onBackoff(8);
    }
    EXPECT_FALSE(acct.inRecovery());

    // Everything charged inside the scope landed on the recovery
    // level — payload included, so more than the check-bit beats.
    EXPECT_GT(acct.cell(CostLevel::Recovery, CostCategory::Bus),
              acct.model().eccBusBitsPerAccess);
    EXPECT_GT(acct.cell(CostLevel::Recovery, CostCategory::Latency), 0u);
    // Recovery re-reads are not demand accesses and store nothing.
    EXPECT_EQ(acct.demandAccesses(), 3u);
    EXPECT_EQ(acct.storedBlocks(), 1u);
    EXPECT_EQ(acct.recoveryCommands(), 1u);
    EXPECT_EQ(acct.backoffCycles(), 8u);

    const auto audit = acct.audit();
    EXPECT_TRUE(audit.ok) << (audit.violations.empty()
                                  ? ""
                                  : audit.violations.front());
    for (unsigned c = 0; c < obs::numCostCategories; ++c) {
        const auto category = static_cast<CostCategory>(c);
        EXPECT_EQ(acct.total(category), sumCells(acct, category))
            << obs::costCategoryName(category);
    }
}

TEST(Cost, AuditFlagsOpenRecoveryScope)
{
    CostAccountant acct(aieccModel());
    acct.beginRecovery();
    const auto audit = acct.audit();
    EXPECT_FALSE(audit.ok);
    ASSERT_FALSE(audit.violations.empty());
    EXPECT_NE(audit.violations.front().find("recovery"),
              std::string::npos);
    acct.endRecovery();
    EXPECT_TRUE(acct.audit().ok);
}

TEST(Cost, EndRecoveryWithoutBeginPanics)
{
    CostAccountant acct(aieccModel());
    EXPECT_DEATH(acct.endRecovery(), "without a matching");
}

namespace
{

/** Distinct small traffic mixes for merge tests. */
void
driveTraffic(CostAccountant &acct, unsigned writes, unsigned reads,
             unsigned retries)
{
    for (unsigned i = 0; i < writes; ++i) {
        acct.onCommand(true, false);
        acct.onEccEncode();
    }
    for (unsigned i = 0; i < reads; ++i) {
        acct.onCommand(false, true);
        acct.onEccDecode();
    }
    if (retries) {
        obs::ScopedRecoveryCost episode(&acct);
        for (unsigned i = 0; i < retries; ++i) {
            acct.onCommand(false, true);
            acct.onEccDecode();
        }
    }
}

} // namespace

TEST(Cost, MergeMatchesSequentialAndIsAssociative)
{
    const CostModel model = aieccModel();

    // One accountant that saw all the traffic in order...
    CostAccountant sequential(model);
    driveTraffic(sequential, 3, 5, 1);
    driveTraffic(sequential, 0, 7, 2);
    driveTraffic(sequential, 4, 0, 0);

    // ...must byte-match any merge bracketing of per-shard parts.
    CostAccountant a(model), b(model), c(model);
    driveTraffic(a, 3, 5, 1);
    driveTraffic(b, 0, 7, 2);
    driveTraffic(c, 4, 0, 0);

    CostAccountant left(model);
    left.merge(a);
    left.merge(b);
    left.merge(c);

    CostAccountant bc(model);
    bc.merge(b);
    bc.merge(c);
    CostAccountant right(model);
    right.merge(a);
    right.merge(bc);

    EXPECT_EQ(left.serialize(), sequential.serialize());
    EXPECT_EQ(left.serialize(), right.serialize());
    EXPECT_EQ(left.digest(), right.digest());
    EXPECT_TRUE(left.audit().ok);
}

TEST(Cost, MergePanicsOnModelMismatchAndOpenScope)
{
    CostAccountant aiecc(aieccModel());
    CostAccountant none(
        makeCostModel(Mechanisms::forLevel(ProtectionLevel::None)));
    EXPECT_DEATH(aiecc.merge(none), "different models");

    CostAccountant open(aieccModel());
    open.beginRecovery();
    CostAccountant parent(aieccModel());
    EXPECT_DEATH(parent.merge(open), "open recovery scope");
}

TEST(Cost, JsonIsFiniteForEmptyAndPopulatedAccountants)
{
    for (const bool populated : {false, true}) {
        CostAccountant acct(aieccModel());
        if (populated)
            driveTraffic(acct, 2, 3, 1);
        obs::JsonWriter w;
        acct.writeJson(w);
        const std::string json = w.str();
        // The writer turns non-finite doubles into null with a
        // warning; a correct accountant never produces one.
        EXPECT_EQ(json.find("nan"), std::string::npos);
        EXPECT_EQ(json.find("inf"), std::string::npos);
        EXPECT_EQ(json.find("null"), std::string::npos);
        EXPECT_NE(json.find("\"audit\""), std::string::npos);
        EXPECT_NE(json.find("\"ok\": true"), std::string::npos);
    }
}

// ---- sharded campaigns: cost sections bit-identical for any --jobs ----

TEST(CostSharded, MonteCarloBitIdenticalAcrossJobs)
{
    Mechanisms mech;
    mech.ecc = EccScheme::AzulQpc;

    std::string serialized[3];
    const unsigned jobsValues[3] = {1, 2, 8};
    for (unsigned i = 0; i < 3; ++i) {
        CostAccountant acct(makeCostModel(mech));
        obs::Observer observer;
        observer.setCost(&acct);
        DataMonteCarlo mc(EccScheme::AzulQpc, 0x5EED);
        mc.setObserver(&observer);
        ShardPlan plan;
        plan.shardSize = 256;
        plan.jobs = jobsValues[i];
        mc.runCellSharded(DataErrorModel::Chip1, AddrErrorModel::Bit1,
                          1500, plan);
        EXPECT_TRUE(acct.audit().ok) << "--jobs " << jobsValues[i];
        EXPECT_GT(acct.total(CostCategory::Bus), 0u);
        serialized[i] = acct.serialize();
    }
    EXPECT_EQ(serialized[1], serialized[0]);
    EXPECT_EQ(serialized[2], serialized[0]);
}

TEST(CostSharded, InjectionCampaignBitIdenticalAcrossJobs)
{
    const Mechanisms mech = Mechanisms::forLevel(ProtectionLevel::Aiecc);
    std::vector<PinError> errors;
    for (Pin pin : {Pin::A0, Pin::A5, Pin::BA0, Pin::CS, Pin::CKE})
        errors.push_back(PinError::onePin(pin));
    errors.push_back(PinError::twoPin(Pin::A3, Pin::A4));
    errors.push_back(PinError::allPins(0xAB5));

    std::string serialized[3];
    const unsigned jobsValues[3] = {1, 2, 8};
    for (unsigned i = 0; i < 3; ++i) {
        CostAccountant acct(makeCostModel(mech));
        obs::Observer costObs;
        costObs.setCost(&acct);
        InjectionCampaign camp(mech);
        camp.setObserver(&costObs);
        camp.runTrials(CommandPattern::ActWr, errors, jobsValues[i]);
        EXPECT_TRUE(acct.audit().ok) << "--jobs " << jobsValues[i];
        EXPECT_GT(acct.total(CostCategory::Latency), 0u);
        serialized[i] = acct.serialize();
    }
    EXPECT_EQ(serialized[1], serialized[0]);
    EXPECT_EQ(serialized[2], serialized[0]);
}

// ---- the model derivation: scheme knobs map to the right levels ----

TEST(Cost, CheckpointStateRoundTripIsExact)
{
    // Bill real campaign traffic into an accountant, round-trip it
    // through the checkpoint state form into a fresh accountant over
    // the same (caller-reconstructed) model, and require bitwise
    // equality of the canonical serialization — plus a clean audit and
    // continued usability after the restore.
    const Mechanisms mech = Mechanisms::forLevel(ProtectionLevel::Aiecc);
    CostAccountant acct(makeCostModel(mech));
    obs::Observer acctObs;
    acctObs.setCost(&acct);
    InjectionCampaign camp(mech);
    camp.setObserver(&acctObs);
    camp.sweepOnePin(CommandPattern::ActWr, 2);
    ASSERT_TRUE(acct.audit().ok);

    CostAccountant restored(makeCostModel(mech));
    restored.deserializeState(acct.serialize());
    EXPECT_EQ(restored.serialize(), acct.serialize());
    EXPECT_EQ(restored.digest(), acct.digest());
    EXPECT_TRUE(restored.audit().ok);

    // Both must accept further billing identically.
    obs::Observer restoredObs;
    restoredObs.setCost(&restored);
    InjectionCampaign moreA(mech);
    moreA.setObserver(&acctObs);
    moreA.sweepAllPin(CommandPattern::Pre, 10, 1);
    InjectionCampaign moreB(mech);
    moreB.setObserver(&restoredObs);
    moreB.sweepAllPin(CommandPattern::Pre, 10, 1);
    EXPECT_EQ(restored.serialize(), acct.serialize());
}

TEST(Cost, EmptyAccountantStateRoundTrips)
{
    CostAccountant acct(aieccModel());
    CostAccountant restored(aieccModel());
    restored.deserializeState(acct.serialize());
    EXPECT_EQ(restored.serialize(), acct.serialize());
    EXPECT_TRUE(restored.audit().ok);
}

TEST(CostModelDerivation, LevelsFollowMechanisms)
{
    const CostModel none =
        makeCostModel(Mechanisms::forLevel(ProtectionLevel::None));
    EXPECT_FALSE(none.caParity);
    EXPECT_FALSE(none.wcrc);
    EXPECT_FALSE(none.cstc);
    EXPECT_FALSE(none.dataEcc);
    EXPECT_EQ(none.eccStorageBitsPerBlock, 0u);

    const CostModel aiecc = aieccModel();
    EXPECT_TRUE(aiecc.caParity);
    EXPECT_TRUE(aiecc.extendedCa);
    EXPECT_TRUE(aiecc.wcrc);
    EXPECT_TRUE(aiecc.extendedWcrc);
    EXPECT_TRUE(aiecc.cstc);
    EXPECT_TRUE(aiecc.dataEcc);
    EXPECT_TRUE(aiecc.addrEcc);
    EXPECT_GT(aiecc.eccStorageBitsPerBlock, 0u);
    EXPECT_GT(aiecc.wcrcBusBitsPerWrite, 0u);
    EXPECT_GT(aiecc.caBusBitsPerCommand, 0u);

    // eWCRC folds the address: more compute than the plain flavor.
    Mechanisms plainWcrc;
    plainWcrc.wcrc = WcrcMode::Data;
    Mechanisms extWcrc;
    extWcrc.wcrc = WcrcMode::DataAddress;
    EXPECT_GT(makeCostModel(extWcrc).wcrcComputePsPerWrite,
              makeCostModel(plainWcrc).wcrcComputePsPerWrite);
}

} // namespace
} // namespace aiecc
