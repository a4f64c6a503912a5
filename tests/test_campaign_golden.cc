/**
 * @file
 * Golden-value tests for the sharded campaign engines.
 *
 * The other campaign tests compare execution paths against each other
 * (jobs vs jobs, plain vs checkpointed), which a shared shard body
 * passes even if that body drifts.  These pin each engine's output at
 * a fixed seed to absolute values, so any change to trial bodies, RNG
 * streams, shard decomposition, fold order, fault-ID derivation or
 * cost billing shows up as a failure here.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "aiecc/cost_model.hh"
#include "common/checkpoint.hh"
#include "gddr5/campaign.hh"
#include "inject/campaign.hh"
#include "inject/montecarlo.hh"
#include "obs/json.hh"
#include "obs/lineage.hh"
#include "obs/observer.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"

namespace aiecc
{
namespace
{

ShardPlan
plan(uint64_t shardSize, unsigned jobs)
{
    ShardPlan p;
    p.shardSize = shardSize;
    p.jobs = jobs;
    return p;
}

/**
 * Hash of every event's full JSONL text (kind, cycle, label, value,
 * detail form and operands, RAS fields, fault ID) in emission order:
 * pins what a trace file holds, not only the numeric fields.
 */
uint64_t
traceTextHash(const obs::VectorTraceSink &sink)
{
    std::string text;
    for (const obs::TraceEvent &e : sink.events()) {
        obs::JsonWriter w(0);
        e.writeJson(w);
        text += w.str();
        text += '\n';
    }
    return obs::lineageHash(text);
}

TEST(CampaignGolden, MonteCarloSampledCell)
{
    obs::StatsRegistry stats;
    obs::VectorTraceSink sink;
    obs::Observer observer(&stats);
    observer.addSink(&sink);
    obs::LineageLedger ledger;
    observer.setLineage(&ledger);
    DataMonteCarlo mc(EccScheme::EDeccQpc, 0x601D);
    mc.setObserver(&observer);
    const MonteCarloCell cell = mc.runCellSharded(
        DataErrorModel::Chip1, AddrErrorModel::Bit1, 3000, plan(256, 2));
    EXPECT_EQ(cell.serializeState(),
              "trials 3000 counts 0 0 0 0 0 2943 57 0\n");
    EXPECT_EQ(ledger.digest(), 0xb4cde3f21f8404abULL);
    EXPECT_EQ(obs::lineageHash(stats.serializeState()),
              0x557be0064e1e1c9dULL);
    EXPECT_EQ(sink.size(), 6000u);
    // Trial index and read address per event: pins every RNG stream
    // and the shard-order re-emit, not just the summed counts.
    std::string stream;
    for (const obs::TraceEvent &e : sink.events())
        stream += std::to_string(e.cycle) + ':' + std::to_string(e.value) +
                  ' ';
    EXPECT_EQ(obs::lineageHash(stream), 0x1a406be6c864e174ULL);
    EXPECT_EQ(traceTextHash(sink), 0x633c09737f572806ULL);
}

TEST(CampaignGolden, MonteCarloExhaustiveCell)
{
    obs::LineageLedger ledger;
    obs::Observer observer;
    observer.setLineage(&ledger);
    DataMonteCarlo mc(EccScheme::AzulQpc, 0x601D);
    mc.setObserver(&observer);
    const MonteCarloCell cell = mc.runCellExhaustive(
        DataErrorModel::Bit1, AddrErrorModel::Bit1, plan(1024, 2));
    EXPECT_EQ(cell.serializeState(),
              "trials 18432 counts 0 104 0 0 0 18328 0 0\n");
    EXPECT_EQ(ledger.digest(), 0xdbf2148e20ef9c10ULL);
}

/** Pin one sampled Table III cell's counts and ledger digest. */
void
expectSampledCell(EccScheme scheme, DataErrorModel data,
                  AddrErrorModel addr, const std::string &counts,
                  uint64_t digest)
{
    SCOPED_TRACE(dataErrorName(data) + " / " + addrErrorName(addr));
    obs::LineageLedger ledger;
    obs::Observer observer;
    observer.setLineage(&ledger);
    DataMonteCarlo mc(scheme, 0x601D);
    mc.setObserver(&observer);
    const MonteCarloCell cell =
        mc.runCellSharded(data, addr, 3000, plan(256, 2));
    EXPECT_EQ(cell.serializeState(), counts);
    EXPECT_EQ(ledger.digest(), digest);
}

// The two Table III schemes the pins above leave out: plain QPC and
// the codeword-transform eDECC-t, at a correctable cell and at
// rank-wide garbage read from a random address.
TEST(CampaignGolden, QpcSampledCells)
{
    expectSampledCell(EccScheme::Qpc, DataErrorModel::Chip1,
                      AddrErrorModel::Bit1,
                      "trials 3000 counts 0 3000 0 0 0 0 0 0\n",
                      0xe8c612e7cc1ce4a4ULL);
    expectSampledCell(EccScheme::Qpc, DataErrorModel::Rank1,
                      AddrErrorModel::Bits32,
                      "trials 3000 counts 0 1 0 0 0 0 0 2999\n",
                      0xe36766f983fd7ef4ULL);
}

TEST(CampaignGolden, EDeccTransformSampledCells)
{
    expectSampledCell(EccScheme::EDeccTransformQpc, DataErrorModel::Chip1,
                      AddrErrorModel::Bit1,
                      "trials 3000 counts 0 2 0 0 0 2998 0 0\n",
                      0x9645519b3db4b1acULL);
    expectSampledCell(EccScheme::EDeccTransformQpc, DataErrorModel::Rank1,
                      AddrErrorModel::Bits32,
                      "trials 3000 counts 0 0 0 0 0 0 0 3000\n",
                      0xed31b515f7b60dc5ULL);
}

TEST(CampaignGolden, AieccOnePinSweepWithCost)
{
    const Mechanisms mech = Mechanisms::forLevel(ProtectionLevel::Aiecc);
    obs::LineageLedger ledger;
    obs::CostAccountant cost(makeCostModel(mech));
    obs::Observer observer;
    observer.setLineage(&ledger);
    observer.setCost(&cost);
    InjectionCampaign camp(mech);
    camp.setObserver(&observer);
    const CampaignStats stats = camp.sweepOnePin(CommandPattern::Wr, 2);
    EXPECT_EQ(stats.serializeState(), "counts 27 27 0 27 0 0 0 0\n"
                                      "recovery 27 27 27 0 0\n"
                                      "detectors 2\n"
                                      "1 26\n"
                                      "3 1\n");
    EXPECT_EQ(ledger.digest(), 0x7cb7c0284ba3f435ULL);
    EXPECT_EQ(cost.digest(), 0x9012375e6dde2638ULL);
}

TEST(CampaignGolden, AieccOnePinSweepTraceText)
{
    const Mechanisms mech = Mechanisms::forLevel(ProtectionLevel::Aiecc);
    obs::LineageLedger ledger;
    obs::CostAccountant cost(makeCostModel(mech));
    obs::VectorTraceSink sink;
    obs::Observer observer;
    observer.addSink(&sink);
    observer.setLineage(&ledger);
    observer.setCost(&cost);
    InjectionCampaign camp(mech);
    camp.setObserver(&observer);
    camp.sweepOnePin(CommandPattern::Wr, 2);
    // Sinks never move results: same ledger and cost as above.
    EXPECT_EQ(ledger.digest(), 0x7cb7c0284ba3f435ULL);
    EXPECT_EQ(cost.digest(), 0x9012375e6dde2638ULL);
    EXPECT_EQ(sink.size(), 108u);
    EXPECT_EQ(traceTextHash(sink), 0xec63bfd666d8e0d6ULL);
}

TEST(CampaignGolden, Gddr5OnePinSweep)
{
    obs::LineageLedger ledger;
    obs::Observer observer;
    observer.setLineage(&ledger);
    gddr5::Gddr5Campaign camp(gddr5::Protection::aiecc());
    camp.setObserver(&observer);
    const gddr5::Gddr5Stats stats =
        camp.sweepOnePin(CommandPattern::Wr, 2);
    EXPECT_EQ(stats.serializeState(), "counts 22 16 6 5 11 0 0 0\n");
    EXPECT_EQ(ledger.digest(), 0x8df537a2fbfebd54ULL);
}

// The plain runs have no stop check: a pending stop request only
// interrupts checkpointed runs, between batches.
TEST(CampaignGolden, PlainRunsIgnorePendingStop)
{
    std::vector<PinError> errors;
    for (Pin pin : injectablePins(true))
        errors.push_back(PinError::onePin(pin));
    const Mechanisms mech = Mechanisms::forLevel(ProtectionLevel::Aiecc);
    CampaignStats want;
    for (const TrialResult &tr :
         InjectionCampaign(mech).runTrials(CommandPattern::Rd, errors, 2))
        want.add(tr);

    InjectionCampaign camp(mech);
    DataMonteCarlo mc(EccScheme::Qpc, 0x601D);
    requestStop();
    const std::vector<TrialResult> results =
        camp.runTrials(CommandPattern::Rd, errors, 2);
    const MonteCarloCell cell = mc.runCellSharded(
        DataErrorModel::Bit1, AddrErrorModel::None, 1000, plan(64, 2));
    clearStopRequest();

    CampaignStats got;
    for (const TrialResult &tr : results)
        got.add(tr);
    EXPECT_EQ(got.trials, errors.size());
    EXPECT_EQ(got.serializeState(), want.serializeState());
    EXPECT_EQ(camp.trialCount(), errors.size());
    EXPECT_EQ(cell.trials, 1000u);
}

} // namespace
} // namespace aiecc
