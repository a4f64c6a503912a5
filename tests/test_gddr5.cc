/**
 * @file
 * Tests for the GDDR5 adaptation of AIECC (Section VI): command
 * codec, EDC algebra, device semantics, the three extension
 * mechanisms, and campaign-level coverage.
 */

#include <gtest/gtest.h>

#include "gddr5/campaign.hh"

namespace aiecc
{
namespace gddr5
{
namespace
{

BitVec
payload(uint64_t tag)
{
    Rng rng(tag);
    BitVec d(Burst::dataBits);
    for (size_t i = 0; i < d.size(); i += 64)
        d.setField(i, 64, rng.next());
    return d;
}

TEST(Gddr5Codec, RoundTripsAllCommands)
{
    Rng rng(1);
    for (int i = 0; i < 200; ++i) {
        const unsigned bank = static_cast<unsigned>(rng.below(16));
        Command cmds[] = {
            Command::act(bank,
                         static_cast<unsigned>(rng.below(1u << 13))),
            Command::rd(bank, static_cast<unsigned>(rng.below(1024))),
            Command::wr(bank, static_cast<unsigned>(rng.below(1024))),
            Command::pre(bank),
            Command::ref(),
            Command::nop(),
        };
        for (const auto &cmd : cmds) {
            const auto dec = decodeCommand(encodeCommand(cmd));
            EXPECT_TRUE(dec.executed);
            EXPECT_EQ(dec.cmd.type, cmd.type);
            if (cmd.type == CmdType::Act)
                EXPECT_EQ(dec.cmd.row, cmd.row);
            if (cmd.type == CmdType::Rd || cmd.type == CmdType::Wr) {
                EXPECT_EQ(dec.cmd.col, cmd.col);
                EXPECT_EQ(dec.cmd.bank, cmd.bank);
            }
        }
    }
}

TEST(Gddr5Codec, CsGates)
{
    auto pins = encodeCommand(Command::wr(3, 8));
    pins.flip(Pin::CS);
    EXPECT_FALSE(decodeCommand(pins).executed);
}

TEST(Gddr5Codec, RdWrAliasViaWe)
{
    auto pins = encodeCommand(Command::rd(3, 8));
    pins.flip(Pin::WE);
    EXPECT_EQ(decodeCommand(pins).cmd.type, CmdType::Wr);
}

TEST(Gddr5Edc, LinearInFoldWord)
{
    Rng rng(2);
    Burst b;
    b.randomize(rng);
    // CRC linearity: edc(b, x ^ y) == edc(b, x) ^ edc(b, 0) ^ edc(b, y).
    const uint32_t x = 0x1234, y = 0xAB00;
    for (unsigned lane = 0; lane < Burst::numLanes; ++lane) {
        EXPECT_EQ(edcChecksum(b, lane, x ^ y),
                  edcChecksum(b, lane, x) ^ edcChecksum(b, lane, 0) ^
                      edcChecksum(b, lane, y));
    }
}

TEST(Gddr5Edc, DetectsSingleDataBitErrors)
{
    Rng rng(3);
    Burst b;
    b.randomize(rng);
    const auto good = edcAll(b, 0);
    for (unsigned pin = 0; pin < Burst::numPins; pin += 3) {
        Burst bad = b;
        bad.setBit(pin, 4, !bad.getBit(pin, 4));
        EXPECT_NE(edcAll(bad, 0), good) << pin;
    }
}

TEST(Gddr5Edc, DetectsAnyAddressBitFold)
{
    Rng rng(4);
    Burst b;
    b.randomize(rng);
    for (unsigned bit = 0; bit < 30; ++bit) {
        EXPECT_NE(edcAll(b, 0x5A5A5A5 ^ (1u << bit)),
                  edcAll(b, 0x5A5A5A5));
    }
}

TEST(Gddr5System, WriteReadRoundTrip)
{
    Gddr5System sys(Protection::aiecc());
    const Address addr{2, 0x44, 3};
    sys.act(2, 0x44);
    sys.wr(addr, payload(7));
    EXPECT_EQ(sys.rd(addr), payload(7));
    EXPECT_TRUE(sys.detections().empty());
}

TEST(Gddr5System, BaselineEdcMissesReadAddressErrors)
{
    // The link CRC validates the data the device *sent* — a read of
    // the wrong location is self-consistent (same weakness as DDR4
    // data-only ECC, Fig 3a).
    Gddr5System sys(Protection::baseline());
    sys.act(1, 0x10);
    sys.wr({1, 0x10, 2}, payload(1));
    sys.wr({1, 0x10, 3}, payload(2));
    sys.clearDetections();
    const uint64_t next = sys.commandsIssued();
    sys.setPinCorruptor([next](uint64_t idx, PinWord &pins) {
        if (idx == next) {
            pins.flip(Pin::A3); // col 16 -> 24: block 2 -> 3
        }
    });
    const BitVec got = sys.rd({1, 0x10, 2});
    EXPECT_TRUE(sys.detections().empty());
    EXPECT_EQ(got, payload(2)); // silently the wrong block
}

TEST(Gddr5System, ExtendedReadEdcCatchesReadAddressErrors)
{
    Gddr5System sys(Protection::aiecc());
    sys.act(1, 0x10);
    sys.wr({1, 0x10, 2}, payload(1));
    sys.wr({1, 0x10, 3}, payload(2));
    sys.clearDetections();
    const uint64_t next = sys.commandsIssued();
    sys.setPinCorruptor([next](uint64_t idx, PinWord &pins) {
        if (idx == next)
            pins.flip(Pin::A3);
    });
    sys.rd({1, 0x10, 2});
    ASSERT_FALSE(sys.detections().empty());
    EXPECT_EQ(sys.detections().front().by, Detector::ReadEdc);
}

TEST(Gddr5System, ExtendedWriteEdcCatchesWriteAddressErrors)
{
    Gddr5System sys(Protection::aiecc());
    sys.act(1, 0x10);
    sys.clearDetections();
    const uint64_t next = sys.commandsIssued();
    sys.setPinCorruptor([next](uint64_t idx, PinWord &pins) {
        if (idx == next)
            pins.flip(Pin::A4);
    });
    sys.wr({1, 0x10, 2}, payload(3));
    ASSERT_FALSE(sys.detections().empty());
    EXPECT_EQ(sys.detections().front().by, Detector::WriteEdc);
}

TEST(Gddr5System, WrtFoldCatchesMissingWrite)
{
    // Section VI: "missing writes ... detected by incorporating WRT
    // ... into the GDDR5 read CRC over the same EDC pin."
    Gddr5System sys(Protection::aiecc());
    const Address addr{1, 0x10, 2};
    sys.act(1, 0x10);
    sys.wr(addr, payload(4));
    sys.clearDetections();

    const uint64_t next = sys.commandsIssued();
    sys.setPinCorruptor([next](uint64_t idx, PinWord &pins) {
        if (idx == next)
            pins.flip(Pin::CS); // the WR is lost in flight
    });
    sys.wr(addr, payload(5));
    EXPECT_TRUE(sys.detections().empty()); // nothing fired yet
    sys.setPinCorruptor({});
    sys.rd(addr); // WRT mismatch folds into the read EDC
    ASSERT_FALSE(sys.detections().empty());
    EXPECT_EQ(sys.detections().front().by, Detector::ReadEdc);
}

TEST(Gddr5System, CstcCatchesDuplicateAct)
{
    Gddr5System sys(Protection::aiecc());
    sys.act(1, 0x10);
    sys.clearDetections();
    const uint64_t next = sys.commandsIssued();
    sys.setPinCorruptor([next](uint64_t idx, PinWord &pins) {
        if (idx == next)
            pins = encodeCommand(Command::act(1, 0x20));
    });
    sys.nop();
    ASSERT_FALSE(sys.detections().empty());
    EXPECT_EQ(sys.detections().front().by, Detector::Cstc);
}

TEST(Gddr5Campaign, AieccGCoversAllOnePinErrors)
{
    Gddr5Campaign campaign(Protection::aiecc());
    for (CommandPattern pattern : allPatterns()) {
        const auto stats = campaign.sweepOnePin(pattern);
        EXPECT_DOUBLE_EQ(stats.coveredFrac(), 1.0)
            << patternName(pattern);
        EXPECT_EQ(stats.sdc, 0u);
        EXPECT_EQ(stats.mdc, 0u);
    }
}

TEST(Gddr5Campaign, BaselineEdcLeavesHoles)
{
    Gddr5Campaign campaign(Protection::baseline());
    unsigned harmful = 0;
    for (CommandPattern pattern : allPatterns()) {
        const auto stats = campaign.sweepOnePin(pattern);
        harmful += stats.sdc + stats.mdc;
    }
    // The link-only EDC misses address and command errors wholesale.
    EXPECT_GT(harmful, 20u);
}

TEST(Gddr5Campaign, AieccGSurvivesAllPinNoise)
{
    Gddr5Campaign campaign(Protection::aiecc());
    for (CommandPattern pattern : allPatterns()) {
        const auto stats = campaign.sweepAllPin(pattern, 15);
        EXPECT_EQ(stats.sdc, 0u) << patternName(pattern);
        EXPECT_EQ(stats.mdc, 0u) << patternName(pattern);
    }
}

TEST(Gddr5Campaign, StatsStateRoundTripIsExact)
{
    Gddr5Campaign campaign(Protection::baseline());
    Gddr5Stats stats = campaign.sweepOnePin(CommandPattern::ActWr);
    stats.merge(campaign.sweepAllPin(CommandPattern::Rd, 12));
    ASSERT_GT(stats.trials, 0u);

    Gddr5Stats restored;
    restored.deserializeState(stats.serializeState());
    EXPECT_EQ(restored.serializeState(), stats.serializeState());
    EXPECT_EQ(restored.trials, stats.trials);
    EXPECT_EQ(restored.detected, stats.detected);
    EXPECT_EQ(restored.sdc, stats.sdc);
    EXPECT_EQ(restored.mdc, stats.mdc);
    EXPECT_EQ(restored.both, stats.both);
    EXPECT_DOUBLE_EQ(restored.coveredFrac(), stats.coveredFrac());
}

TEST(Gddr5Campaign, CheckpointedMatchesSweepAndResumesIdentically)
{
    std::vector<Gddr5Error> errors;
    for (Pin pin : gddr5InjectablePins())
        errors.push_back(Gddr5Error::onePin(pin));

    obs::LineageLedger refLedger;
    obs::Observer refObs;
    refObs.setLineage(&refLedger);
    Gddr5Campaign ref(Protection::aiecc());
    ref.setObserver(&refObs);
    Gddr5Stats want;
    for (const auto &trial : ref.runTrials(CommandPattern::Wr, errors, 2))
        want.add(trial);

    // Interrupt in the first commit, then continue from the recorded
    // shard; the concatenated result stream must aggregate to the
    // uninterrupted sweep and the ledger must match bit for bit.
    clearStopRequest();
    obs::LineageLedger ledger;
    obs::Observer observer;
    observer.setLineage(&ledger);
    Gddr5Campaign camp(Protection::aiecc());
    camp.setObserver(&observer);
    Gddr5Stats got;
    uint64_t nextShard = 0;
    ASSERT_EQ(camp.runTrialsCheckpointed(
                  CommandPattern::Wr, errors, 2,
                  {/*batchShards=*/2, &nextShard,
                   [](uint64_t, uint64_t) { requestStop(); }},
                  [&](uint64_t, const Gddr5Trial &t) { got.add(t); }),
              RunStatus::Interrupted);
    clearStopRequest();
    ASSERT_GT(nextShard, 0u);
    ASSERT_LT(got.trials, want.trials);
    EXPECT_EQ(camp.trialCount(), 0u); // left at the unit start

    ASSERT_EQ(camp.runTrialsCheckpointed(
                  CommandPattern::Wr, errors, 2,
                  {2, &nextShard, [](uint64_t, uint64_t) {}},
                  [&](uint64_t, const Gddr5Trial &t) { got.add(t); }),
              RunStatus::Completed);
    EXPECT_EQ(got.serializeState(), want.serializeState());
    EXPECT_EQ(ledger.digest(), refLedger.digest());
    EXPECT_EQ(camp.trialCount(), ref.trialCount());
}

} // namespace
} // namespace gddr5
} // namespace aiecc
