/**
 * @file
 * Unit tests for the DRAM rank model: normal operation, the erroneous
 * command semantics of Section II-C (duplicate ACT, reads/writes to
 * idle banks, extra writes, MRS corruption), and the device-side
 * checkers (CA parity, WCRC/eWCRC, CSTC gating).
 */

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "crc/crc.hh"
#include "dram/cstc.hh"
#include "dram/rank.hh"

namespace aiecc
{
namespace
{

Burst
patternBurst(uint64_t seed)
{
    Rng rng(seed);
    Burst b;
    b.randomize(rng);
    return b;
}

WriteData
makeWd(const RankConfig &cfg, const Burst &burst, const MtbAddress &addr)
{
    WriteData wd;
    wd.burst = burst;
    wd.crcValid = cfg.wcrcMode != WcrcMode::Off;
    for (unsigned chip = 0; chip < Burst::numChips; ++chip) {
        BitVec covered = burst.chipBits(chip);
        if (cfg.wcrcMode == WcrcMode::DataAddress) {
            BitVec withAddr(covered.size() + 32);
            withAddr.insert(0, covered);
            withAddr.setField(covered.size(), 32, addr.pack(cfg.geom));
            covered = withAddr;
        }
        wd.crc[chip] =
            static_cast<uint8_t>(Crc::ddr4Crc8().compute(covered));
    }
    return wd;
}

class RankTest : public ::testing::Test
{
  protected:
    RankConfig cfg;
    Cycle now = 100;

    ExecResult
    step(DramRank &rank, const Command &cmd,
         const std::optional<WriteData> &wd = std::nullopt)
    {
        auto pins = encodeCommand(cmd);
        if (cfg.parityMode != ParityMode::Off) {
            driveParity(pins, cfg.parityMode == ParityMode::ECap
                                  ? ctrlWrt
                                  : false);
        }
        if (cfg.parityMode == ParityMode::ECap && cmd.type == CmdType::Wr)
            ctrlWrt = !ctrlWrt;
        now += 500; // generously satisfy all timing
        return rank.step(now, pins, wd);
    }

    bool ctrlWrt = false;
};

TEST_F(RankTest, ActOpensBank)
{
    DramRank rank(cfg);
    EXPECT_FALSE(rank.bankOpen(1, 2));
    step(rank, Command::act(1, 2, 0x55));
    EXPECT_TRUE(rank.bankOpen(1, 2));
    EXPECT_EQ(rank.openRow(1, 2), 0x55u);
}

TEST_F(RankTest, WriteThenReadRoundTrip)
{
    DramRank rank(cfg);
    const Burst data = patternBurst(1);
    step(rank, Command::act(0, 0, 7));
    MtbAddress addr{0, 0, 0, 7, 2};
    auto wr = step(rank, Command::wr(0, 0, 2 << 3),
                   makeWd(cfg, data, addr));
    EXPECT_TRUE(wr.arrayMutated);
    auto rd = step(rank, Command::rd(0, 0, 2 << 3));
    ASSERT_TRUE(rd.readData.has_value());
    EXPECT_EQ(*rd.readData, data);
}

TEST_F(RankTest, PrechargeClosesBank)
{
    DramRank rank(cfg);
    step(rank, Command::act(0, 0, 7));
    step(rank, Command::pre(0, 0));
    EXPECT_FALSE(rank.bankOpen(0, 0));
}

TEST_F(RankTest, AutoPrechargeCloses)
{
    DramRank rank(cfg);
    step(rank, Command::act(0, 0, 7));
    step(rank, Command::rd(0, 0, 0, /*ap=*/true));
    EXPECT_FALSE(rank.bankOpen(0, 0));
}

TEST_F(RankTest, ReadFromIdleBankReturnsGarbageWithoutMutation)
{
    DramRank rank(cfg);
    const MtbAddress probe{0, 0, 0, 7, 0};
    const Burst before = rank.peek(probe);
    auto rd = step(rank, Command::rd(0, 0, 0));
    ASSERT_TRUE(rd.readData.has_value());
    EXPECT_FALSE(rd.arrayMutated);
    // Storage unchanged.
    EXPECT_EQ(rank.peek(probe), before);
}

TEST_F(RankTest, WriteToIdleBankIsSilentlyDropped)
{
    DramRank rank(cfg);
    const MtbAddress addr{0, 0, 0, 7, 2};
    const Burst before = rank.peek(addr);
    auto wr = step(rank, Command::wr(0, 0, 2 << 3),
                   makeWd(cfg, patternBurst(2), addr));
    EXPECT_FALSE(wr.arrayMutated);
    EXPECT_FALSE(wr.alert.has_value());
    EXPECT_EQ(rank.peek(addr), before);
}

TEST_F(RankTest, DuplicateActCopiesOpenRow)
{
    // Figure 3c: ACT row A, write, then erroneous ACT row B on the
    // same open bank clobbers row B with row A's content.
    DramRank rank(cfg);
    const Burst dataA = patternBurst(3);
    const Burst dataB = patternBurst(4);
    // Establish distinct contents in rows A=10 and B=20.
    rank.poke(MtbAddress{0, 0, 0, 10, 5}, dataA);
    rank.poke(MtbAddress{0, 0, 0, 20, 5}, dataB);

    step(rank, Command::act(0, 0, 10));
    auto res = step(rank, Command::act(0, 0, 20)); // duplicate ACT
    EXPECT_TRUE(res.arrayMutated);
    EXPECT_EQ(rank.peek(MtbAddress{0, 0, 0, 20, 5}), dataA);
    // Row A is untouched.
    EXPECT_EQ(rank.peek(MtbAddress{0, 0, 0, 10, 5}), dataA);
    // The bank now presents row B (holding A's data).
    EXPECT_EQ(rank.openRow(0, 0), 20u);
}

TEST_F(RankTest, DuplicateActSameRowHarmless)
{
    DramRank rank(cfg);
    rank.poke(MtbAddress{0, 0, 0, 10, 5}, patternBurst(5));
    step(rank, Command::act(0, 0, 10));
    auto res = step(rank, Command::act(0, 0, 10));
    EXPECT_FALSE(res.arrayMutated);
}

TEST_F(RankTest, ExtraWriteLatchesGarbageBus)
{
    // An altered command became WR: no controller data accompanies it,
    // so the device writes undriven-bus garbage (§IV-C).
    DramRank rank(cfg);
    const Burst good = patternBurst(6);
    rank.poke(MtbAddress{0, 0, 0, 7, 2}, good);
    step(rank, Command::act(0, 0, 7));
    auto res = step(rank, Command::wr(0, 0, 2 << 3), std::nullopt);
    EXPECT_TRUE(res.arrayMutated);
    EXPECT_NE(rank.peek(MtbAddress{0, 0, 0, 7, 2}), good);
}

TEST_F(RankTest, ExtraWriteCaughtByWcrc)
{
    // With write CRC enabled the garbage CRC mismatches and the array
    // is protected.
    cfg.wcrcMode = WcrcMode::Data;
    DramRank rank(cfg);
    const Burst good = patternBurst(7);
    rank.poke(MtbAddress{0, 0, 0, 7, 2}, good);
    step(rank, Command::act(0, 0, 7));
    auto res = step(rank, Command::wr(0, 0, 2 << 3), std::nullopt);
    ASSERT_TRUE(res.alert.has_value());
    EXPECT_EQ(res.alert->kind, AlertKind::Wcrc);
    EXPECT_FALSE(res.arrayMutated);
    EXPECT_EQ(rank.peek(MtbAddress{0, 0, 0, 7, 2}), good);
}

TEST_F(RankTest, MrsCorruptsDevice)
{
    DramRank rank(cfg);
    const Burst good = patternBurst(8);
    rank.poke(MtbAddress{0, 0, 0, 7, 2}, good);
    step(rank, Command::act(0, 0, 7));
    Command mrs;
    mrs.type = CmdType::Mrs;
    step(rank, mrs);
    EXPECT_TRUE(rank.modeCorrupted());
    auto rd = step(rank, Command::rd(0, 0, 2 << 3));
    ASSERT_TRUE(rd.readData.has_value());
    EXPECT_NE(*rd.readData, good);
}

TEST_F(RankTest, BaseWcrcAcceptsMatchingWrite)
{
    cfg.wcrcMode = WcrcMode::Data;
    DramRank rank(cfg);
    step(rank, Command::act(0, 0, 7));
    const MtbAddress addr{0, 0, 0, 7, 2};
    auto res = step(rank, Command::wr(0, 0, 2 << 3),
                    makeWd(cfg, patternBurst(9), addr));
    EXPECT_FALSE(res.alert.has_value());
    EXPECT_TRUE(res.arrayMutated);
}

TEST_F(RankTest, BaseWcrcMissesAddressErrors)
{
    // Plain WCRC covers only data: a wrong-column write sails through
    // (the DDR4 weakness eWCRC fixes).
    cfg.wcrcMode = WcrcMode::Data;
    DramRank rank(cfg);
    step(rank, Command::act(0, 0, 7));
    const MtbAddress intended{0, 0, 0, 7, 2};
    // The command's column got corrupted to 3 in flight.
    auto res = step(rank, Command::wr(0, 0, 3 << 3),
                    makeWd(cfg, patternBurst(10), intended));
    EXPECT_FALSE(res.alert.has_value());
    EXPECT_TRUE(res.arrayMutated);
}

TEST_F(RankTest, EWcrcDetectsColumnError)
{
    cfg.wcrcMode = WcrcMode::DataAddress;
    DramRank rank(cfg);
    step(rank, Command::act(0, 0, 7));
    const MtbAddress intended{0, 0, 0, 7, 2};
    auto res = step(rank, Command::wr(0, 0, 3 << 3),
                    makeWd(cfg, patternBurst(11), intended));
    ASSERT_TRUE(res.alert.has_value());
    EXPECT_EQ(res.alert->kind, AlertKind::Wcrc);
    EXPECT_FALSE(res.arrayMutated);
}

TEST_F(RankTest, EWcrcDetectsWrongOpenRow)
{
    // An earlier erroneous ACT opened row 9 instead of row 7; the
    // device-side address check on the next write exposes it.
    cfg.wcrcMode = WcrcMode::DataAddress;
    DramRank rank(cfg);
    step(rank, Command::act(0, 0, 9)); // controller intended row 7
    const MtbAddress intended{0, 0, 0, 7, 2};
    auto res = step(rank, Command::wr(0, 0, 2 << 3),
                    makeWd(cfg, patternBurst(12), intended));
    ASSERT_TRUE(res.alert.has_value());
    EXPECT_EQ(res.alert->kind, AlertKind::Wcrc);
}

TEST_F(RankTest, CapBlocksCommandOnParityError)
{
    cfg.parityMode = ParityMode::Cap;
    DramRank rank(cfg);
    auto pins = encodeCommand(Command::act(0, 0, 7));
    driveParity(pins, false);
    pins.flip(Pin::A3); // 1-pin CMD/ADD error
    auto res = rank.step(500, pins);
    ASSERT_TRUE(res.alert.has_value());
    EXPECT_EQ(res.alert->kind, AlertKind::CaParity);
    EXPECT_FALSE(rank.bankOpen(0, 0));
}

TEST_F(RankTest, CapMissesTwoPinErrors)
{
    cfg.parityMode = ParityMode::Cap;
    DramRank rank(cfg);
    auto pins = encodeCommand(Command::act(0, 0, 7));
    driveParity(pins, false);
    pins.flip(Pin::A3);
    pins.flip(Pin::A4);
    auto res = rank.step(500, pins);
    EXPECT_FALSE(res.alert.has_value());
    EXPECT_TRUE(rank.bankOpen(0, 0));
    EXPECT_EQ(rank.openRow(0, 0), 7u ^ 8u ^ 16u);
}

TEST_F(RankTest, ECapWrtTogglesOnWrite)
{
    cfg.parityMode = ParityMode::ECap;
    DramRank rank(cfg);
    EXPECT_FALSE(rank.wrtBit());
    step(rank, Command::act(0, 0, 7));
    EXPECT_FALSE(rank.wrtBit());
    const MtbAddress addr{0, 0, 0, 7, 2};
    step(rank, Command::wr(0, 0, 2 << 3),
         makeWd(cfg, patternBurst(13), addr));
    EXPECT_TRUE(rank.wrtBit());
}

TEST_F(RankTest, ECapDetectsMissingWriteAtNextCommand)
{
    // The §IV-D scenario: a WR is lost in flight (CS error), so the
    // device's WRT lags the controller's; the very next command's
    // parity mismatches.
    cfg.parityMode = ParityMode::ECap;
    DramRank rank(cfg);
    step(rank, Command::act(0, 0, 7));

    // Controller sends WR (toggling its WRT) but the command is lost.
    auto lostPins = encodeCommand(Command::wr(0, 0, 2 << 3));
    driveParity(lostPins, ctrlWrt);
    ctrlWrt = !ctrlWrt;
    lostPins.flip(Pin::CS); // deselect: DRAM never sees the WR
    auto res1 = rank.step(700, lostPins);
    EXPECT_FALSE(res1.alert.has_value());
    EXPECT_FALSE(rank.wrtBit());

    // Next command carries parity computed with the controller's WRT.
    auto res2 = step(rank, Command::rd(0, 0, 2 << 3));
    ASSERT_TRUE(res2.alert.has_value());
    EXPECT_EQ(res2.alert->kind, AlertKind::CaParity);
}

TEST_F(RankTest, CstcBlocksDuplicateAct)
{
    cfg.cstcEnabled = true;
    DramRank rank(cfg);
    rank.poke(MtbAddress{0, 0, 0, 20, 5}, patternBurst(14));
    const Burst before = rank.peek(MtbAddress{0, 0, 0, 20, 5});
    step(rank, Command::act(0, 0, 10));
    auto res = step(rank, Command::act(0, 0, 20));
    ASSERT_TRUE(res.alert.has_value());
    EXPECT_EQ(res.alert->kind, AlertKind::Cstc);
    // Row B survives.
    EXPECT_EQ(rank.peek(MtbAddress{0, 0, 0, 20, 5}), before);
}

TEST_F(RankTest, CstcBlocksReadToIdleBank)
{
    cfg.cstcEnabled = true;
    DramRank rank(cfg);
    auto res = step(rank, Command::rd(0, 0, 0));
    ASSERT_TRUE(res.alert.has_value());
    EXPECT_EQ(res.alert->kind, AlertKind::Cstc);
    EXPECT_FALSE(res.readData.has_value());
}

TEST_F(RankTest, CkeGlitchEntersPowerDown)
{
    DramRank rank(cfg);
    auto pins = encodeCommand(Command::act(0, 0, 7));
    pins.flip(Pin::CKE);
    auto res = rank.step(500, pins);
    EXPECT_FALSE(res.decoded.executed);
    EXPECT_TRUE(rank.inPowerDown());
    EXPECT_FALSE(rank.bankOpen(0, 0));

    // The next (CKE-high) command wakes the device and executes.
    auto res2 = rank.step(500 + cfg.timing.tXP,
                          encodeCommand(Command::act(0, 0, 7)));
    EXPECT_TRUE(res2.executed);
    EXPECT_FALSE(rank.inPowerDown());
    EXPECT_TRUE(rank.bankOpen(0, 0));
}

TEST_F(RankTest, CstcFlagsTooEarlyWakeAfterCkeGlitch)
{
    // The controller never intended the power-down, so its next
    // command lands inside tXP — a timing breach the CSTC reports
    // (the paper lists CSTC among the detectors of CKE errors, §IV-E).
    cfg.cstcEnabled = true;
    DramRank rank(cfg);
    auto pins = encodeCommand(Command::act(0, 0, 7));
    pins.flip(Pin::CKE);
    rank.step(500, pins);
    ASSERT_TRUE(rank.inPowerDown());

    auto res = rank.step(502, encodeCommand(Command::act(0, 0, 7)));
    ASSERT_TRUE(res.alert.has_value());
    EXPECT_EQ(res.alert->kind, AlertKind::Cstc);
    EXPECT_FALSE(rank.bankOpen(0, 0));

    // Past tXP, commands proceed normally.
    auto res2 = rank.step(502 + cfg.timing.tXP,
                          encodeCommand(Command::act(0, 0, 7)));
    EXPECT_FALSE(res2.alert.has_value());
    EXPECT_TRUE(rank.bankOpen(0, 0));
}

TEST_F(RankTest, PokePeekBackdoor)
{
    DramRank rank(cfg);
    const Burst b = patternBurst(15);
    const MtbAddress addr{0, 3, 1, 42, 9};
    rank.poke(addr, b);
    EXPECT_EQ(rank.peek(addr), b);
    EXPECT_EQ(rank.storedAddresses().size(), 1u);
    EXPECT_EQ(rank.storedAddresses()[0], addr);
}

TEST_F(RankTest, DefaultFillIsDeterministicAndAddressDependent)
{
    DramRank rank1(cfg), rank2(cfg);
    const MtbAddress a{0, 0, 0, 1, 1};
    const MtbAddress b{0, 0, 0, 1, 2};
    EXPECT_EQ(rank1.peek(a), rank2.peek(a));
    EXPECT_NE(rank1.peek(a), rank1.peek(b));
}

/**
 * Drive two ranks with the same stream of controller-legal ACT, RD,
 * WR, PRE, PREA and REF edges, corrupting each edge's pins with
 * probability @p flipRate.  One rank is told what was sent, the other
 * is not; on every edge both must do exactly the same.  The stream is
 * built the way MemController builds it: legality from a
 * controller-side Cstc, parity from a controller-side WRT, eWCRC over
 * the controller's own open row.
 */
void
expectTrustedMatchesFullCheck(const RankConfig &cfg, double flipRate,
                              uint64_t seed)
{
    SCOPED_TRACE(testing::Message() << "flip rate " << flipRate);
    DramRank trusting(cfg), checking(cfg);
    Cstc sched(cfg.geom, cfg.timing);
    std::vector<unsigned> openRows(cfg.geom.numBanks(), 0);
    bool wrt = false;
    Rng rng(seed);
    Cycle now = 0;
    std::vector<MtbAddress> touched;
    unsigned alerts = 0;

    for (unsigned i = 0; i < 6000; ++i) {
        const unsigned bg =
            static_cast<unsigned>(rng.below(cfg.geom.numBankGroups()));
        const unsigned ba =
            static_cast<unsigned>(rng.below(cfg.geom.banksPerGroup()));
        const unsigned bank = bg * cfg.geom.banksPerGroup() + ba;
        bool anyOpen = false;
        for (unsigned b = 0; b < cfg.geom.numBanks(); ++b)
            anyOpen = anyOpen || sched.bankOpen(b);
        const uint64_t pick = rng.below(100);
        Command cmd;
        if (pick < 3)
            cmd = Command::preAll();
        else if (pick < 5 && !anyOpen)
            cmd = Command::ref();
        else if (!sched.bankOpen(bank))
            cmd = Command::act(bg, ba, static_cast<unsigned>(rng.below(8)));
        else if (pick < 20)
            cmd = Command::pre(bg, ba);
        else {
            const unsigned col =
                static_cast<unsigned>(rng.below(16)) << Geometry::burstBits;
            const bool ap = rng.chance(0.1);
            cmd = rng.chance(0.6) ? Command::rd(bg, ba, col, ap)
                                  : Command::wr(bg, ba, col, ap);
        }
        now = sched.earliestLegal(now, cmd);
        ASSERT_EQ(sched.checkFast(now, cmd), nullptr) << cmd.toString();
        if (cmd.type == CmdType::Act)
            openRows[bank] = cmd.row;

        PinWord sent = encodeCommand(cmd);
        if (cfg.parityMode != ParityMode::Off)
            driveParity(sent, cfg.parityMode == ParityMode::ECap && wrt);
        if (cfg.parityMode == ParityMode::ECap && cmd.type == CmdType::Wr)
            wrt = !wrt;
        std::optional<WriteData> wd;
        MtbAddress target{0, bg, ba, openRows[bank],
                          cmd.col >> Geometry::burstBits};
        if (cmd.type == CmdType::Wr) {
            WriteData w;
            w.burst = patternBurst(seed + i);
            w.crcValid = cfg.wcrcMode != WcrcMode::Off;
            if (w.crcValid)
                w.crc = laneCrcs(w.burst, cfg.wcrcMode,
                                 target.pack(cfg.geom));
            wd = w;
        }
        PinWord pins = sent;
        if (rng.chance(flipRate))
            pins.flip(static_cast<Pin>(rng.below(numCccaPins)));
        const bool odt = pins.get(Pin::ODT) != sent.get(Pin::ODT);

        const ExecResult a = trusting.step(now, pins, wd, odt, &sent);
        const ExecResult b = checking.step(now, pins, wd, odt);
        SCOPED_TRACE(testing::Message() << "edge " << i << " "
                                        << cmd.toString());
        ASSERT_EQ(a.decoded.cmd, b.decoded.cmd);
        ASSERT_EQ(a.decoded.executed, b.decoded.executed);
        ASSERT_EQ(a.alert.has_value(), b.alert.has_value());
        if (a.alert) {
            ++alerts;
            ASSERT_EQ(a.alert->kind, b.alert->kind);
            ASSERT_EQ(a.alert->why, b.alert->why);
            ASSERT_EQ(a.alert->flatBank, b.alert->flatBank);
        }
        ASSERT_EQ(a.executed, b.executed);
        ASSERT_EQ(a.arrayMutated, b.arrayMutated);
        ASSERT_EQ(a.readData, b.readData);

        ASSERT_EQ(trusting.wrtBit(), checking.wrtBit());
        for (unsigned g = 0; g < cfg.geom.numBankGroups(); ++g) {
            for (unsigned k = 0; k < cfg.geom.banksPerGroup(); ++k) {
                ASSERT_EQ(trusting.bankOpen(g, k), checking.bankOpen(g, k));
                ASSERT_EQ(trusting.openRow(g, k), checking.openRow(g, k));
            }
        }
        if (cmd.type == CmdType::Rd || cmd.type == CmdType::Wr) {
            touched.push_back(target);
            ASSERT_EQ(trusting.peek(target), checking.peek(target));
        }
        sched.commit(now, cmd);
        ++now;
    }
    for (const MtbAddress &addr : touched)
        ASSERT_EQ(trusting.peek(addr), checking.peek(addr));
    ASSERT_EQ(trusting.storedAddresses(), checking.storedAddresses());
    // A clean stream raises nothing; a corrupted one must exercise
    // the device checks.
    if (flipRate == 0.0)
        EXPECT_EQ(alerts, 0u);
    else
        EXPECT_GT(alerts, 50u);
}

TEST_F(RankTest, TrustedEdgeMatchesFullCheck)
{
    // AIECC's device checks, then plain DDR4's (CAP + WCRC, no CSTC).
    cfg.parityMode = ParityMode::ECap;
    cfg.wcrcMode = WcrcMode::DataAddress;
    cfg.cstcEnabled = true;
    expectTrustedMatchesFullCheck(cfg, 0.0, 0x7E57);
    expectTrustedMatchesFullCheck(cfg, 0.05, 0x7E58);
    cfg.parityMode = ParityMode::Cap;
    cfg.wcrcMode = WcrcMode::Data;
    cfg.cstcEnabled = false;
    expectTrustedMatchesFullCheck(cfg, 0.0, 0x7E59);
    expectTrustedMatchesFullCheck(cfg, 0.05, 0x7E5A);
}

} // namespace
} // namespace aiecc
