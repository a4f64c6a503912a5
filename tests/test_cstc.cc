/**
 * @file
 * Unit tests for the Command State and Timing Checker (Table I).
 */

#include <algorithm>
#include <iterator>
#include <string_view>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "dram/cstc.hh"

namespace aiecc
{
namespace
{

class CstcTest : public ::testing::Test
{
  protected:
    Geometry geom;
    TimingParams tp = TimingParams::ddr4_2400();
    Cstc cstc{geom, tp};
    Cycle now = 1000;

    /** Execute a command, asserting it is legal. */
    void
    run(const Command &cmd)
    {
        const char *why = cstc.checkFast(now, cmd);
        ASSERT_EQ(why, nullptr) << cmd.toString() << ": " << why;
        cstc.commit(now, cmd);
        ++now;
    }

    void wait(unsigned cycles) { now += cycles; }
};

TEST_F(CstcTest, ActOnIdleBankIsLegal)
{
    EXPECT_EQ(cstc.checkFast(now, Command::act(0, 0, 5)), nullptr);
}

TEST_F(CstcTest, ActOnOpenBankFlagged)
{
    run(Command::act(0, 0, 5));
    wait(tp.tRC);
    const char *v = cstc.checkFast(now, Command::act(0, 0, 9));
    ASSERT_NE(v, nullptr);
    EXPECT_NE(std::string_view(v).find("open bank"), std::string_view::npos);
}

TEST_F(CstcTest, RdWrOnIdleBankFlagged)
{
    EXPECT_NE(cstc.checkFast(now, Command::rd(0, 0, 0)), nullptr);
    EXPECT_NE(cstc.checkFast(now, Command::wr(0, 0, 0)), nullptr);
}

TEST_F(CstcTest, RdNeedsTrcd)
{
    run(Command::act(0, 0, 5));
    // Too early: tRCD not yet elapsed.
    EXPECT_NE(cstc.checkFast(now, Command::rd(0, 0, 0)), nullptr);
    wait(tp.tRCD);
    EXPECT_EQ(cstc.checkFast(now, Command::rd(0, 0, 0)), nullptr);
}

TEST_F(CstcTest, BackToBackActNeedsTrrd)
{
    run(Command::act(0, 0, 5));
    const char *v = cstc.checkFast(now, Command::act(1, 0, 5));
    ASSERT_NE(v, nullptr);
    EXPECT_NE(std::string_view(v).find("tRRD"), std::string_view::npos);
    wait(tp.tRRD);
    EXPECT_EQ(cstc.checkFast(now, Command::act(1, 0, 5)), nullptr);
}

TEST_F(CstcTest, FourActivateWindow)
{
    // Issue 4 ACTs as fast as tRRD allows, then check the 5th hits
    // the tFAW wall (tFAW > 4 * tRRD in our bin).
    ASSERT_GT(tp.tFAW, 3 * tp.tRRD);
    run(Command::act(0, 0, 1));
    wait(tp.tRRD - 1);
    run(Command::act(1, 0, 1));
    wait(tp.tRRD - 1);
    run(Command::act(2, 0, 1));
    wait(tp.tRRD - 1);
    run(Command::act(3, 0, 1));
    wait(tp.tRRD - 1);
    const char *v = cstc.checkFast(now, Command::act(0, 1, 1));
    ASSERT_NE(v, nullptr);
    EXPECT_NE(std::string_view(v).find("tFAW"), std::string_view::npos);
}

TEST_F(CstcTest, PreNeedsTras)
{
    run(Command::act(0, 0, 5));
    const char *v = cstc.checkFast(now, Command::pre(0, 0));
    ASSERT_NE(v, nullptr);
    EXPECT_NE(std::string_view(v).find("tRAS"), std::string_view::npos);
    wait(tp.tRAS);
    EXPECT_EQ(cstc.checkFast(now, Command::pre(0, 0)), nullptr);
}

TEST_F(CstcTest, PreOnIdleBankIsLegalNop)
{
    EXPECT_EQ(cstc.checkFast(now, Command::pre(0, 0)), nullptr);
}

TEST_F(CstcTest, ActAfterPreNeedsTrp)
{
    const Cycle actAt = now;
    run(Command::act(0, 0, 5));
    wait(tp.tRAS);
    const Cycle preAt = now;
    run(Command::pre(0, 0));
    // Probe at a time where tRC is satisfied but tRP is not (our bin
    // has tRC < tRAS + 1 + tRP, so such a window exists).
    ASSERT_LT(actAt + tp.tRC, preAt + tp.tRP);
    now = actAt + tp.tRC;
    const char *v = cstc.checkFast(now, Command::act(0, 0, 6));
    ASSERT_NE(v, nullptr);
    EXPECT_NE(std::string_view(v).find("tRP"), std::string_view::npos);
    now = preAt + tp.tRP;
    EXPECT_EQ(cstc.checkFast(now, Command::act(0, 0, 6)), nullptr);
}

TEST_F(CstcTest, RefWithOpenBankFlagged)
{
    run(Command::act(2, 1, 5));
    wait(tp.tRAS + tp.tRP);
    const char *v = cstc.checkFast(now, Command::ref());
    ASSERT_NE(v, nullptr);
    EXPECT_NE(std::string_view(v).find("open"), std::string_view::npos);
}

TEST_F(CstcTest, ActAfterRefNeedsTrfc)
{
    run(Command::ref());
    const char *v = cstc.checkFast(now, Command::act(0, 0, 1));
    ASSERT_NE(v, nullptr);
    EXPECT_NE(std::string_view(v).find("tRFC"), std::string_view::npos);
    wait(tp.tRFC);
    EXPECT_EQ(cstc.checkFast(now, Command::act(0, 0, 1)), nullptr);
}

TEST_F(CstcTest, ColumnCommandsNeedTccd)
{
    run(Command::act(0, 0, 5));
    wait(tp.tRCD);
    run(Command::rd(0, 0, 0));
    const char *v = cstc.checkFast(now, Command::rd(0, 0, 8));
    ASSERT_NE(v, nullptr);
    EXPECT_NE(std::string_view(v).find("tCCD"), std::string_view::npos);
    wait(tp.tCCD);
    EXPECT_EQ(cstc.checkFast(now, Command::rd(0, 0, 8)), nullptr);
}

TEST_F(CstcTest, WriteToReadNeedsTwtr)
{
    run(Command::act(0, 0, 5));
    wait(tp.tRCD);
    run(Command::wr(0, 0, 0));
    wait(tp.tCCD);
    // tCCD satisfied but write data is still in flight: tWTR blocks.
    const char *v = cstc.checkFast(now, Command::rd(0, 0, 8));
    ASSERT_NE(v, nullptr);
    EXPECT_NE(std::string_view(v).find("tWTR"), std::string_view::npos);
    wait(tp.writeLatency + tp.burstCycles + tp.tWTR);
    EXPECT_EQ(cstc.checkFast(now, Command::rd(0, 0, 8)), nullptr);
}

TEST_F(CstcTest, WriteToPreNeedsTwr)
{
    const Cycle actAt = now;
    run(Command::act(0, 0, 5));
    wait(tp.tRCD);
    const Cycle wrAt = now;
    run(Command::wr(0, 0, 0));
    const Cycle wrEnd = wrAt + tp.writeLatency + tp.burstCycles;
    // Probe with tRAS satisfied but the write-recovery window open.
    ASSERT_LT(actAt + tp.tRAS, wrEnd + tp.tWR);
    now = std::max<Cycle>(actAt + tp.tRAS, wrAt + 1);
    const char *v = cstc.checkFast(now, Command::pre(0, 0));
    ASSERT_NE(v, nullptr);
    EXPECT_NE(std::string_view(v).find("tWR"), std::string_view::npos);
    now = wrEnd + tp.tWR;
    EXPECT_EQ(cstc.checkFast(now, Command::pre(0, 0)), nullptr);
}

TEST_F(CstcTest, MrsZqcRfuFlaggedDuringOperation)
{
    run(Command::act(0, 0, 5));
    Command mrs;
    mrs.type = CmdType::Mrs;
    Command zqc;
    zqc.type = CmdType::Zqc;
    Command rfu;
    rfu.type = CmdType::Rfu;
    EXPECT_NE(cstc.checkFast(now, mrs), nullptr);
    EXPECT_NE(cstc.checkFast(now, zqc), nullptr);
    EXPECT_NE(cstc.checkFast(now, rfu), nullptr);
}

TEST_F(CstcTest, RfuAlwaysFlagged)
{
    Command rfu;
    rfu.type = CmdType::Rfu;
    EXPECT_NE(cstc.checkFast(now, rfu), nullptr);
}

TEST_F(CstcTest, NopAlwaysLegal)
{
    EXPECT_EQ(cstc.checkFast(now, Command::nop()), nullptr);
    run(Command::act(0, 0, 5));
    EXPECT_EQ(cstc.checkFast(now, Command::nop()), nullptr);
}

TEST_F(CstcTest, AutoPrechargeClosesBankInMirror)
{
    run(Command::act(0, 0, 5));
    wait(tp.tRCD);
    run(Command::rd(0, 0, 0, /*ap=*/true));
    EXPECT_FALSE(cstc.bankOpen(0));
    // A further RD now hits an idle bank.
    wait(tp.tCCD);
    EXPECT_NE(cstc.checkFast(now, Command::rd(0, 0, 8)), nullptr);
}

TEST_F(CstcTest, PreAllClosesEverything)
{
    run(Command::act(0, 0, 5));
    wait(tp.tRRD);
    run(Command::act(1, 1, 7));
    wait(tp.tRAS);
    run(Command::preAll());
    EXPECT_FALSE(cstc.bankOpen(0));
    EXPECT_FALSE(cstc.bankOpen(1 * 4 + 1));
}

/** A command of @p type on a random bank (random operands). */
Command
randomCommand(CmdType type, Rng &rng)
{
    Command cmd;
    cmd.type = type;
    cmd.bg = static_cast<unsigned>(rng.below(4));
    cmd.ba = static_cast<unsigned>(rng.below(4));
    cmd.row = static_cast<unsigned>(rng.below(16));
    cmd.col = static_cast<unsigned>(rng.below(16)) << Geometry::burstBits;
    cmd.autoPrecharge = rng.chance(0.2);
    return cmd;
}

TEST(Cstc, EarliestLegalMatchesCycleScan)
{
    // earliestLegal() must name exactly the cycle a cycle-by-cycle
    // scan of checkFast() stops at, and `now` for a state violation
    // no wait can clear; the controller schedules every command with
    // one earliestLegal() and a single confirming checkFast().
    const Geometry geom;
    const TimingParams tp = TimingParams::ddr4_2400();
    const unsigned bound = tp.tRFC + tp.tRC + tp.tFAW + 64;
    const CmdType types[] = {
        CmdType::Des, CmdType::Nop, CmdType::Act, CmdType::Rd,
        CmdType::Wr,  CmdType::Pre, CmdType::PreAll, CmdType::Ref,
        CmdType::Mrs, CmdType::Zqc, CmdType::Rfu};
    unsigned waits = 0, stuck = 0;
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        Cstc cstc(geom, tp);
        Rng rng(0xEA51 + seed);
        Cycle now = 1000;
        for (unsigned step = 0; step < 1500; ++step) {
            for (CmdType type : types) {
                const Command cmd = randomCommand(type, rng);
                Cycle scan = now;
                while (scan <= now + bound && cstc.checkFast(scan, cmd))
                    ++scan;
                const Cycle expected = scan <= now + bound ? scan : now;
                ASSERT_EQ(cstc.earliestLegal(now, cmd), expected)
                    << cmd.toString() << " at " << now;
                waits += expected > now;
                stuck += scan > now + bound;
            }
            // Grow a legal history: a random command at a random gap,
            // committed only if it is legal there.
            now += rng.below(24);
            const Command next = randomCommand(
                types[rng.below(std::size(types))], rng);
            if (!cstc.checkFast(now, next))
                cstc.commit(now, next);
        }
    }
    // Both branches of the contract must have been exercised.
    EXPECT_GT(waits, 1000u);
    EXPECT_GT(stuck, 1000u);
}

} // namespace
} // namespace aiecc
