/**
 * @file
 * Unit tests for the memory-controller model: legal scheduling, parity
 * and WCRC generation, the PHY read-FIFO skew semantics, and the
 * pin-corruptor fault hook.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "controller/controller.hh"

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

class ControllerTest : public ::testing::Test
{
  protected:
    RankConfig cfg;

    std::unique_ptr<DramRank> rank;
    std::unique_ptr<MemController> ctrl;

    void
    build()
    {
        rank = std::make_unique<DramRank>(cfg);
        ctrl = std::make_unique<MemController>(cfg, rank.get());
    }
};

TEST_F(ControllerTest, WriteReadRoundTrip)
{
    build();
    const Burst data = patternBurst(1);
    ctrl->issue(Command::act(0, 0, 7));
    ctrl->issue(Command::wr(0, 0, 2 << 3), data);
    auto rd = ctrl->issue(Command::rd(0, 0, 2 << 3));
    ASSERT_TRUE(rd.readBurst.has_value());
    EXPECT_EQ(*rd.readBurst, data);
}

TEST_F(ControllerTest, SchedulingRespectsTiming)
{
    build();
    const auto act = ctrl->issue(Command::act(0, 0, 7));
    const auto rd = ctrl->issue(Command::rd(0, 0, 0));
    EXPECT_GE(rd.when, act.when + cfg.timing.tRCD);
    const auto pre = ctrl->issue(Command::pre(0, 0));
    EXPECT_GE(pre.when, act.when + cfg.timing.tRAS);
    const auto act2 = ctrl->issue(Command::act(0, 0, 9));
    EXPECT_GE(act2.when, pre.when + cfg.timing.tRP);
    EXPECT_GE(act2.when, act.when + cfg.timing.tRC);
}

TEST_F(ControllerTest, CommandIndexIncrements)
{
    build();
    const auto a = ctrl->issue(Command::act(0, 0, 7));
    const auto b = ctrl->issue(Command::nop());
    EXPECT_EQ(a.cmdIndex, 0u);
    EXPECT_EQ(b.cmdIndex, 1u);
    EXPECT_EQ(ctrl->commandsIssued(), 2u);
}

TEST_F(ControllerTest, ParityDrivenWhenEnabled)
{
    cfg.parityMode = ParityMode::Cap;
    build();
    // A corrupted CMD/ADD pin must now be caught by the device.
    ctrl->setPinCorruptor([](uint64_t idx, PinWord &pins) {
        if (idx == 0)
            pins.flip(Pin::A5);
    });
    const IssueResult r = ctrl->issue(Command::act(0, 0, 7));
    ASSERT_TRUE(r.exec.alert.has_value());
    EXPECT_EQ(r.exec.alert->kind, AlertKind::CaParity);
    EXPECT_EQ(ctrl->alerts().count, 1u);
    EXPECT_FALSE(rank->bankOpen(0, 0));
}

TEST_F(ControllerTest, EWcrcCoversIntendedAddress)
{
    cfg.wcrcMode = WcrcMode::DataAddress;
    build();
    // Column corrupted in flight: device-side eWCRC check must fire.
    ctrl->setPinCorruptor([](uint64_t idx, PinWord &pins) {
        if (idx == 1)
            pins.flip(Pin::A3);
    });
    ctrl->issue(Command::act(0, 0, 7));
    const IssueResult r =
        ctrl->issue(Command::wr(0, 0, 2 << 3), patternBurst(2));
    ASSERT_TRUE(r.exec.alert.has_value());
    EXPECT_EQ(r.exec.alert->kind, AlertKind::Wcrc);
    EXPECT_EQ(ctrl->alerts().count, 1u);
}

TEST_F(ControllerTest, WrtBitsStaySynchronized)
{
    cfg.parityMode = ParityMode::ECap;
    build();
    ctrl->issue(Command::act(0, 0, 7));
    EXPECT_EQ(ctrl->wrtBit(), rank->wrtBit());
    ctrl->issue(Command::wr(0, 0, 0), patternBurst(3));
    EXPECT_EQ(ctrl->wrtBit(), rank->wrtBit());
    EXPECT_TRUE(ctrl->wrtBit());
    ctrl->issue(Command::wr(0, 0, 1 << 3), patternBurst(4));
    EXPECT_EQ(ctrl->wrtBit(), rank->wrtBit());
    EXPECT_FALSE(ctrl->wrtBit());
    EXPECT_TRUE(ctrl->alerts().empty());
}

TEST_F(ControllerTest, MissingWriteDesynchronizesWrtAndIsDetected)
{
    cfg.parityMode = ParityMode::ECap;
    build();
    ctrl->issue(Command::act(0, 0, 7));
    // Lose the WR via a CS flip.
    ctrl->setPinCorruptor([](uint64_t idx, PinWord &pins) {
        if (idx == 1)
            pins.flip(Pin::CS);
    });
    ctrl->issue(Command::wr(0, 0, 2 << 3), patternBurst(5));
    EXPECT_TRUE(ctrl->alerts().empty());
    EXPECT_NE(ctrl->wrtBit(), rank->wrtBit());
    // The next command is flagged by eCAP.
    const IssueResult r = ctrl->issue(Command::rd(0, 0, 2 << 3));
    ASSERT_TRUE(r.exec.alert.has_value());
    EXPECT_EQ(r.exec.alert->kind, AlertKind::CaParity);
}

TEST_F(ControllerTest, MissingReadUnderflowsFifo)
{
    build();
    const Burst data = patternBurst(6);
    ctrl->issue(Command::act(0, 0, 7));
    ctrl->issue(Command::wr(0, 0, 2 << 3), data);
    // The RD is lost in flight: the DRAM never drives data, and the
    // controller pops a stale PHY entry instead.
    ctrl->setPinCorruptor([](uint64_t idx, PinWord &pins) {
        if (idx == 2)
            pins.flip(Pin::CS);
    });
    auto rd = ctrl->issue(Command::rd(0, 0, 2 << 3));
    ASSERT_TRUE(rd.readBurst.has_value());
    EXPECT_NE(*rd.readBurst, data);
    EXPECT_EQ(ctrl->readFifoDepth(), 0u);
}

TEST_F(ControllerTest, ExtraReadSkewsFifoPointer)
{
    build();
    const Burst dataA = patternBurst(7);
    const Burst dataB = patternBurst(8);
    ctrl->issue(Command::act(0, 0, 7));
    ctrl->issue(Command::wr(0, 0, 2 << 3), dataA);
    ctrl->issue(Command::wr(0, 0, 3 << 3), dataB);
    // A NOP is altered into a RD of column 2<<3 (extra read): the
    // device pushes a burst the controller does not expect.
    ctrl->setPinCorruptor([](uint64_t idx, PinWord &pins) {
        if (idx == 3) {
            // Rewrite the NOP into a RD col 2<<3 on bank 0.
            pins = encodeCommand(Command::rd(0, 0, 2 << 3));
        }
    });
    ctrl->issue(Command::nop());
    EXPECT_EQ(ctrl->readFifoDepth(), 1u);
    // The controller's next intended RD of column 3 pops the extra
    // entry: data for column 2 arrives instead.
    auto rd = ctrl->issue(Command::rd(0, 0, 3 << 3));
    ASSERT_TRUE(rd.readBurst.has_value());
    EXPECT_EQ(*rd.readBurst, dataA);
}

TEST_F(ControllerTest, OdtErrorCorruptsWriteData)
{
    build();
    const Burst data = patternBurst(9);
    ctrl->issue(Command::act(0, 0, 7));
    ctrl->setPinCorruptor([](uint64_t idx, PinWord &pins) {
        if (idx == 1)
            pins.flip(Pin::ODT);
    });
    ctrl->issue(Command::wr(0, 0, 2 << 3), data);
    auto rd = ctrl->issue(Command::rd(0, 0, 2 << 3));
    ASSERT_TRUE(rd.readBurst.has_value());
    EXPECT_NE(*rd.readBurst, data);
}

TEST_F(ControllerTest, CorruptorOnlyHitsTargetEdge)
{
    build();
    int hits = 0;
    ctrl->setPinCorruptor([&hits](uint64_t idx, PinWord &) {
        if (idx == 1)
            ++hits;
    });
    ctrl->issue(Command::act(0, 0, 7));
    ctrl->issue(Command::nop());
    ctrl->issue(Command::nop());
    EXPECT_EQ(hits, 1);
}

TEST_F(ControllerTest, AlertArrivesOnItsOwnEdge)
{
    cfg.parityMode = ParityMode::Cap;
    build();
    ctrl->setPinCorruptor([](uint64_t idx, PinWord &pins) {
        if (idx == 0)
            pins.flip(Pin::A0);
    });
    // The alert rides the result of the edge that raised it; the
    // controller keeps only a tally, so the next clean edge has none.
    EXPECT_TRUE(ctrl->issue(Command::act(0, 0, 7)).exec.alert);
    EXPECT_FALSE(ctrl->issue(Command::act(0, 1, 7)).exec.alert);
    EXPECT_EQ(ctrl->alerts().count, 1u);
}

} // namespace
} // namespace aiecc
