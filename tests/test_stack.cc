/**
 * @file
 * Integration tests for the composed protection stack: the end-to-end
 * scenarios of Figure 3 (read/write address errors, duplicate ACT)
 * under each protection level, checking which mechanism detects what.
 */

#include <algorithm>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "aiecc/cost_model.hh"
#include "aiecc/stack.hh"
#include "common/rng.hh"
#include "obs/memprof.hh"
#include "obs/observer.hh"
#include "ras/health.hh"

namespace aiecc
{
namespace
{

BitVec
randomData(Rng &rng)
{
    BitVec d(Burst::dataBits);
    for (size_t i = 0; i < d.size(); ++i)
        d.set(i, rng.chance(0.5));
    return d;
}

StackConfig
configFor(ProtectionLevel level)
{
    StackConfig cfg;
    cfg.mech = Mechanisms::forLevel(level);
    return cfg;
}

class StackLevels : public ::testing::TestWithParam<ProtectionLevel>
{
};

TEST_P(StackLevels, WriteReadRoundTrip)
{
    ProtectionStack stack(configFor(GetParam()));
    Rng rng(0x57ACC);
    for (int i = 0; i < 10; ++i) {
        MtbAddress addr{0, static_cast<unsigned>(rng.below(4)),
                        static_cast<unsigned>(rng.below(4)),
                        static_cast<unsigned>(rng.below(1u << 10)),
                        static_cast<unsigned>(rng.below(128))};
        const BitVec d = randomData(rng);
        stack.write(addr, d);
        const auto out = stack.read(addr);
        EXPECT_EQ(out.data, d);
        EXPECT_FALSE(out.due);
    }
    EXPECT_TRUE(stack.detections().empty());
}

INSTANTIATE_TEST_SUITE_P(
    Levels, StackLevels,
    ::testing::Values(ProtectionLevel::None, ProtectionLevel::Ddr4Decc,
                      ProtectionLevel::Ddr4EDecc, ProtectionLevel::Aiecc),
    [](const auto &info) { return protectionLevelName(info.param); });

/**
 * Reference never-written fill: eight Rng words set field by field
 * into a 512-bit payload, then encode().  The stack's fill must give
 * the same bytes by laying the words into the data pins directly.
 */
Burst
referenceFill(const DataEcc *ecc, uint32_t packedAddr)
{
    Rng fillRng(0xF177ULL ^ (static_cast<uint64_t>(packedAddr) << 13));
    BitVec data(Burst::dataBits);
    for (size_t i = 0; i < data.size(); i += 64)
        data.setField(i, std::min<size_t>(64, data.size() - i),
                      fillRng.next());
    if (ecc)
        return ecc->encode(data, packedAddr);
    Burst raw;
    raw.setData(data);
    return raw;
}

void
expectFillMatchesReference(const StackConfig &cfg)
{
    ProtectionStack stack(cfg);
    const Geometry &geom = stack.geometry();
    Rng rng(0xF111 + static_cast<uint64_t>(cfg.mech.ecc));
    for (unsigned i = 0; i < 4096; ++i) {
        const MtbAddress addr{
            0, static_cast<unsigned>(rng.below(geom.numBankGroups())),
            static_cast<unsigned>(rng.below(geom.banksPerGroup())),
            static_cast<unsigned>(rng.below(geom.numRows())),
            static_cast<unsigned>(rng.below(1u << geom.mtbColBits()))};
        ASSERT_EQ(stack.rank().peek(addr),
                  referenceFill(stack.ecc(), addr.pack(geom)))
            << eccSchemeName(cfg.mech.ecc) << " " << addr.toString();
    }
}

TEST(Stack, NeverWrittenFillMatchesReference)
{
    // Every protection level, then the codecs no level uses (AMD,
    // eDECC-AMD, eDECC-t, Azul).
    for (ProtectionLevel level :
         {ProtectionLevel::None, ProtectionLevel::Ddr4Decc,
          ProtectionLevel::Ddr4EDecc, ProtectionLevel::Aiecc})
        expectFillMatchesReference(configFor(level));
    for (EccScheme scheme :
         {EccScheme::Amd, EccScheme::EDeccAmd,
          EccScheme::EDeccTransformQpc, EccScheme::AzulQpc}) {
        StackConfig cfg = configFor(ProtectionLevel::Aiecc);
        cfg.mech.ecc = scheme;
        expectFillMatchesReference(cfg);
    }
}

/** Flip one pin on one command edge. */
PinCorruptor
flipOn(uint64_t target, Pin pin)
{
    return [target, pin](uint64_t idx, PinWord &pins) {
        if (idx == target)
            pins.flip(pin);
    };
}

TEST(Stack, ReadAddressErrorEscapesDataOnlyEcc)
{
    // Figure 3a under DECC: the fetched wrong-location codeword is
    // valid, so the read silently returns the wrong data.
    ProtectionStack stack(configFor(ProtectionLevel::Ddr4Decc));
    Rng rng(1);
    const MtbAddress a{0, 0, 0, 7, 2};
    const MtbAddress b{0, 0, 0, 7, 2 ^ 1}; // column bit A3 flipped
    const BitVec dataA = randomData(rng);
    const BitVec dataB = randomData(rng);
    stack.write(a, dataA);
    stack.write(b, dataB);
    stack.clearDetections();

    // Corrupt the column of the next RD: A3 flips 2 -> 3.  CAP would
    // catch a 1-pin error, so flip two pins (A3 and A4: col 2 -> 7)
    // to model the 2-pin hole of Figure 7.
    const uint64_t next = stack.controller().commandsIssued();
    stack.setPinCorruptor([next](uint64_t idx, PinWord &pins) {
        if (idx == next) {
            pins.flip(Pin::A3);
            pins.flip(Pin::A4);
        }
    });
    const MtbAddress c{0, 0, 0, 7, 2 ^ 3};
    stack.write(c, randomData(rng)); // pre-populate 2^3 too
    stack.clearDetections();
    const auto out = stack.read(a);
    // DECC saw a perfectly valid codeword from the wrong location.
    EXPECT_FALSE(out.detected);
    EXPECT_NE(out.data, dataA); // silent data corruption
}

TEST(Stack, ReadAddressErrorDetectedAndDiagnosedByEDecc)
{
    ProtectionStack stack(configFor(ProtectionLevel::Ddr4EDecc));
    Rng rng(2);
    const MtbAddress a{0, 0, 0, 7, 2};
    const MtbAddress b{0, 0, 0, 7, 2 ^ 3};
    const BitVec dataA = randomData(rng);
    stack.write(a, dataA);
    stack.write(b, randomData(rng));
    stack.clearDetections();

    const uint64_t next = stack.controller().commandsIssued();
    stack.setPinCorruptor([next](uint64_t idx, PinWord &pins) {
        if (idx == next) {
            pins.flip(Pin::A3);
            pins.flip(Pin::A4);
        }
    });
    const auto out = stack.read(a);
    EXPECT_TRUE(out.detected);
    ASSERT_FALSE(stack.detections().empty());
    const auto &ev = stack.detections().back();
    EXPECT_EQ(ev.mech, Mechanism::EDecc);
    EXPECT_TRUE(ev.addressError);
    ASSERT_TRUE(ev.diagnosedAddress.has_value());
    // The diagnosis reveals the address DRAM actually used: b.
    Geometry geom;
    EXPECT_EQ(*ev.diagnosedAddress, b.pack(geom));
}

TEST(Stack, WriteAddressErrorCaughtEarlyByEWcrc)
{
    // Figure 3b under AIECC: the wrong-column write is blocked before
    // the array is touched.
    ProtectionStack stack(configFor(ProtectionLevel::Aiecc));
    Rng rng(3);
    const MtbAddress a{0, 0, 0, 7, 2};
    const MtbAddress wrong{0, 0, 0, 7, 2 ^ 3};
    const BitVec wrongData = randomData(rng);
    stack.write(a, randomData(rng));
    stack.write(wrong, wrongData);
    stack.clearDetections();

    const BitVec fresh = randomData(rng);
    const uint64_t next = stack.controller().commandsIssued();
    stack.setPinCorruptor([next](uint64_t idx, PinWord &pins) {
        if (idx == next) {
            pins.flip(Pin::A3);
            pins.flip(Pin::A4);
        }
    });
    stack.write(a, fresh); // bank already open: plain WR edge
    ASSERT_FALSE(stack.detections().empty());
    const auto &ev = stack.detections().front();
    EXPECT_EQ(ev.mech, Mechanism::EWcrc);
    EXPECT_TRUE(ev.early);

    // Nothing was corrupted: the would-be victim is intact.
    stack.setPinCorruptor({});
    stack.clearDetections();
    const auto outWrong = stack.read(wrong);
    EXPECT_FALSE(outWrong.detected);
    EXPECT_EQ(outWrong.data, wrongData);
}

TEST(Stack, WriteAddressErrorEscapesPlainWcrcCausingLatentMdc)
{
    // The same scenario under DDR4+DECC: WCRC covers only data, the
    // write lands at the wrong column, and *both* locations are now
    // wrong — yet every later read returns valid codewords (SDC).
    ProtectionStack stack(configFor(ProtectionLevel::Ddr4Decc));
    Rng rng(4);
    const MtbAddress a{0, 0, 0, 7, 2};
    const MtbAddress b{0, 0, 0, 7, 2 ^ 3};
    const BitVec oldA = randomData(rng);
    const BitVec oldB = randomData(rng);
    stack.write(a, oldA);
    stack.write(b, oldB);

    const BitVec fresh = randomData(rng);
    const uint64_t next = stack.controller().commandsIssued();
    stack.setPinCorruptor([next](uint64_t idx, PinWord &pins) {
        if (idx == next) {
            pins.flip(Pin::A3);
            pins.flip(Pin::A4);
        }
    });
    stack.write(a, fresh);
    stack.setPinCorruptor({});
    stack.clearDetections();

    const auto outA = stack.read(a);
    const auto outB = stack.read(b);
    EXPECT_FALSE(outA.detected);
    EXPECT_FALSE(outB.detected);
    EXPECT_EQ(outA.data, oldA);  // stale data consumed silently
    EXPECT_EQ(outB.data, fresh); // overwritten location
}

TEST(Stack, DuplicateActBlockedByCstc)
{
    ProtectionStack stack(configFor(ProtectionLevel::Aiecc));
    Rng rng(5);
    const MtbAddress a{0, 0, 0, 10, 1};
    const MtbAddress vic{0, 0, 0, 20, 1};
    const BitVec victimData = randomData(rng);
    stack.write(vic, victimData);
    stack.write(a, randomData(rng)); // closes row 20, opens row 10
    stack.clearDetections();

    // An in-flight row-bit error turns "ACT row 20" into "ACT row 20^16"
    // while bank 0 is still open at row 10... simpler: inject an ACT
    // to the open bank directly by corrupting a NOP edge into an ACT.
    const uint64_t next = stack.controller().commandsIssued();
    stack.setPinCorruptor([next](uint64_t idx, PinWord &pins) {
        if (idx == next) {
            pins = encodeCommand(Command::act(0, 0, 20));
            driveParity(pins, false); // device WRT is false here
        }
    });
    stack.issueNop();
    ASSERT_FALSE(stack.detections().empty());
    EXPECT_EQ(stack.detections().front().mech, Mechanism::Cstc);

    // Row 20 was protected from the Figure 3c copy-over.
    stack.setPinCorruptor({});
    stack.clearDetections();
    const auto out = stack.read(vic);
    EXPECT_EQ(out.data, victimData);
}

TEST(Stack, DuplicateActCorruptsWithoutCstc)
{
    ProtectionStack stack(configFor(ProtectionLevel::Ddr4EDecc));
    Rng rng(6);
    const MtbAddress a{0, 0, 0, 10, 1};
    const MtbAddress vic{0, 0, 0, 20, 1};
    const BitVec victimData = randomData(rng);
    stack.write(vic, victimData);
    stack.write(a, randomData(rng));
    stack.clearDetections();

    const uint64_t next = stack.controller().commandsIssued();
    stack.setPinCorruptor([next](uint64_t idx, PinWord &pins) {
        if (idx == next) {
            auto act = encodeCommand(Command::act(0, 0, 20));
            driveParity(act, false); // valid parity: CAP is blind
            pins = act;
        }
    });
    stack.issueNop();
    stack.setPinCorruptor({});
    stack.clearDetections();

    // Row 20 now holds row 10's content; eDECC flags the read because
    // the copied codeword is bound to the wrong address (DUE, not SDC).
    const auto out = stack.read(vic);
    EXPECT_TRUE(out.detected);
    EXPECT_NE(out.data, victimData);
}

TEST(Stack, MissingWriteDetectedOnlyByECap)
{
    for (ProtectionLevel level :
         {ProtectionLevel::Ddr4EDecc, ProtectionLevel::Aiecc}) {
        ProtectionStack stack(configFor(level));
        Rng rng(7);
        const MtbAddress a{0, 0, 0, 7, 2};
        stack.write(a, randomData(rng));
        stack.clearDetections();

        // The WR is deselected in flight: a missing write.
        const uint64_t next = stack.controller().commandsIssued();
        stack.setPinCorruptor(flipOn(next, Pin::CS));
        stack.write(a, randomData(rng));
        stack.setPinCorruptor({});
        // Issue a following command so eCAP can compare WRT state.
        stack.issueNop();

        const bool detected = !stack.detections().empty();
        if (level == ProtectionLevel::Aiecc) {
            ASSERT_TRUE(detected);
            EXPECT_EQ(stack.detections().front().mech, Mechanism::ECap);
        } else {
            // DDR4+eDECC has no WRT: the lost write is invisible
            // (Section IV-D's motivating hole).
            EXPECT_FALSE(detected);
        }
    }
}

TEST(Stack, MissingReadDetectedByEDeccViaFifoSkew)
{
    ProtectionStack stack(configFor(ProtectionLevel::Ddr4EDecc));
    Rng rng(8);
    const MtbAddress a{0, 0, 0, 7, 2};
    stack.write(a, randomData(rng));
    stack.clearDetections();

    const uint64_t next = stack.controller().commandsIssued();
    stack.setPinCorruptor(flipOn(next, Pin::CS)); // RD lost in flight
    const auto out = stack.read(a);
    EXPECT_TRUE(out.detected);
    ASSERT_FALSE(stack.detections().empty());
    EXPECT_EQ(stack.detections().back().mech, Mechanism::EDecc);
}

TEST(Stack, UnprotectedStackSeesNothing)
{
    ProtectionStack stack(configFor(ProtectionLevel::None));
    Rng rng(9);
    const MtbAddress a{0, 0, 0, 7, 2};
    const BitVec d = randomData(rng);
    stack.write(a, d);
    const uint64_t next = stack.controller().commandsIssued();
    stack.setPinCorruptor(flipOn(next, Pin::A3));
    const auto out = stack.read(a); // fetches the wrong column
    EXPECT_FALSE(out.detected);
    EXPECT_TRUE(stack.detections().empty());
    EXPECT_NE(out.data, d);
}

TEST(Stack, RecoverRealignsControllerAndDevice)
{
    // Desynchronize everything a CCCA error can desynchronize —
    // WRT, the PHY FIFO, and the open-row belief — then recover().
    ProtectionStack stack(configFor(ProtectionLevel::Aiecc));
    Rng rng(10);
    const MtbAddress a{0, 0, 0, 7, 2};
    const BitVec d = randomData(rng);
    stack.write(a, d);

    // Lose a WR (WRT desync) and a RD (FIFO underflow) in flight.
    const uint64_t base = stack.controller().commandsIssued();
    stack.setPinCorruptor([base](uint64_t idx, PinWord &pins) {
        if (idx == base || idx == base + 1)
            pins.flip(Pin::CS);
    });
    stack.write(a, randomData(rng));
    stack.read(a);
    stack.setPinCorruptor({});
    EXPECT_FALSE(stack.detections().empty());

    stack.recover();
    stack.clearDetections();
    const BitVec fresh = randomData(rng);
    stack.write(a, fresh);
    const auto out = stack.read(a);
    EXPECT_TRUE(stack.detections().empty());
    EXPECT_EQ(out.data, fresh);
}

TEST(Stack, MechanismDescriptions)
{
    EXPECT_EQ(Mechanisms::forLevel(ProtectionLevel::None).describe(),
              "unprotected");
    EXPECT_EQ(Mechanisms::forLevel(ProtectionLevel::Aiecc).describe(),
              "eCAP+eWCRC+CSTC+QPC+eDECC-c");
    EXPECT_EQ(Mechanisms::forLevel(ProtectionLevel::Ddr4Decc).describe(),
              "CAP+WCRC+QPC");
}

TEST(Stack, AlertsLeaveNoLiveHeapBehind)
{
    // An unobserved AIECC stack under steady CCCA pin flips over a
    // small address set: once the stored rows, the detection log's
    // capacity and the recovery buffers have warmed up, live heap
    // bytes must stop growing.  Each alert is consumed on the edge
    // that raised it; nothing keeps a log of them.
    ProtectionStack stack(configFor(ProtectionLevel::Aiecc));
    Rng noise(0xF1195);
    stack.setPinCorruptor([&noise](uint64_t, PinWord &pins) {
        if (noise.chance(0.05))
            pins.flip(static_cast<Pin>(noise.below(numCccaPins)));
    });
    Rng rng(0x4EA9);
    const BitVec payload = randomData(rng);
    const auto pass = [&](unsigned accesses) {
        for (unsigned i = 0; i < accesses; ++i) {
            const MtbAddress addr{0, i % 2, (i / 2) % 2, (i / 4) % 2,
                                  (i / 8) % 4};
            if (i % 3 == 0)
                stack.write(addr, payload);
            else
                stack.read(addr);
            stack.clearDetections();
        }
    };
    const auto liveBytes = [] {
        const auto t = obs::memprof::processTotals();
        return static_cast<int64_t>(t.allocBytes - t.freeBytes);
    };
    pass(4000);
    const int64_t warm = liveBytes();
    pass(20000);
    // Slack: one container doubling that warm-up did not reach.
    const int64_t slack = 16 * 1024;
    EXPECT_LT(liveBytes() - warm, slack)
        << "live heap grew by " << liveBytes() - warm << " bytes";
    EXPECT_GT(stack.recoveryStats().episodes, 100u);
}

TEST(Stack, UnobservedAccessPathAllocatesNothing)
{
    // A fresh unobserved AIECC stack under steady CCCA pin flips: the
    // detection log is sized at construction, so no stack.read/write
    // call may touch the heap, not even the first ones to detect.
    ProtectionStack stack(configFor(ProtectionLevel::Aiecc));
    Rng noise(0x0B5E4);
    stack.setPinCorruptor([&noise](uint64_t, PinWord &pins) {
        if (noise.chance(0.05))
            pins.flip(static_cast<Pin>(noise.below(numCccaPins)));
    });
    Rng rng(0x4EA9);
    const BitVec payload = randomData(rng);
    uint64_t allocs = 0;
    size_t detections = 0;
    for (unsigned i = 0; i < 2000; ++i) {
        const MtbAddress addr{0, i % 2, (i / 2) % 2, (i / 4) % 2,
                              (i / 8) % 4};
        const uint64_t before = obs::memprof::threadAllocs();
        if (i % 3 == 0)
            stack.write(addr, payload);
        else
            stack.read(addr);
        allocs += obs::memprof::threadAllocs() - before;
        detections += stack.detections().size();
        stack.clearDetections();
    }
    EXPECT_EQ(allocs, 0u);
    EXPECT_GT(detections, 100u);
}

TEST(Stack, ObservedAccessPathAllocatesNothingOnceWarm)
{
    // A fully observed AIECC stack — stats, cost, lineage, a JSONL
    // trace and a RAS health monitor — with recovery on under steady
    // CCCA pin flips: once warm, no stack.read/write call may touch
    // the heap, recovery episodes included.
    const std::string path =
        ::testing::TempDir() + "/aiecc_test_stack_allocs.jsonl";
    {
        obs::StatsRegistry stats;
        obs::CostAccountant cost(
            makeCostModel(Mechanisms::forLevel(ProtectionLevel::Aiecc)));
        obs::LineageLedger lineage;
        obs::Observer observer(&stats);
        observer.setCost(&cost);
        observer.setLineage(&lineage);
        obs::JsonlTraceSink trace(path);
        ASSERT_TRUE(trace.ok());
        observer.addSink(&trace);
        ras::HealthMonitor monitor;
        observer.addSink(&monitor);
        monitor.setObserver(&observer);

        StackConfig cfg = configFor(ProtectionLevel::Aiecc);
        cfg.recovery.enabled = true;
        cfg.observer = &observer;
        ProtectionStack stack(cfg);
        Rng noise(0xA110C);
        stack.setPinCorruptor([&noise](uint64_t, PinWord &pins) {
            if (noise.chance(0.05))
                pins.flip(static_cast<Pin>(noise.below(numCccaPins)));
        });

        // The bench's bounded working set: every bank, 64 rows, 128
        // columns, two thirds reads.
        Rng rng(0x2E2A);
        const Geometry &geom = stack.geometry();
        BitVec payload = randomData(rng);
        uint64_t allocs = 0;
        const auto pass = [&](unsigned accesses) {
            for (unsigned i = 0; i < accesses; ++i) {
                MtbAddress addr;
                addr.bg = static_cast<unsigned>(
                    rng.below(geom.numBankGroups()));
                addr.ba = static_cast<unsigned>(
                    rng.below(geom.banksPerGroup()));
                addr.row = static_cast<unsigned>(rng.below(64));
                addr.col = static_cast<unsigned>(rng.below(128));
                if (rng.chance(0.67)) {
                    const uint64_t before = obs::memprof::threadAllocs();
                    stack.read(addr);
                    allocs += obs::memprof::threadAllocs() - before;
                } else {
                    payload.setField(0, 64, rng.next());
                    const uint64_t before = obs::memprof::threadAllocs();
                    stack.write(addr, payload);
                    allocs += obs::memprof::threadAllocs() - before;
                }
                stack.clearDetections();
            }
        };
        pass(2000);
        allocs = 0;
        const uint64_t warmEpisodes = stack.recoveryStats().episodes;
        pass(20000);
        EXPECT_EQ(allocs, 0u);
        EXPECT_GT(stack.recoveryStats().episodes - warmEpisodes, 100u);
        EXPECT_GT(trace.recorded(), 0u);
        EXPECT_EQ(trace.dropped(), 0u);
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace aiecc
