/**
 * @file
 * Unit tests for the CRC engines, including the burst-error detection
 * guarantee that underpins the eWCRC coverage claims (Section IV-B).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "crc/crc.hh"
#include "dram/rank.hh"

namespace aiecc
{
namespace
{

TEST(Crc, ZeroMessageHasZeroCrc)
{
    EXPECT_EQ(Crc::ddr4Crc8().compute(BitVec(64)), 0u);
    EXPECT_EQ(Crc::azulCrc4().compute(BitVec(32)), 0u);
}

TEST(Crc, Linearity)
{
    // CRC over GF(2) is linear: crc(a ^ b) == crc(a) ^ crc(b).
    Rng rng(61);
    const Crc &crc = Crc::ddr4Crc8();
    for (int i = 0; i < 200; ++i) {
        BitVec a(72), b(72);
        for (size_t j = 0; j < 72; ++j) {
            a.set(j, rng.chance(0.5));
            b.set(j, rng.chance(0.5));
        }
        EXPECT_EQ(crc.compute(a ^ b), crc.compute(a) ^ crc.compute(b));
    }
}

TEST(Crc, WordAndVectorAgree)
{
    // Byte-aligned lengths take the slice tables, the rest the bit
    // loop; both must equal the bit-serial reference.
    const struct
    {
        unsigned width;
        uint32_t poly;
    } engines[] = {
        {1, 0x1}, {4, 0x3}, {8, 0x07}, {16, 0x1021}, {32, 0x04C11DB7},
    };
    Rng rng(66);
    for (const auto &e : engines) {
        const Crc crc(e.width, e.poly);
        for (unsigned nbits = 0; nbits <= 64; ++nbits) {
            for (int i = 0; i < 50; ++i) {
                const uint64_t v = rng.next();
                ASSERT_EQ(crc.computeWord(v, nbits),
                          crc.compute(BitVec(nbits, v)))
                    << "width " << e.width << " nbits " << nbits;
            }
        }
    }
}

TEST(Crc, AddressTermSplitsOffLinearly)
{
    // eWCRC hoists the address term: with a zero initial register the
    // lane's 32-bit CRC equals its 64-bit CRC (leading zero bytes), so
    // the 64-bit word's CRC is the XOR of the two halves' CRCs.
    const Crc &crc = Crc::ddr4Crc8();
    Rng rng(67);
    for (int i = 0; i < 10000; ++i) {
        const uint64_t lane = rng.next() & 0xFFFFFFFFu;
        const uint64_t a = rng.next() & 0xFFFFFFFFu;
        ASSERT_EQ(crc.computeWord(lane | a << 32, 64),
                  crc.computeWord(lane, 32) ^ crc.computeWord(a << 32, 64));
    }
}

TEST(Crc, LaneCrcsMatchPerChipWords)
{
    // The shared 18-lane function against one full-width CRC per chip.
    const Crc &crc = Crc::ddr4Crc8();
    Rng rng(68);
    for (WcrcMode mode : {WcrcMode::Data, WcrcMode::DataAddress}) {
        for (int i = 0; i < 2000; ++i) {
            Burst b;
            b.randomize(rng);
            const uint32_t addr = static_cast<uint32_t>(rng.next());
            const uint64_t addrField =
                mode == WcrcMode::DataAddress
                    ? static_cast<uint64_t>(addr) << 32
                    : 0;
            const auto got = laneCrcs(b, mode, addr);
            for (unsigned chip = 0; chip < Burst::numChips; ++chip) {
                const uint64_t word = b.chipWord(chip) | addrField;
                ASSERT_EQ(got[chip], crc.computeWord(word, 64))
                    << "chip " << chip;
                ASSERT_EQ(got[chip], crc.compute(BitVec(64, word)))
                    << "chip " << chip;
            }
        }
    }
}

TEST(Crc, DetectsAllSingleBitErrors)
{
    const Crc &crc = Crc::ddr4Crc8();
    const BitVec msg(64, 0x0123456789ABCDEFULL);
    const uint32_t good = crc.compute(msg);
    for (size_t i = 0; i < 64; ++i) {
        BitVec bad = msg;
        bad.flip(i);
        EXPECT_NE(crc.compute(bad), good) << "bit " << i;
    }
}

TEST(Crc, Crc8DetectsAllBurstsUpTo8)
{
    // A CRC with degree 8 detects every burst of length <= 8; this is
    // the basis of the paper's "100% for <= 8 contiguous bits" claim.
    const Crc &crc = Crc::ddr4Crc8();
    Rng rng(63);
    BitVec msg(72);
    for (size_t j = 0; j < 72; ++j)
        msg.set(j, rng.chance(0.5));
    const uint32_t good = crc.compute(msg);

    for (unsigned blen = 1; blen <= 8; ++blen) {
        for (size_t start = 0; start + blen <= 72; ++start) {
            // Every burst pattern with the end bits set.
            for (unsigned inner = 0;
                 inner < (blen >= 3 ? 8u : 1u); ++inner) {
                BitVec bad = msg;
                bad.flip(start);
                bad.flip(start + blen - 1);
                if (blen >= 3) {
                    for (unsigned b = 0; b < blen - 2; ++b) {
                        if (rng.chance(0.5))
                            bad.flip(start + 1 + b);
                    }
                }
                if (bad == msg)
                    continue;
                EXPECT_NE(crc.compute(bad), good)
                    << "burst len " << blen << " at " << start;
            }
        }
    }
}

TEST(Crc, RandomErrorEscapeRateNear2PowMinus8)
{
    // For random garbage, an 8-bit CRC aliases ~1/256 of the time
    // (the paper's 99.6% coverage figure).
    const Crc &crc = Crc::ddr4Crc8();
    Rng rng(64);
    int aliases = 0;
    const int trials = 100000;
    for (int i = 0; i < trials; ++i) {
        BitVec delta(72);
        for (size_t j = 0; j < 72; ++j)
            delta.set(j, rng.chance(0.5));
        if (delta.zero())
            continue;
        if (crc.compute(delta) == 0)
            ++aliases;
    }
    const double rate = static_cast<double>(aliases) / trials;
    EXPECT_NEAR(rate, 1.0 / 256.0, 1.5e-3);
}

TEST(Crc, Crc4Properties)
{
    const Crc &crc = Crc::azulCrc4();
    EXPECT_EQ(crc.width(), 4u);
    // Detects single-bit errors in a 32-bit address.
    const BitVec addr(32, 0xCAFEBABE);
    const uint32_t good = crc.compute(addr);
    for (size_t i = 0; i < 32; ++i) {
        BitVec bad = addr;
        bad.flip(i);
        EXPECT_NE(crc.compute(bad), good);
    }
}

TEST(Crc, Crc4AliasRateNear1Of16)
{
    // Fully random wrong addresses alias with probability ~2^-4 =
    // 6.25%: the 6.3% SDC cell of Table III for the Azul baseline.
    const Crc &crc = Crc::azulCrc4();
    Rng rng(65);
    int alias = 0;
    const int trials = 200000;
    for (int i = 0; i < trials; ++i) {
        const uint32_t a = static_cast<uint32_t>(rng.next());
        uint32_t b = static_cast<uint32_t>(rng.next());
        if (a == b)
            b ^= 1;
        alias += crc.computeWord(a, 32) == crc.computeWord(b, 32);
    }
    EXPECT_NEAR(static_cast<double>(alias) / trials, 1.0 / 16.0, 2e-3);
}

TEST(Crc, EvenParityHelper)
{
    EXPECT_FALSE(evenParity(BitVec(24)));
    EXPECT_TRUE(evenParity(BitVec(24, 1)));
    EXPECT_FALSE(evenParity(BitVec(24, 3)));
}

TEST(Crc, WidthValidation)
{
    Crc c1(1, 0x1);
    EXPECT_EQ(c1.width(), 1u);
    Crc c32(32, 0x04C11DB7);
    EXPECT_EQ(c32.width(), 32u);
    // Parity as CRC-1: equals the even-parity bit.
    BitVec v(10, 0x155);
    EXPECT_EQ(c1.compute(v), v.parity() ? 1u : 0u);
}

} // namespace
} // namespace aiecc
