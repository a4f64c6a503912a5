/**
 * @file
 * Unit tests for DRAM geometry and the 32-bit MTB address packing.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "ddr4/address.hh"
#include "ddr4/burst.hh"

namespace aiecc
{
namespace
{

TEST(Geometry, DefaultIs32BitMtbAddress)
{
    Geometry g;
    EXPECT_EQ(g.mtbAddressBits(), 32u);
    EXPECT_EQ(g.numBanks(), 16u);
    EXPECT_EQ(g.numBankGroups(), 4u);
    EXPECT_EQ(g.banksPerGroup(), 4u);
    EXPECT_EQ(g.mtbColBits(), 7u);
}

TEST(MtbAddress, PackUnpackRoundTrip)
{
    Geometry g;
    Rng rng(81);
    for (int i = 0; i < 500; ++i) {
        MtbAddress a;
        a.rank = static_cast<unsigned>(rng.below(8));
        a.bg = static_cast<unsigned>(rng.below(4));
        a.ba = static_cast<unsigned>(rng.below(4));
        a.row = static_cast<unsigned>(rng.below(1u << 18));
        a.col = static_cast<unsigned>(rng.below(128));
        EXPECT_EQ(MtbAddress::unpack(a.pack(g), g), a);
    }
}

TEST(MtbAddress, PackIsInjective)
{
    Geometry g;
    MtbAddress a{1, 2, 3, 100, 5};
    MtbAddress b = a;
    b.col = 6;
    EXPECT_NE(a.pack(g), b.pack(g));
    b = a;
    b.row = 101;
    EXPECT_NE(a.pack(g), b.pack(g));
    b = a;
    b.ba = 0;
    EXPECT_NE(a.pack(g), b.pack(g));
}

TEST(MtbAddress, FlatBank)
{
    Geometry g;
    MtbAddress a{0, 3, 2, 0, 0};
    EXPECT_EQ(a.flatBank(g), 3u * 4u + 2u);
}

TEST(Burst, DataCheckRoundTrip)
{
    Rng rng(82);
    Burst b;
    b.randomize(rng);
    const BitVec d = b.data();
    const BitVec c = b.check();
    EXPECT_EQ(d.size(), 512u);
    EXPECT_EQ(c.size(), 64u);
    Burst b2;
    b2.setData(d);
    b2.setCheck(c);
    EXPECT_EQ(b2, b);
}

TEST(Burst, DataMatchesFieldMarshaling)
{
    // data()/setData() against the word-at-a-time setField/getField
    // form: pin byte 8w + b is bits 8b..8b+7 of payload word w.
    Rng rng(86);
    for (int i = 0; i < 200; ++i) {
        Burst b;
        b.randomize(rng);
        BitVec want(Burst::dataBits);
        for (unsigned w = 0; w < Burst::dataPins / 8; ++w) {
            uint64_t v = 0;
            for (unsigned k = 0; k < 8; ++k)
                v |= static_cast<uint64_t>(b.pinBits[w * 8 + k]) << (8 * k);
            want.setField(w * 64, 64, v);
        }
        ASSERT_EQ(b.data(), want);

        BitVec d(Burst::dataBits);
        for (size_t pos = 0; pos < d.size(); pos += 64)
            d.setField(pos, 64, rng.next());
        Burst set = b;
        set.setData(d);
        for (unsigned w = 0; w < Burst::dataPins / 8; ++w) {
            const uint64_t v = d.getField(w * 64, 64);
            for (unsigned k = 0; k < 8; ++k)
                ASSERT_EQ(set.pinBits[w * 8 + k],
                          static_cast<uint8_t>(v >> (8 * k)));
        }
        // The check pins are untouched.
        for (unsigned p = Burst::dataPins; p < Burst::numPins; ++p)
            ASSERT_EQ(set.pinBits[p], b.pinBits[p]);
    }
}

TEST(Burst, PinSymbolIsDataByte)
{
    Burst b;
    BitVec d(512);
    d.setField(8 * 10, 8, 0xAB); // data byte 10
    b.setData(d);
    EXPECT_EQ(b.pinSymbol(10), 0xAB);
    EXPECT_EQ(b.pinSymbol(9), 0x00);
}

TEST(Burst, AmdSymbolRoundTrip)
{
    Rng rng(83);
    Burst b;
    for (unsigned chip = 0; chip < Burst::numChips; ++chip) {
        for (unsigned word = 0; word < 4; ++word) {
            const GfElem s = static_cast<GfElem>(rng.below(256));
            b.setAmdSymbol(chip, word, s);
            EXPECT_EQ(b.amdSymbol(chip, word), s);
        }
    }
}

TEST(Burst, AmdSymbolsPartitionTheBurst)
{
    // Writing all 72 AMD symbols (18 chips x 4 words) must touch every
    // bit exactly once: reconstruct a random burst symbol-by-symbol.
    Rng rng(84);
    Burst src;
    src.randomize(rng);
    Burst dst;
    for (unsigned chip = 0; chip < Burst::numChips; ++chip) {
        for (unsigned word = 0; word < 4; ++word)
            dst.setAmdSymbol(chip, word, src.amdSymbol(chip, word));
    }
    EXPECT_EQ(dst, src);
}

TEST(Burst, ChipBitsRoundTrip)
{
    Rng rng(85);
    Burst src;
    src.randomize(rng);
    Burst dst;
    for (unsigned chip = 0; chip < Burst::numChips; ++chip)
        dst.setChipBits(chip, src.chipBits(chip));
    EXPECT_EQ(dst, src);
}

TEST(Burst, ChipAlignsWithAmdSymbols)
{
    // An AMD symbol of chip c must live entirely within chipBits(c):
    // this is what makes a chip failure a 4-symbol (1 per codeword)
    // event for AMD chipkill.
    Burst b;
    b.setAmdSymbol(7, 2, 0xFF);
    for (unsigned chip = 0; chip < Burst::numChips; ++chip) {
        const size_t pop = b.chipBits(chip).popcount();
        EXPECT_EQ(pop, chip == 7 ? 8u : 0u);
    }
}

TEST(Burst, ChipAlignsWithPinSymbols)
{
    // A chip covers pins 4c..4c+3: a chip failure is a 4-pin-symbol
    // event for Bamboo/QPC.
    Burst b;
    BitVec ones(32);
    for (size_t i = 0; i < 32; ++i)
        ones.set(i, true);
    b.setChipBits(5, ones);
    for (unsigned pin = 0; pin < Burst::numPins; ++pin) {
        const bool inChip = pin >= 20 && pin < 24;
        EXPECT_EQ(b.pinSymbol(pin), inChip ? 0xFF : 0x00) << pin;
    }
}

TEST(Burst, XorIsErrorMask)
{
    Rng rng(86);
    Burst a, mask;
    a.randomize(rng);
    mask.randomize(rng);
    Burst b = a;
    b ^= mask;
    b ^= mask;
    EXPECT_EQ(b, a);
}

} // namespace
} // namespace aiecc
