/**
 * @file
 * Tests for the address-protecting ECC variants: combined eDECC (QPC
 * and AMD organizations), transformation-based eDECC-t, and the Azul
 * address-CRC baseline.  These encode the core Section IV-A / V-B
 * claims: address errors are detected with zero extra redundancy,
 * combined eDECC diagnoses the faulty address, chipkill correction is
 * preserved, and the baselines' weaknesses (Azul aliasing) reproduce.
 */

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "aiecc/azul.hh"
#include "aiecc/edecc.hh"
#include "aiecc/edecc_transform.hh"
#include "common/rng.hh"
#include "crc/crc.hh"

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

/** Parameterized over every address-protecting organization. */
class AddrEccTest : public ::testing::TestWithParam<const char *>
{
  protected:
    std::unique_ptr<DataEcc> codec;
    Rng rng{0xEDECC};

    void
    SetUp() override
    {
        const std::string which = GetParam();
        if (which == "edecc-qpc")
            codec = std::make_unique<EDeccQpc>();
        else if (which == "edecc-amd")
            codec = std::make_unique<EDeccAmd>();
        else if (which == "edecc-t")
            codec = std::make_unique<EDeccTransformQpc>();
        else
            codec = std::make_unique<AzulQpc>();
    }
};

TEST_P(AddrEccTest, CleanRoundTripWithMatchingAddress)
{
    for (int i = 0; i < 20; ++i) {
        const uint32_t addr = static_cast<uint32_t>(rng.next());
        const BitVec d = randomData(rng);
        const Burst b = codec->encode(d, addr);
        EXPECT_EQ(b.data().size(), d.size());
        const EccResult res = codec->decode(b, addr);
        EXPECT_EQ(res.status, EccStatus::Clean) << codec->name();
        EXPECT_EQ(res.data, d);
        EXPECT_TRUE(codec->protectsAddress());
    }
}

TEST_P(AddrEccTest, StorageFootprintUnchanged)
{
    // eDECC's key claim: address protection costs no redundancy.  The
    // encoded burst is exactly the standard 72-pin x 8-beat MTB.
    const Burst b = codec->encode(randomData(rng), 0xABCD1234);
    EXPECT_EQ(sizeof(b.pinBits), 72u);
}

TEST_P(AddrEccTest, DetectsSingleBitAddressErrors)
{
    for (unsigned bit = 0; bit < 32; ++bit) {
        const uint32_t writeAddr = 0x5A5A5A5A;
        const uint32_t readAddr = writeAddr ^ (1u << bit);
        const BitVec d = randomData(rng);
        const Burst b = codec->encode(d, writeAddr);
        const EccResult res = codec->decode(b, readAddr);
        EXPECT_NE(res.status, EccStatus::Clean)
            << codec->name() << " missed address bit " << bit;
    }
}

TEST_P(AddrEccTest, ChipkillPreservedWithCorrectAddress)
{
    const uint32_t addr = 0xCAFE0042;
    const BitVec d = randomData(rng);
    const Burst b = codec->encode(d, addr);
    for (unsigned chip = 0; chip < Burst::numChips; chip += 3) {
        Burst bad = b;
        BitVec noise(32);
        for (size_t i = 0; i < 32; ++i)
            noise.set(i, rng.chance(0.5));
        if (noise.zero())
            noise.set(5, true);
        bad.setChipBits(chip, bad.chipBits(chip) ^ noise);
        const EccResult res = codec->decode(bad, addr);
        ASSERT_EQ(res.status, EccStatus::Corrected)
            << codec->name() << " chip " << chip;
        EXPECT_EQ(res.data, d);
        EXPECT_FALSE(res.addressError);
    }
}

INSTANTIATE_TEST_SUITE_P(Schemes, AddrEccTest,
                         ::testing::Values("edecc-qpc", "edecc-amd",
                                           "edecc-t", "azul"));

// ---------------------------------------------------------------------
// Combined-eDECC-specific behaviour: precise diagnosis.
// ---------------------------------------------------------------------

TEST(EDeccQpc, DiagnosesFaultyAddress)
{
    EDeccQpc codec;
    Rng rng(0xD1A6);
    for (int i = 0; i < 50; ++i) {
        const uint32_t writeAddr = static_cast<uint32_t>(rng.next());
        uint32_t readAddr = writeAddr ^ (1u << rng.below(32));
        if (rng.chance(0.3))
            readAddr ^= 1u << rng.below(32); // sometimes 2 bits
        if (readAddr == writeAddr)
            continue;
        const BitVec d = randomData(rng);
        const Burst b = codec.encode(d, writeAddr);
        const EccResult res = codec.decode(b, readAddr);
        ASSERT_EQ(res.status, EccStatus::Corrected);
        EXPECT_TRUE(res.addressError);
        ASSERT_TRUE(res.recoveredAddress.has_value());
        // Figure 5b: the decoder reveals the address DRAM used.
        EXPECT_EQ(*res.recoveredAddress, writeAddr);
        // The data itself is untouched.
        EXPECT_EQ(res.data, d);
    }
    EXPECT_TRUE(codec.preciseDiagnosis());
}

TEST(EDeccQpc, Diagnoses32BitAddressErrors)
{
    // Up to 32 bits of address error are correctable via the 4 spare
    // symbols (the paper's "up to 32-bit address errors" claim).
    EDeccQpc codec;
    Rng rng(0xD1A7);
    for (int i = 0; i < 50; ++i) {
        const uint32_t writeAddr = static_cast<uint32_t>(rng.next());
        const uint32_t readAddr = static_cast<uint32_t>(rng.next());
        if (writeAddr == readAddr)
            continue;
        const Burst b = codec.encode(randomData(rng), writeAddr);
        const EccResult res = codec.decode(b, readAddr);
        ASSERT_EQ(res.status, EccStatus::Corrected);
        EXPECT_TRUE(res.addressError);
        EXPECT_EQ(*res.recoveredAddress, writeAddr);
    }
}

TEST(EDeccQpc, AddressPlusBitErrorBothCorrected)
{
    // Table III row "1 bit + 1 bit": CE-RD+ (retry with accurate
    // diagnosis after data correction).
    EDeccQpc codec;
    Rng rng(0xD1A8);
    for (int i = 0; i < 30; ++i) {
        const uint32_t writeAddr = static_cast<uint32_t>(rng.next());
        const uint32_t readAddr = writeAddr ^ (1u << rng.below(32));
        const BitVec d = randomData(rng);
        Burst bad = codec.encode(d, writeAddr);
        bad.setBit(static_cast<unsigned>(rng.below(72)),
                   static_cast<unsigned>(rng.below(8)),
                   rng.chance(0.5));
        const EccResult res = codec.decode(bad, readAddr);
        // <= 1 address symbol + 1 data symbol <= t = 4.
        ASSERT_NE(res.status, EccStatus::Uncorrectable);
        if (res.status == EccStatus::Corrected && res.addressError) {
            EXPECT_EQ(*res.recoveredAddress, writeAddr);
        }
        EXPECT_EQ(res.data, d);
    }
}

TEST(EDeccQpc, ChipPlusAddressErrorIsDetectedNotCorrected)
{
    // 4 chip symbols + >= 1 address symbol exceeds t = 4: flagged.
    EDeccQpc codec;
    Rng rng(0xD1A9);
    int flagged = 0;
    const int reps = 50;
    for (int i = 0; i < reps; ++i) {
        const uint32_t writeAddr = static_cast<uint32_t>(rng.next());
        const uint32_t readAddr = writeAddr ^ 0x00010000;
        Burst bad = codec.encode(randomData(rng), writeAddr);
        BitVec noise(32);
        for (size_t j = 0; j < 32; ++j)
            noise.set(j, true);
        bad.setChipBits(2, bad.chipBits(2) ^ noise);
        flagged +=
            codec.decode(bad, readAddr).status == EccStatus::Uncorrectable;
    }
    EXPECT_EQ(flagged, reps);
}

TEST(EDeccAmd, DiagnosesFaultyAddress)
{
    EDeccAmd codec;
    Rng rng(0xD1AA);
    for (int i = 0; i < 50; ++i) {
        const uint32_t writeAddr = static_cast<uint32_t>(rng.next());
        const uint32_t readAddr = static_cast<uint32_t>(rng.next());
        if (writeAddr == readAddr)
            continue;
        const BitVec d = randomData(rng);
        const Burst b = codec.encode(d, writeAddr);
        const EccResult res = codec.decode(b, readAddr);
        ASSERT_EQ(res.status, EccStatus::Corrected);
        EXPECT_TRUE(res.addressError);
        EXPECT_EQ(*res.recoveredAddress, writeAddr);
        EXPECT_EQ(res.data, d);
    }
}

// ---------------------------------------------------------------------
// Transformation eDECC-t: detection without diagnosis.
// ---------------------------------------------------------------------

TEST(EDeccTransform, AddressErrorIsDueWithoutDiagnosis)
{
    EDeccTransformQpc codec;
    Rng rng(0xD1AB);
    for (int i = 0; i < 50; ++i) {
        const uint32_t writeAddr = static_cast<uint32_t>(rng.next());
        uint32_t readAddr = writeAddr ^ (1u << rng.below(32));
        const Burst b = codec.encode(randomData(rng), writeAddr);
        const EccResult res = codec.decode(b, readAddr);
        // The orthogonal mask residue (>= 16 symbols) overwhelms QPC.
        EXPECT_EQ(res.status, EccStatus::Uncorrectable);
        EXPECT_FALSE(res.recoveredAddress.has_value());
    }
    EXPECT_FALSE(codec.preciseDiagnosis());
}

TEST(EDeccTransform, MaskIsInvolutory)
{
    Rng rng(0xD1AC);
    Burst b;
    b.randomize(rng);
    Burst copy = b;
    EDeccTransformQpc::applyMask(copy, 0xDEADBEEF);
    EXPECT_NE(copy, b);
    EDeccTransformQpc::applyMask(copy, 0xDEADBEEF);
    EXPECT_EQ(copy, b);
}

TEST(EDeccTransform, SubBlocksOrthogonalToSymbols)
{
    // A 1-bit address difference must corrupt 16 distinct pin symbols
    // with exactly 1 bit each.
    Burst b{};
    EDeccTransformQpc::applyMask(b, 1u << 5);
    unsigned touched = 0;
    for (unsigned p = 0; p < Burst::numPins; ++p) {
        const auto s = b.pinSymbol(p);
        if (s) {
            ++touched;
            EXPECT_EQ(std::popcount(static_cast<unsigned>(s)), 1);
        }
    }
    EXPECT_EQ(touched, 16u);
}

/** The mask one bit at a time, straight from the sub-block layout. */
void
perBitMask(Burst &burst, uint32_t mtbAddr)
{
    for (unsigned i = 0; i < EDeccTransformQpc::numSubBlocks; ++i) {
        if (!((mtbAddr >> i) & 1))
            continue;
        const unsigned beat = i % Burst::numBeats;
        const unsigned pin0 = (i / Burst::numBeats) *
                              EDeccTransformQpc::subBlockBits;
        for (unsigned p = 0; p < EDeccTransformQpc::subBlockBits; ++p)
            burst.setBit(pin0 + p, beat, !burst.getBit(pin0 + p, beat));
    }
}

TEST(EDeccTransform, MaskMatchesPerBitReference)
{
    Rng rng(0xD1B0);
    std::vector<uint32_t> addrs = {0, 0xFFFFFFFFu};
    for (unsigned bit = 0; bit < 32; ++bit)
        addrs.push_back(1u << bit);
    for (int i = 0; i < 64; ++i)
        addrs.push_back(static_cast<uint32_t>(rng.next()));
    for (uint32_t addr : addrs) {
        for (int rep = 0; rep < 4; ++rep) {
            Burst b;
            b.randomize(rng);
            Burst want = b;
            perBitMask(want, addr);
            EDeccTransformQpc::applyMask(b, addr);
            EXPECT_EQ(b, want) << std::hex << "addr 0x" << addr;
        }
    }
}

// ---------------------------------------------------------------------
// Azul baseline: aliasing and residue recognition.
// ---------------------------------------------------------------------

TEST(AzulQpc, AliasingRateMatchesTableIII)
{
    // Fully-random wrong addresses escape a 4-bit CRC ~1/16 of the
    // time: the 6.3% SDC cells of Table III.
    AzulQpc codec;
    Rng rng(0xD1AD);
    int silent = 0;
    const int reps = 3000;
    for (int i = 0; i < reps; ++i) {
        const uint32_t writeAddr = static_cast<uint32_t>(rng.next());
        uint32_t readAddr = static_cast<uint32_t>(rng.next());
        if (readAddr == writeAddr)
            readAddr ^= 1;
        const Burst b = codec.encode(randomData(rng), writeAddr);
        const EccResult res = codec.decode(b, readAddr);
        const bool noticed =
            res.status == EccStatus::Uncorrectable ||
            (res.status == EccStatus::Corrected && res.addressError);
        if (!noticed)
            ++silent;
    }
    EXPECT_NEAR(static_cast<double>(silent) / reps, 1.0 / 16.0, 0.015);
}

TEST(AzulQpc, SingleBitAddressErrorsAlwaysNoticed)
{
    // CRC-4 (x^4+x+1) detects every single-bit message error, so all
    // 1-bit address errors are caught (Table III: CE-R, no SDC).
    AzulQpc codec;
    Rng rng(0xD1AE);
    for (unsigned bit = 0; bit < 32; ++bit) {
        const uint32_t writeAddr = 0x13572468;
        const uint32_t readAddr = writeAddr ^ (1u << bit);
        const Burst b = codec.encode(randomData(rng), writeAddr);
        const EccResult res = codec.decode(b, readAddr);
        const bool noticed =
            res.status == EccStatus::Uncorrectable ||
            (res.status == EccStatus::Corrected && res.addressError);
        EXPECT_TRUE(noticed) << "bit " << bit;
    }
}

TEST(AzulQpc, NoDiagnosis)
{
    AzulQpc codec;
    Rng rng(0xD1AF);
    const Burst b = codec.encode(randomData(rng), 0x1111);
    const EccResult res = codec.decode(b, 0x2222);
    EXPECT_FALSE(res.recoveredAddress.has_value());
    EXPECT_FALSE(codec.preciseDiagnosis());
}

} // namespace
} // namespace aiecc
