/**
 * @file
 * Unit tests for BitVec, including word-boundary cases and the
 * byte-packing round trip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/bitvec.hh"
#include "common/rng.hh"

namespace aiecc
{
namespace
{

TEST(BitVec, ConstructZero)
{
    BitVec v(100);
    EXPECT_EQ(v.size(), 100u);
    EXPECT_TRUE(v.zero());
    EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVec, ConstructFromValue)
{
    BitVec v(16, 0xA5A5);
    EXPECT_EQ(v.getField(0, 16), 0xA5A5u);
    // Value is truncated to the vector width.
    BitVec w(4, 0xFF);
    EXPECT_EQ(w.getField(0, 4), 0xFu);
    EXPECT_EQ(w.popcount(), 4u);
}

TEST(BitVec, SetGetFlip)
{
    BitVec v(130);
    v.set(0, true);
    v.set(64, true);   // word boundary
    v.set(129, true);  // last bit
    EXPECT_TRUE(v.get(0));
    EXPECT_TRUE(v.get(64));
    EXPECT_TRUE(v.get(129));
    EXPECT_FALSE(v.get(63));
    EXPECT_EQ(v.popcount(), 3u);

    v.flip(64);
    EXPECT_FALSE(v.get(64));
    v.flip(65);
    EXPECT_TRUE(v.get(65));
    EXPECT_EQ(v.popcount(), 3u);
}

TEST(BitVec, FieldAcrossWordBoundary)
{
    BitVec v(128);
    v.setField(60, 10, 0x2AB);
    EXPECT_EQ(v.getField(60, 10), 0x2ABu);
    EXPECT_EQ(v.getField(0, 60), 0u);
    EXPECT_EQ(v.getField(70, 58), 0u);
}

TEST(BitVec, GetFieldPastEndReadsZero)
{
    BitVec v(10, 0x3FF);
    EXPECT_EQ(v.getField(8, 8), 0x3u);
}

TEST(BitVec, XorAndEquality)
{
    BitVec a(72, 0x1234);
    BitVec b(72, 0x00FF);
    BitVec c = a ^ b;
    EXPECT_EQ(c.getField(0, 16), (0x1234u ^ 0x00FFu));
    c ^= b;
    EXPECT_EQ(c, a);
    EXPECT_NE(a, b);
    // Equality requires equal length too.
    EXPECT_NE(BitVec(8, 1), BitVec(9, 1));
}

TEST(BitVec, SliceInsertRoundTrip)
{
    Rng rng(7);
    BitVec v(200);
    for (size_t i = 0; i < v.size(); ++i)
        v.set(i, rng.chance(0.5));
    BitVec s = v.slice(37, 90);
    EXPECT_EQ(s.size(), 90u);
    for (size_t i = 0; i < 90; ++i)
        EXPECT_EQ(s.get(i), v.get(37 + i));

    BitVec w(200);
    w.insert(37, s);
    for (size_t i = 0; i < 90; ++i)
        EXPECT_EQ(w.get(37 + i), v.get(37 + i));
}

TEST(BitVec, BytesRoundTrip)
{
    Rng rng(11);
    for (size_t nbits : {1u, 7u, 8u, 9u, 63u, 64u, 65u, 513u}) {
        BitVec v(nbits);
        for (size_t i = 0; i < nbits; ++i)
            v.set(i, rng.chance(0.5));
        const auto bytes = v.toBytes();
        EXPECT_EQ(bytes.size(), (nbits + 7) / 8);
        EXPECT_EQ(BitVec::fromBytes(bytes, nbits), v);
    }
}

TEST(BitVec, ByteAccessorsMatchFields)
{
    // getBytes/setBytes against the byte-at-a-time getField/setField
    // form, at every byte offset of vectors that end mid-byte, mid-word
    // and past the inline buffer.
    Rng rng(96);
    for (size_t nbits : {13u, 64u, 100u, 512u, 576u, 700u}) {
        const size_t nbytes = (nbits + 7) / 8;
        for (size_t first = 0; first < nbytes; first += 3) {
            const size_t n = nbytes - first;
            std::vector<uint8_t> bytes(n);
            for (auto &b : bytes)
                b = static_cast<uint8_t>(rng.below(256));

            BitVec viaBytes(nbits), viaFields(nbits);
            viaBytes.setBytes(first, bytes.data(), n);
            for (size_t i = 0; i < n; ++i) {
                const size_t pos = (first + i) * 8;
                viaFields.setField(pos, std::min<size_t>(8, nbits - pos),
                                   bytes[i]);
            }
            ASSERT_EQ(viaBytes, viaFields) << nbits << " bits @" << first;

            std::vector<uint8_t> out(n);
            viaBytes.getBytes(first, out.data(), n);
            for (size_t i = 0; i < n; ++i)
                ASSERT_EQ(out[i], viaFields.getField((first + i) * 8, 8));
        }
    }
}

TEST(BitVec, SetBytesKeepsTailZero)
{
    // Bits of the last byte past size() are dropped, so growing the
    // vector afterwards exposes zeros, not the dropped bits.
    const uint8_t ones[2] = {0xFF, 0xFF};
    BitVec v(13);
    v.setBytes(0, ones, 2);
    EXPECT_EQ(v.popcount(), 13u);
    v.resize(16);
    EXPECT_EQ(v.getField(13, 3), 0u);
    EXPECT_EQ(v.popcount(), 13u);
}

TEST(BitVec, ToString)
{
    BitVec v(4);
    v.set(0, true);
    v.set(3, true);
    EXPECT_EQ(v.toString(), "1001");
}

TEST(BitVec, ResizePreservesAndZeroFills)
{
    BitVec v(8, 0xFF);
    v.resize(16);
    EXPECT_EQ(v.getField(0, 16), 0xFFu);
    v.resize(4);
    EXPECT_EQ(v.popcount(), 4u);
    v.resize(8);
    EXPECT_EQ(v.getField(0, 8), 0x0Fu);
}

TEST(BitVec, ParityMatchesPopcount)
{
    BitVec v(65);
    EXPECT_FALSE(v.parity());
    v.set(64, true);
    EXPECT_TRUE(v.parity());
    v.set(0, true);
    EXPECT_FALSE(v.parity());
}

TEST(BitVec, ClearZeroes)
{
    BitVec v(100, ~0ULL);
    EXPECT_FALSE(v.zero());
    v.clear();
    EXPECT_TRUE(v.zero());
}

} // namespace
} // namespace aiecc
