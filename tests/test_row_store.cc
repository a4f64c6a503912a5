/**
 * @file
 * Unit tests for the row-chunked sparse burst store: presence-bitmap
 * gating (reads of never-written columns in a populated row miss),
 * never-zeroed slab reads (stored bytes come back exactly, nothing
 * leaks from the uninitialized slab), slab growth past the initial
 * reserve, a differential run against a std::map through several
 * hash rehashes, and the sorted iteration helpers.
 */

#include <algorithm>
#include <map>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "ddr4/address.hh"
#include "dram/row_store.hh"

namespace aiecc
{
namespace
{

const unsigned kColBits = Geometry{}.mtbColBits();

Burst
patternBurst(uint32_t salt)
{
    Burst burst;
    for (unsigned p = 0; p < Burst::numPins; ++p)
        burst.pinBits[p] =
            static_cast<uint8_t>(salt * 2654435761u >> (p % 24));
    return burst;
}

TEST(RowStore, EmptyFindsNothing)
{
    RowStore store(kColBits);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.find(0), nullptr);
    EXPECT_EQ(store.find(0xdeadbeef), nullptr);
    EXPECT_TRUE(store.sortedKeys().empty());
}

TEST(RowStore, PutFindRoundTrip)
{
    RowStore store(kColBits);
    const Burst burst = patternBurst(7);
    store.put(42, burst);
    ASSERT_NE(store.find(42), nullptr);
    EXPECT_EQ(*store.find(42), burst);
    EXPECT_EQ(store.size(), 1u);
}

TEST(RowStore, OverwriteReplacesWithoutGrowing)
{
    RowStore store(kColBits);
    store.put(42, patternBurst(1));
    store.put(42, patternBurst(2));
    EXPECT_EQ(store.size(), 1u);
    ASSERT_NE(store.find(42), nullptr);
    EXPECT_EQ(*store.find(42), patternBurst(2));
}

// The slab bytes are never zeroed: only the presence bitmap may decide
// whether a column exists.  Writing one column of a row must not make
// any sibling column readable.
TEST(RowStore, PresenceBitmapGatesSiblingColumns)
{
    RowStore store(kColBits);
    const uint32_t row = 5u << kColBits;
    store.put(row | 3, patternBurst(3));
    ASSERT_NE(store.find(row | 3), nullptr);
    for (uint32_t col = 0; col < (1u << kColBits); ++col) {
        if (col == 3)
            continue;
        EXPECT_EQ(store.find(row | col), nullptr)
            << "uninitialized column " << col << " leaked";
    }
    EXPECT_EQ(store.size(), 1u);
}

// Every stored burst must come back bit-exact even though the backing
// slab memory started uninitialized — the put is the only writer.
TEST(RowStore, NeverZeroedSlabReturnsExactBytes)
{
    RowStore store(kColBits);
    std::vector<uint32_t> keys;
    for (uint32_t i = 0; i < 500; ++i) {
        // Scatter across rows and columns, including column 0 (an
        // all-zero-key slot a zero-initialized map would confuse).
        const uint32_t key =
            (i * 2246822519u) % (1u << (kColBits + 10));
        if (store.find(key))
            continue;
        store.put(key, patternBurst(key));
        keys.push_back(key);
    }
    EXPECT_EQ(store.size(), keys.size());
    for (uint32_t key : keys) {
        ASSERT_NE(store.find(key), nullptr);
        EXPECT_EQ(*store.find(key), patternBurst(key));
    }
}

// Populate more rows than the initial 1024-row reserve so the store
// has to chain extra slabs and rehash; everything must stay findable.
TEST(RowStore, GrowsPastInitialSlab)
{
    RowStore store(kColBits);
    const uint32_t rows = 1800; // > reserveRows, forces extra slabs
    for (uint32_t r = 0; r < rows; ++r)
        store.put(r << kColBits | (r % 3), patternBurst(r));
    EXPECT_EQ(store.size(), rows);
    for (uint32_t r = 0; r < rows; ++r) {
        const uint32_t key = r << kColBits | (r % 3);
        ASSERT_NE(store.find(key), nullptr) << "row " << r;
        EXPECT_EQ(*store.find(key), patternBurst(r));
        // Sibling columns of the same row stay gated after growth.
        EXPECT_EQ(store.find(r << kColBits | ((r % 3) + 1)), nullptr);
    }
}

// Seeded random put/find against a std::map reference.  About 8500
// distinct rows pass the hash's rehash points (2048, 4096 and 8192
// rows with the initial 4096 slots) and chain ~30 extra slabs; size,
// sortedKeys and rowCols are checked against the reference as the
// store grows, and every stored burst at the end.
TEST(RowStore, MatchesMapReferenceThroughRehashes)
{
    RowStore store(kColBits);
    std::map<uint32_t, uint32_t> ref; // packed address -> burst salt
    std::vector<uint32_t> stored;     // ref's keys, in insertion order
    std::mt19937_64 rng(0x12057);
    const uint32_t rowSpace = 1u << 14;
    const auto randomKey = [&] {
        return static_cast<uint32_t>(rng() % rowSpace) << kColBits |
               static_cast<uint32_t>(rng() % (1u << kColBits));
    };
    const auto refRowCols = [&](uint32_t rowKey) {
        std::vector<unsigned> cols;
        for (auto it = ref.lower_bound(rowKey << kColBits);
             it != ref.end() && it->first >> kColBits == rowKey; ++it)
            cols.push_back(it->first & ((1u << kColBits) - 1));
        return cols;
    };
    for (uint32_t step = 1; step <= 24000; ++step) {
        const unsigned op = rng() % 8;
        if (op < 5) {
            // Put: a fresh random key, or an overwrite of a stored one.
            const uint32_t key = op < 4 || stored.empty()
                                     ? randomKey()
                                     : stored[rng() % stored.size()];
            store.put(key, patternBurst(step));
            if (ref.insert_or_assign(key, step).second)
                stored.push_back(key);
        } else {
            // Find: a stored key, or any key.
            const uint32_t key = op == 5 && !stored.empty()
                                     ? stored[rng() % stored.size()]
                                     : randomKey();
            const Burst *got = store.find(key);
            const auto it = ref.find(key);
            ASSERT_EQ(got != nullptr, it != ref.end()) << "key " << key;
            if (got) {
                ASSERT_EQ(*got, patternBurst(it->second)) << "key " << key;
            }
        }
        if (step % 1500 == 0) {
            ASSERT_EQ(store.size(), ref.size()) << "step " << step;
            std::vector<uint32_t> keys;
            for (const auto &[key, salt] : ref)
                keys.push_back(key);
            ASSERT_EQ(store.sortedKeys(), keys) << "step " << step;
            for (const uint32_t rowKey :
                 {stored[rng() % stored.size()] >> kColBits,
                  randomKey() >> kColBits}) {
                std::vector<unsigned> cols;
                store.rowCols(rowKey, cols);
                ASSERT_EQ(cols, refRowCols(rowKey)) << "row " << rowKey;
            }
        }
    }
    std::vector<uint32_t> rows;
    for (const auto &[key, salt] : ref)
        rows.push_back(key >> kColBits);
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    EXPECT_GT(rows.size(), 8192u) << "too few rows for a third rehash";
    for (const auto &[key, salt] : ref) {
        ASSERT_NE(store.find(key), nullptr) << "key " << key;
        EXPECT_EQ(*store.find(key), patternBurst(salt)) << "key " << key;
    }
}

TEST(RowStore, SortedKeysAscending)
{
    RowStore store(kColBits);
    const std::vector<uint32_t> keys = {900, 3, 77, 128, 4096, 12};
    for (uint32_t key : keys)
        store.put(key, patternBurst(key));
    std::vector<uint32_t> expect = keys;
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(store.sortedKeys(), expect);
}

TEST(RowStore, RowColsListsOneRowAscending)
{
    RowStore store(kColBits);
    const uint32_t rowKey = 9;
    for (unsigned col : {6u, 1u, 4u})
        store.put(rowKey << kColBits | col, patternBurst(col));
    store.put((rowKey + 1) << kColBits | 2, patternBurst(99));
    std::vector<unsigned> cols;
    store.rowCols(rowKey, cols);
    EXPECT_EQ(cols, (std::vector<unsigned>{1, 4, 6}));
    cols.clear();
    store.rowCols(12345, cols);
    EXPECT_TRUE(cols.empty());
}

} // namespace
} // namespace aiecc
