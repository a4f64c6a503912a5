/**
 * @file
 * DRAM address geometry and the 32-bit memory-transfer-block (MTB)
 * address that AIECC folds into its extended codes (Section IV-A).
 */

#ifndef AIECC_DDR4_ADDRESS_HH
#define AIECC_DDR4_ADDRESS_HH

#include <cstdint>
#include <string>

#include "common/bits.hh"
#include "common/text_buf.hh"

namespace aiecc
{

/** Geometry of the modeled DDR4 memory channel. */
struct Geometry
{
    unsigned rankBits = 3;   ///< up to 8 ranks per channel
    unsigned bgBits = 2;     ///< 4 bank groups
    unsigned baBits = 2;     ///< 4 banks per group
    unsigned rowBits = 18;   ///< up to 256K rows
    unsigned colBits = 10;   ///< burst-granular column bits (A9..A0)

    /** Column bits consumed by the 8-beat burst (BL8). */
    static constexpr unsigned burstBits = 3;

    /** MTB-granular column bits (colBits - burstBits). */
    unsigned mtbColBits() const { return colBits - burstBits; }

    unsigned banksPerGroup() const { return 1u << baBits; }
    unsigned numBankGroups() const { return 1u << bgBits; }
    unsigned numBanks() const { return numBankGroups() * banksPerGroup(); }
    unsigned numRows() const { return 1u << rowBits; }

    /**
     * Total MTB address width: rank + bg + ba + row + mtbCol.
     * With the defaults this is exactly 32 bits, matching the paper's
     * 32-bit MTB address (256GB/channel of 64B blocks).
     */
    unsigned mtbAddressBits() const
    {
        return rankBits + bgBits + baBits + rowBits + mtbColBits();
    }
};

/**
 * A memory-transfer-block address: rank, bank group, bank, row and
 * MTB-granular column.  Packs into the 32-bit value that eDECC and
 * eWCRC protect.
 */
struct MtbAddress
{
    unsigned rank = 0;
    unsigned bg = 0;
    unsigned ba = 0;
    unsigned row = 0;
    unsigned col = 0;   ///< MTB-granular (64B-block) column

    bool operator==(const MtbAddress &other) const = default;

    /** Pack into the canonical 32-bit MTB address. */
    uint32_t
    pack(const Geometry &geom = Geometry{}) const
    {
        if (geom.mtbAddressBits() > 32) [[unlikely]]
            packTooWide(geom);
        uint64_t v = 0;
        unsigned shift = 0;
        v = insertBits(v, shift, geom.mtbColBits(), col);
        shift += geom.mtbColBits();
        v = insertBits(v, shift, geom.rowBits, row);
        shift += geom.rowBits;
        v = insertBits(v, shift, geom.baBits, ba);
        shift += geom.baBits;
        v = insertBits(v, shift, geom.bgBits, bg);
        shift += geom.bgBits;
        v = insertBits(v, shift, geom.rankBits, rank);
        return static_cast<uint32_t>(v);
    }

    /** Unpack from the canonical 32-bit MTB address. */
    static MtbAddress unpack(uint32_t packed,
                             const Geometry &geom = Geometry{});

    /** Flat bank index: bg * banksPerGroup + ba. */
    unsigned flatBank(const Geometry &geom = Geometry{}) const
    {
        return bg * geom.banksPerGroup() + ba;
    }

    /** "rank0.bg1.ba2.row0x1f.col0x3" (the form toString() returns). */
    void render(TextBuf &out) const;
    std::string toString() const;

    /** pack()'s failure path, out of line so pack() stays small. */
    [[noreturn]] static void packTooWide(const Geometry &geom);
};

} // namespace aiecc

#endif // AIECC_DDR4_ADDRESS_HH
