/**
 * @file
 * Cyclic redundancy check engines.
 *
 * Two concrete polynomials matter for AIECC: the DDR4 write-CRC
 * CRC-8-ATM (x^8 + x^2 + x + 1), which eWCRC extends to cover the write
 * address (Section IV-B), and the 4-bit CRC used by the Normoyle/Azul
 * address-checksum baseline evaluated in Table III.
 */

#ifndef AIECC_CRC_CRC_HH
#define AIECC_CRC_CRC_HH

#include <array>
#include <cstdint>

#include "common/bitvec.hh"

namespace aiecc
{

/**
 * A generic bitwise CRC over GF(2) with up to 32 check bits.
 *
 * Bits are consumed MSB-of-the-message-first with a zero initial
 * register, which matches the combinational XOR-tree formulation used
 * by the DDR4 specification for the write CRC.
 */
class Crc
{
  public:
    /**
     * Build a CRC engine.
     *
     * @param width Number of check bits (1..32).
     * @param poly The generator polynomial without the x^width term
     *             (e.g. 0x07 for CRC-8-ATM).
     */
    Crc(unsigned width, uint32_t poly);

    unsigned width() const { return crcWidth; }

    /** CRC of an arbitrary bit vector (consumed high-index-first). */
    uint32_t compute(const BitVec &bits) const;

    /**
     * CRC of the low @p nbits of an integer.
     *
     * Whole-byte messages (the write-CRC hot path) are the XOR of one
     * slice-table load per message byte, independent of each other;
     * other lengths fall back to the bit loop.
     */
    uint32_t
    computeWord(uint64_t value, unsigned nbits) const
    {
        if (nbits % 8 != 0 || nbits > 64)
            return computeBits(value, nbits);
        uint32_t reg = 0;
        for (unsigned i = 0; i < nbits / 8; ++i, value >>= 8)
            reg ^= sliceTab[i][value & 0xFF];
        return reg;
    }

    /** The DDR4 write-CRC polynomial: CRC-8-ATM, x^8 + x^2 + x + 1. */
    static const Crc &ddr4Crc8();

    /** The 4-bit address checksum of the Azul baseline (x^4 + x + 1). */
    static const Crc &azulCrc4();

  private:
    unsigned crcWidth;
    uint32_t polynomial;

    /**
     * sliceTab[d][x] = CRC of byte x followed by d zero bytes.  With a
     * zero initial register the CRC is linear in the message, so a
     * k-byte message is the XOR of sliceTab[i][byte i] over its bytes
     * (byte 0 the least significant, consumed last).
     */
    std::array<std::array<uint32_t, 256>, 8> sliceTab{};

    /** computeWord() by the bit loop, for lengths not byte-aligned. */
    uint32_t computeBits(uint64_t value, unsigned nbits) const;

    /** Advance the CRC register by one message bit. */
    uint32_t step(uint32_t reg, bool msgBit) const;
};

/** Even parity of a bit vector (true if the popcount is odd). */
bool evenParity(const BitVec &bits);

} // namespace aiecc

#endif // AIECC_CRC_CRC_HH
