#include "crc/crc.hh"

#include "common/bits.hh"
#include "common/logging.hh"

namespace aiecc
{

Crc::Crc(unsigned width, uint32_t poly)
    : crcWidth(width), polynomial(poly)
{
    AIECC_ASSERT(width >= 1 && width <= 32, "CRC width out of range");
    for (unsigned x = 0; x < 256; ++x) {
        uint32_t reg = 0;
        for (unsigned i = 8; i-- > 0;)
            reg = step(reg, (x >> i) & 1);
        sliceTab[0][x] = reg;
        for (unsigned d = 1; d < sliceTab.size(); ++d) {
            for (unsigned i = 0; i < 8; ++i)
                reg = step(reg, false);
            sliceTab[d][x] = reg;
        }
    }
}

uint32_t
Crc::step(uint32_t reg, bool msgBit) const
{
    const bool top = (reg >> (crcWidth - 1)) & 1;
    reg = (reg << 1) & static_cast<uint32_t>(mask(crcWidth));
    if (top != msgBit)
        reg ^= polynomial;
    return reg;
}

uint32_t
Crc::compute(const BitVec &bits) const
{
    uint32_t reg = 0;
    for (size_t i = bits.size(); i-- > 0;)
        reg = step(reg, bits.get(i));
    return reg;
}

uint32_t
Crc::computeBits(uint64_t value, unsigned nbits) const
{
    AIECC_ASSERT(nbits <= 64, "computeWord: too many bits");
    uint32_t reg = 0;
    for (unsigned i = nbits; i-- > 0;)
        reg = step(reg, (value >> i) & 1);
    return reg;
}

const Crc &
Crc::ddr4Crc8()
{
    static const Crc crc(8, 0x07);
    return crc;
}

const Crc &
Crc::azulCrc4()
{
    static const Crc crc(4, 0x3);
    return crc;
}

bool
evenParity(const BitVec &bits)
{
    return bits.parity();
}

} // namespace aiecc
