#include "ddr4/burst.hh"

#include "common/logging.hh"

namespace aiecc
{

GfElem
Burst::amdSymbol(unsigned chip, unsigned word) const
{
    AIECC_ASSERT(chip < numChips && word < 4, "amdSymbol out of range");
    GfElem s = 0;
    for (unsigned j = 0; j < 8; ++j) {
        const unsigned pin = chip * pinsPerChip + (j % 4);
        const unsigned beat = word * 2 + (j / 4);
        if (getBit(pin, beat))
            s |= static_cast<GfElem>(1u << j);
    }
    return s;
}

void
Burst::setAmdSymbol(unsigned chip, unsigned word, GfElem s)
{
    AIECC_ASSERT(chip < numChips && word < 4, "setAmdSymbol out of range");
    for (unsigned j = 0; j < 8; ++j) {
        const unsigned pin = chip * pinsPerChip + (j % 4);
        const unsigned beat = word * 2 + (j / 4);
        setBit(pin, beat, (s >> j) & 1);
    }
}

BitVec
Burst::chipBits(unsigned chip) const
{
    AIECC_ASSERT(chip < numChips, "chipBits out of range");
    BitVec out(pinsPerChip * numBeats);
    out.setField(0, 32, chipWord(chip));
    return out;
}

void
Burst::setChipBits(unsigned chip, const BitVec &bits)
{
    AIECC_ASSERT(chip < numChips, "setChipBits out of range");
    AIECC_ASSERT(bits.size() == pinsPerChip * numBeats,
                 "setChipBits: wrong width");
    setChipWord(chip, static_cast<uint32_t>(bits.getField(0, 32)));
}

void
Burst::amdChipSymbols(unsigned chip, GfElem out[4]) const
{
    AIECC_ASSERT(chip < numChips, "amdChipSymbols out of range");
    const uint8_t *pb = &pinBits[chip * pinsPerChip];
    for (unsigned w = 0; w < 4; ++w) {
        GfElem s = 0;
        for (unsigned j = 0; j < 4; ++j) {
            const unsigned beats = (pb[j] >> (2 * w)) & 3;
            s |= static_cast<GfElem>((beats & 1) << j);
            s |= static_cast<GfElem>((beats >> 1) << (4 + j));
        }
        out[w] = s;
    }
}

void
Burst::setAmdChipSymbols(unsigned chip, const GfElem in[4])
{
    AIECC_ASSERT(chip < numChips, "setAmdChipSymbols out of range");
    uint8_t *pb = &pinBits[chip * pinsPerChip];
    for (unsigned j = 0; j < 4; ++j) {
        uint8_t v = 0;
        for (unsigned w = 0; w < 4; ++w) {
            v |= static_cast<uint8_t>(((in[w] >> j) & 1) << (2 * w));
            v |= static_cast<uint8_t>(((in[w] >> (4 + j)) & 1)
                                      << (2 * w + 1));
        }
        pb[j] = v;
    }
}

BitVec
Burst::data() const
{
    BitVec out(dataBits);
    out.setBytes(0, pinBits.data(), dataPins);
    return out;
}

void
Burst::setData(const BitVec &d)
{
    AIECC_ASSERT(d.size() == dataBits, "setData: wrong width");
    d.getBytes(0, pinBits.data(), dataPins);
}

BitVec
Burst::check() const
{
    BitVec out(checkBits);
    out.setBytes(0, &pinBits[dataPins], checkPins);
    return out;
}

void
Burst::setCheck(const BitVec &c)
{
    AIECC_ASSERT(c.size() == checkBits, "setCheck: wrong width");
    c.getBytes(0, &pinBits[dataPins], checkPins);
}

void
Burst::randomize(Rng &rng)
{
    for (auto &b : pinBits)
        b = static_cast<uint8_t>(rng.below(256));
}

Burst &
Burst::operator^=(const Burst &other)
{
    for (unsigned p = 0; p < numPins; ++p)
        pinBits[p] ^= other.pinBits[p];
    return *this;
}

} // namespace aiecc
