#include "ddr4/address.hh"

#include "common/bits.hh"
#include "common/logging.hh"

namespace aiecc
{

void
MtbAddress::packTooWide(const Geometry &geom)
{
    AIECC_PANIC("MTB address exceeds 32 bits: " << geom.mtbAddressBits());
}

MtbAddress
MtbAddress::unpack(uint32_t packed, const Geometry &geom)
{
    MtbAddress a;
    unsigned shift = 0;
    a.col = static_cast<unsigned>(bits(packed, shift, geom.mtbColBits()));
    shift += geom.mtbColBits();
    a.row = static_cast<unsigned>(bits(packed, shift, geom.rowBits));
    shift += geom.rowBits;
    a.ba = static_cast<unsigned>(bits(packed, shift, geom.baBits));
    shift += geom.baBits;
    a.bg = static_cast<unsigned>(bits(packed, shift, geom.bgBits));
    shift += geom.bgBits;
    a.rank = static_cast<unsigned>(bits(packed, shift, geom.rankBits));
    return a;
}

void
MtbAddress::render(TextBuf &out) const
{
    out.add("rank").dec(rank).add(".bg").dec(bg).add(".ba").dec(ba);
    out.add(".row0x").hex(row).add(".col0x").hex(col);
}

std::string
MtbAddress::toString() const
{
    TextBuf out;
    render(out);
    return out.str();
}

} // namespace aiecc
