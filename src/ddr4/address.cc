#include "ddr4/address.hh"

#include "common/bits.hh"
#include "common/logging.hh"

namespace aiecc
{

uint32_t
MtbAddress::pack(const Geometry &geom) const
{
    AIECC_ASSERT(geom.mtbAddressBits() <= 32,
                 "MTB address exceeds 32 bits");
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
