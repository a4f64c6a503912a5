#include "ecc/data_ecc.hh"

namespace aiecc
{

Burst
DataEcc::encode(const BitVec &data, uint32_t mtbAddr) const
{
    Burst out;
    out.setData(data);
    encodeBurst(out, mtbAddr);
    return out;
}

} // namespace aiecc
