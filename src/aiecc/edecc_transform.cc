#include "aiecc/edecc_transform.hh"

namespace aiecc
{

void
EDeccTransformQpc::applyMask(Burst &burst, uint32_t mtbAddr)
{
    // Sub-block i covers beat i % 8 of the 16 pins of group i / 8, so
    // a pin's byte flips by the address byte of its group.
    static_assert(numSubBlocks == 4 * Burst::numBeats &&
                  subBlockBits * 4 == Burst::dataPins);
    for (unsigned p = 0; p < Burst::dataPins; ++p)
        burst.pinBits[p] ^= static_cast<uint8_t>(
            mtbAddr >> (Burst::numBeats * (p / subBlockBits)));
}

void
EDeccTransformQpc::encodeBurst(Burst &burst, uint32_t mtbAddr) const
{
    // Check bits over the untransformed payload; the stored data is
    // the transformed payload.  A matching read address restores the
    // payload the parity was computed over.
    inner.encodeBurst(burst, 0);
    applyMask(burst, mtbAddr);
}

EccResult
EDeccTransformQpc::decode(const Burst &burst, uint32_t mtbAddr) const
{
    Burst restored = burst;
    applyMask(restored, mtbAddr);
    EccResult res = inner.decode(restored, 0);
    if (res.status == EccStatus::Uncorrectable) {
        // An address mismatch manifests as a wide orthogonal error
        // pattern; the decoder cannot distinguish it from severe data
        // corruption, so no address diagnosis is available.
        res.addressError = false;
    }
    return res;
}

} // namespace aiecc
