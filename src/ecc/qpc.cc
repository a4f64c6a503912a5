#include "ecc/qpc.hh"

namespace aiecc
{

QpcEcc::QpcEcc()
    : rs(Burst::numPins, Burst::dataPins)
{
}

void
QpcEcc::encodeBurst(Burst &burst, uint32_t mtbAddr) const
{
    (void)mtbAddr;
    // Pin symbol p is byte p of the payload, so the first 64 pin bytes
    // are the RS message in place.
    GfElem parity[Burst::checkPins];
    rs.parityInto(&burst.pinBits[0], parity);
    for (unsigned j = 0; j < Burst::checkPins; ++j)
        burst.setPinSymbol(Burst::dataPins + j, parity[j]);
}

EccResult
QpcEcc::decode(const Burst &burst, uint32_t mtbAddr) const
{
    (void)mtbAddr;
    GfElem received[Burst::numPins];
    for (unsigned p = 0; p < Burst::numPins; ++p)
        received[p] = burst.pinSymbol(p);

    uint8_t positions[Burst::checkPins];
    unsigned numPositions = 0;
    const auto status =
        rs.decodeInto(received, ws, positions, numPositions);

    EccResult res;
    res.data = burst.data();
    switch (status) {
      case RsCodec::Status::Ok:
        res.status = EccStatus::Clean;
        break;
      case RsCodec::Status::Corrected:
        res.status = EccStatus::Corrected;
        res.symbolsCorrected = numPositions;
        // Pin symbols map 4-per-chip, so position/4 is the x4 chip.
        for (unsigned i = 0; i < numPositions; ++i)
            res.correctedChips |= 1u << (positions[i] / Burst::pinsPerChip);
        res.data.setBytes(0, received, Burst::dataPins);
        break;
      case RsCodec::Status::Uncorrectable:
        res.status = EccStatus::Uncorrectable;
        break;
    }
    return res;
}

} // namespace aiecc
