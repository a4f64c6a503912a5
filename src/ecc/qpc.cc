#include "ecc/qpc.hh"

#include "common/logging.hh"

namespace aiecc
{

QpcEcc::QpcEcc()
    : rs(Burst::numPins, Burst::dataPins)
{
}

Burst
QpcEcc::encode(const BitVec &data, uint32_t mtbAddr) const
{
    (void)mtbAddr;
    AIECC_ASSERT(data.size() == Burst::dataBits, "QPC encode: bad size");
    Burst out;
    out.setData(data);

    // setData() makes pin symbol p equal byte p of the payload, so the
    // first 64 pin bytes are the RS message in place.
    GfElem parity[Burst::checkPins];
    rs.parityInto(&out.pinBits[0], parity);
    for (unsigned j = 0; j < Burst::checkPins; ++j)
        out.setPinSymbol(Burst::dataPins + j, parity[j]);
    return out;
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
