#include "ecc/amd.hh"

namespace aiecc
{

AmdChipkillEcc::AmdChipkillEcc()
    : rs(dataChips + checkChips, dataChips)
{
}

void
AmdChipkillEcc::encodeBurst(Burst &burst, uint32_t mtbAddr) const
{
    (void)mtbAddr;
    // Lane-minor interleave: symbol i of codeword w at [i*numWords+w],
    // which is exactly the four symbols one chip contributes.
    GfElem messages[dataChips * numWords];
    for (unsigned chip = 0; chip < dataChips; ++chip)
        burst.amdChipSymbols(chip, &messages[chip * numWords]);

    GfElem parities[checkChips * numWords];
    rs.parityBatch(messages, parities, numWords);
    for (unsigned j = 0; j < checkChips; ++j)
        burst.setAmdChipSymbols(dataChips + j, &parities[j * numWords]);
}

EccResult
AmdChipkillEcc::decode(const Burst &burst, uint32_t mtbAddr) const
{
    (void)mtbAddr;
    GfElem received[(dataChips + checkChips) * numWords];
    for (unsigned chip = 0; chip < dataChips + checkChips; ++chip)
        burst.amdChipSymbols(chip, &received[chip * numWords]);

    RsCodec::LaneResult lanes[numWords];
    rs.decodeBatch(received, numWords, lanes, ws);

    EccResult res;
    bool anyCorrected = false;
    for (unsigned w = 0; w < numWords; ++w) {
        switch (lanes[w].status) {
          case RsCodec::Status::Ok:
            break;
          case RsCodec::Status::Corrected:
            anyCorrected = true;
            res.symbolsCorrected += lanes[w].numPositions;
            // Codeword symbol i is chip i's contribution.
            for (unsigned i = 0; i < lanes[w].numPositions; ++i)
                res.correctedChips |= 1u << lanes[w].positions[i];
            break;
          case RsCodec::Status::Uncorrectable:
            res.status = EccStatus::Uncorrectable;
            res.data = burst.data();
            return res;
        }
    }

    // Every lane clean: the burst's own data is the answer.
    if (!anyCorrected) {
        res.data = burst.data();
        return res;
    }
    Burst corrected = burst;
    for (unsigned chip = 0; chip < dataChips; ++chip)
        corrected.setAmdChipSymbols(chip, &received[chip * numWords]);
    res.status = EccStatus::Corrected;
    res.data = corrected.data();
    return res;
}

} // namespace aiecc
