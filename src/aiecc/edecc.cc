#include "aiecc/edecc.hh"

namespace aiecc
{

namespace
{

GfElem
addrByte(uint32_t mtbAddr, unsigned j)
{
    return static_cast<GfElem>((mtbAddr >> (8 * j)) & 0xFF);
}

} // namespace

// ---------------------------------------------------------------------
// EDeccQpc: RS(76, 68); positions 0..63 data, 64..67 address (virtual),
// 68..75 parity.
// ---------------------------------------------------------------------

EDeccQpc::EDeccQpc()
    : rs(Burst::numPins + addrSymbols, Burst::dataPins + addrSymbols)
{
}

void
EDeccQpc::encodeBurst(Burst &burst, uint32_t mtbAddr) const
{
    GfElem message[Burst::dataPins + addrSymbols];
    for (unsigned p = 0; p < Burst::dataPins; ++p)
        message[p] = burst.pinSymbol(p);
    for (unsigned j = 0; j < addrSymbols; ++j)
        message[Burst::dataPins + j] = addrByte(mtbAddr, j);

    GfElem parity[Burst::checkPins];
    rs.parityInto(message, parity);
    // The address symbols are virtual: only data + parity are stored.
    for (unsigned j = 0; j < Burst::checkPins; ++j)
        burst.setPinSymbol(Burst::dataPins + j, parity[j]);
}

EccResult
EDeccQpc::decode(const Burst &burst, uint32_t mtbAddr) const
{
    // Reassemble the full codeword: received data symbols, the read
    // address as the virtual symbols, received parity.
    GfElem received[Burst::numPins + addrSymbols];
    for (unsigned p = 0; p < Burst::dataPins; ++p)
        received[p] = burst.pinSymbol(p);
    for (unsigned j = 0; j < addrSymbols; ++j)
        received[Burst::dataPins + j] = addrByte(mtbAddr, j);
    for (unsigned j = 0; j < Burst::checkPins; ++j)
        received[Burst::dataPins + addrSymbols + j] =
            burst.pinSymbol(Burst::dataPins + j);

    uint8_t positions[Burst::checkPins];
    unsigned numPositions = 0;
    const auto status =
        rs.decodeInto(received, ws, positions, numPositions);

    EccResult res;
    res.data = burst.data();
    switch (status) {
      case RsCodec::Status::Ok:
        res.status = EccStatus::Clean;
        return res;

      case RsCodec::Status::Corrected: {
        res.status = EccStatus::Corrected;
        res.symbolsCorrected = numPositions;
        res.data.setBytes(0, received, Burst::dataPins);
        for (unsigned i = 0; i < numPositions; ++i) {
            if (positions[i] >= Burst::dataPins &&
                positions[i] < Burst::dataPins + addrSymbols) {
                res.addressError = true;
            } else {
                // Stored symbols: data pins sit at their pin index,
                // parity pins are shifted up by the virtual address
                // symbols.  Either way position/4 names the x4 chip
                // once the virtual offset is removed.
                const unsigned pin = positions[i] < Burst::dataPins
                                         ? positions[i]
                                         : positions[i] - addrSymbols;
                res.correctedChips |= 1u << (pin / Burst::pinsPerChip);
            }
        }
        if (res.addressError) {
            // Precise diagnosis: the corrected virtual symbols are the
            // address DRAM actually used (Figure 5b).
            uint32_t recovered = 0;
            for (unsigned j = 0; j < addrSymbols; ++j) {
                recovered |= static_cast<uint32_t>(
                                 received[Burst::dataPins + j])
                             << (8 * j);
            }
            res.recoveredAddress = recovered;
        }
        return res;
      }

      case RsCodec::Status::Uncorrectable:
        res.status = EccStatus::Uncorrectable;
        return res;
    }
    return res;
}

// ---------------------------------------------------------------------
// EDeccAmd: 4 x RS(19, 17); positions 0..15 chip symbols, 16 address
// (virtual), 17..18 parity.
// ---------------------------------------------------------------------

EDeccAmd::EDeccAmd()
    : rs(dataChips + 1 + checkChips, dataChips + 1)
{
}

void
EDeccAmd::encodeBurst(Burst &burst, uint32_t mtbAddr) const
{
    // Lane-minor interleave with the per-word address byte as the
    // seventeenth message symbol of each lane.
    GfElem messages[(dataChips + 1) * numWords];
    for (unsigned chip = 0; chip < dataChips; ++chip)
        burst.amdChipSymbols(chip, &messages[chip * numWords]);
    for (unsigned w = 0; w < numWords; ++w)
        messages[dataChips * numWords + w] = addrByte(mtbAddr, w);

    GfElem parities[checkChips * numWords];
    rs.parityBatch(messages, parities, numWords);
    for (unsigned j = 0; j < checkChips; ++j)
        burst.setAmdChipSymbols(dataChips + j, &parities[j * numWords]);
}

EccResult
EDeccAmd::decode(const Burst &burst, uint32_t mtbAddr) const
{
    GfElem received[(dataChips + 1 + checkChips) * numWords];
    for (unsigned chip = 0; chip < dataChips; ++chip)
        burst.amdChipSymbols(chip, &received[chip * numWords]);
    for (unsigned w = 0; w < numWords; ++w)
        received[dataChips * numWords + w] = addrByte(mtbAddr, w);
    for (unsigned j = 0; j < checkChips; ++j)
        burst.amdChipSymbols(dataChips + j,
                             &received[(dataChips + 1 + j) * numWords]);

    RsCodec::LaneResult lanes[numWords];
    rs.decodeBatch(received, numWords, lanes, ws);

    EccResult res;
    bool anyCorrected = false;
    uint32_t recovered = 0;
    bool addrRecovered = false;

    for (unsigned w = 0; w < numWords; ++w) {
        switch (lanes[w].status) {
          case RsCodec::Status::Ok:
            recovered |= static_cast<uint32_t>(addrByte(mtbAddr, w))
                         << (8 * w);
            break;
          case RsCodec::Status::Corrected:
            anyCorrected = true;
            res.symbolsCorrected += lanes[w].numPositions;
            for (unsigned i = 0; i < lanes[w].numPositions; ++i) {
                if (lanes[w].positions[i] == dataChips) {
                    res.addressError = true;
                } else {
                    // Symbols past the virtual address slot belong to
                    // the parity chips, one step down.
                    const unsigned chip =
                        lanes[w].positions[i] < dataChips
                            ? lanes[w].positions[i]
                            : lanes[w].positions[i] - 1;
                    res.correctedChips |= 1u << chip;
                }
            }
            recovered |= static_cast<uint32_t>(
                             received[dataChips * numWords + w])
                         << (8 * w);
            addrRecovered = true;
            break;
          case RsCodec::Status::Uncorrectable:
            res.status = EccStatus::Uncorrectable;
            res.data = burst.data();
            return res;
        }
    }

    Burst corrected = burst;
    for (unsigned chip = 0; chip < dataChips; ++chip)
        corrected.setAmdChipSymbols(chip, &received[chip * numWords]);
    res.status = anyCorrected ? EccStatus::Corrected : EccStatus::Clean;
    res.data = corrected.data();
    if (res.addressError && addrRecovered)
        res.recoveredAddress = recovered;
    return res;
}

} // namespace aiecc
