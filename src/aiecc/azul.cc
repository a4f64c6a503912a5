#include "aiecc/azul.hh"

#include "crc/crc.hh"

namespace aiecc
{

void
AzulQpc::applyCrc(Burst &burst, uint32_t mtbAddr)
{
    const uint32_t crc = Crc::azulCrc4().computeWord(mtbAddr, 32);
    for (unsigned chip : replicaChips) {
        for (unsigned bit = 0; bit < 4; ++bit) {
            if ((crc >> bit) & 1) {
                const unsigned pin = chip * Burst::pinsPerChip + bit;
                burst.setBit(pin, 0, !burst.getBit(pin, 0));
            }
        }
    }
}

void
AzulQpc::encodeBurst(Burst &burst, uint32_t mtbAddr) const
{
    inner.encodeBurst(burst, 0);
    applyCrc(burst, mtbAddr);
}

EccResult
AzulQpc::decode(const Burst &burst, uint32_t mtbAddr) const
{
    Burst restored = burst;
    applyCrc(restored, mtbAddr);
    EccResult res = inner.decode(restored, 0);
    if (res.status != EccStatus::Corrected)
        return res;

    // A CRC mismatch leaves an identical nonzero nibble in the first
    // beat of all three replica chips.  When the residue is small
    // enough, QPC "corrects" it like a data error; the triplication
    // makes the pattern recognizable, so the controller re-derives the
    // applied corrections and attributes them to the address instead
    // of silently consuming data fetched from the wrong location.
    Burst corrected = restored;
    corrected.setData(res.data);

    Burst diff = corrected;
    diff ^= restored;

    // Extract the per-replica nibble deltas and blank the slots.
    uint8_t nibble[3];
    for (unsigned r = 0; r < 3; ++r) {
        nibble[r] = 0;
        for (unsigned bit = 0; bit < 4; ++bit) {
            const unsigned pin =
                replicaChips[r] * Burst::pinsPerChip + bit;
            if (diff.getBit(pin, 0)) {
                nibble[r] |= static_cast<uint8_t>(1u << bit);
                diff.setBit(pin, 0, false);
            }
        }
    }

    if (nibble[0] != 0 && nibble[0] == nibble[1] &&
        nibble[1] == nibble[2]) {
        res.addressError = true;
        // No diagnosis: a 4-bit CRC cannot recover the faulty address.
    }
    return res;
}

} // namespace aiecc
