/**
 * @file
 * The Normoyle/Azul address-checksum baseline (US 7,203,890) adapted
 * to QPC, as evaluated in Table III of the AIECC paper.
 *
 * A 4-bit CRC of the MTB address is triplicated and XOR-merged into
 * the first beat of three chips after data-ECC encoding (the
 * triplication spreads the residue across >4 pin symbols so that the
 * quadruple-pin-correcting decoder cannot miscorrect it away — see the
 * paper's footnote in Section V-B).  On a read, the controller XORs
 * the read-address CRC back out: a wrong address whose CRC differs
 * leaves a detectable residue, but a wrong address whose 4-bit CRC
 * aliases (1/16 of random addresses, the 6.3% SDC cells of Table III)
 * is invisible.
 */

#ifndef AIECC_AIECC_AZUL_HH
#define AIECC_AIECC_AZUL_HH

#include "ecc/qpc.hh"

namespace aiecc
{

/** QPC + Azul 4-bit address-CRC merge (Table III: QPC+Azul). */
class AzulQpc : public DataEcc
{
  public:
    AzulQpc() = default;

    const char *name() const override { return "QPC+Azul"; }
    void encodeBurst(Burst &burst, uint32_t mtbAddr) const override;
    EccResult decode(const Burst &burst, uint32_t mtbAddr) const override;
    bool protectsAddress() const override { return true; }
    bool preciseDiagnosis() const override { return false; }

    /** Chips whose first beat carries a CRC replica. */
    static constexpr unsigned replicaChips[3] = {0, 6, 12};

    /** XOR the triplicated address CRC into/out of a burst. */
    static void applyCrc(Burst &burst, uint32_t mtbAddr);

  private:
    QpcEcc inner;
};

} // namespace aiecc

#endif // AIECC_AIECC_AZUL_HH
