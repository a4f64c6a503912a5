/**
 * @file
 * QPC Bamboo ECC: the quadruple-pin-correcting chipkill organization
 * of Kim et al. (HPCA 2015), used by the AIECC paper as its strong
 * data-ECC baseline.
 *
 * One RS(72, 64) codeword over GF(2^8) covers the whole burst, with
 * one 8-bit symbol per DQ pin (8 beats down a pin).  Eight parity
 * symbols correct any 4 pin symbols — a whole x4 chip (4 pins) plus
 * margin — giving chipkill-correct with a single codeword.
 */

#ifndef AIECC_ECC_QPC_HH
#define AIECC_ECC_QPC_HH

#include "ecc/data_ecc.hh"
#include "rs/rs_code.hh"

namespace aiecc
{

/** Data-only QPC Bamboo ECC (RS(72,64) over pin symbols). */
class QpcEcc : public DataEcc
{
  public:
    QpcEcc();

    const char *name() const override { return "QPC"; }
    void encodeBurst(Burst &burst, uint32_t mtbAddr) const override;
    EccResult decode(const Burst &burst, uint32_t mtbAddr) const override;
    bool protectsAddress() const override { return false; }
    bool preciseDiagnosis() const override { return false; }

    /** Symbol-error correction capability (4 pins = 1 chip). */
    unsigned t() const { return rs.t(); }

  private:
    RsCodec rs;
    /** Decode scratch; stacks own their codecs, so this is unshared. */
    mutable RsWorkspace ws;
};

} // namespace aiecc

#endif // AIECC_ECC_QPC_HH
