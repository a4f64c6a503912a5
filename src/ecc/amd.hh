/**
 * @file
 * AMD-style chipkill ECC (BKDG family 15h), the multi-codeword
 * baseline of the AIECC paper.
 *
 * Each 72-bit-wide, 2-beat slice of the burst forms an RS(18, 16)
 * codeword over GF(2^8): one 8-bit symbol per x4 chip (4 pins x 2
 * beats).  Four such codewords cover the 8-beat MTB.  Two parity
 * symbols give single-symbol (single-chip-per-codeword) correction,
 * so a failed chip corrupts exactly one symbol in each codeword and
 * is fully corrected.
 */

#ifndef AIECC_ECC_AMD_HH
#define AIECC_ECC_AMD_HH

#include "ecc/data_ecc.hh"
#include "rs/rs_code.hh"

namespace aiecc
{

/** Data-only AMD chipkill (4 x RS(18,16) over chip symbols). */
class AmdChipkillEcc : public DataEcc
{
  public:
    AmdChipkillEcc();

    const char *name() const override { return "AMD-chipkill"; }
    void encodeBurst(Burst &burst, uint32_t mtbAddr) const override;
    EccResult decode(const Burst &burst, uint32_t mtbAddr) const override;
    bool protectsAddress() const override { return false; }
    bool preciseDiagnosis() const override { return false; }

    /** Number of codewords per burst. */
    static constexpr unsigned numWords = 4;
    /** Data chips (symbols) per codeword. */
    static constexpr unsigned dataChips = 16;
    /** Check chips per codeword. */
    static constexpr unsigned checkChips = 2;

  private:
    RsCodec rs;
    /** Decode scratch; stacks own their codecs, so this is unshared. */
    mutable RsWorkspace ws;
};

} // namespace aiecc

#endif // AIECC_ECC_AMD_HH
