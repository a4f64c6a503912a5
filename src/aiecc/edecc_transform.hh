/**
 * @file
 * eDECC-t: the codeword-transformation variant of extended data ECC,
 * adapted from Nicholas/IBM (US 8,949,694) to QPC Bamboo ECC exactly
 * as the paper's Section V-B does for its Table III comparison.
 *
 * The 64B payload is split into 32 sub-blocks of 16 bits, aligned
 * *orthogonally* to the Bamboo pin symbols (each sub-block spans 16
 * pins in one beat).  Sub-block i is XOR-flipped when address bit i is
 * set.  Check bits are computed over the *untransformed* data, so a
 * read with the wrong address leaves a residue of >= 16 single-bit
 * symbol errors — far beyond the correction power of QPC — and is
 * reported detectable-but-uncorrectable.  Unlike combined eDECC, no
 * diagnosis of the faulty address is possible.
 */

#ifndef AIECC_AIECC_EDECC_TRANSFORM_HH
#define AIECC_AIECC_EDECC_TRANSFORM_HH

#include "ecc/qpc.hh"

namespace aiecc
{

/** Transformation-based address-protecting QPC (Table III: eDECC-t). */
class EDeccTransformQpc : public DataEcc
{
  public:
    EDeccTransformQpc() = default;

    const char *name() const override { return "QPC+eDECC-t"; }
    void encodeBurst(Burst &burst, uint32_t mtbAddr) const override;
    EccResult decode(const Burst &burst, uint32_t mtbAddr) const override;
    bool protectsAddress() const override { return true; }
    bool preciseDiagnosis() const override { return false; }

    static constexpr unsigned numSubBlocks = 32;
    static constexpr unsigned subBlockBits = 16;

    /**
     * XOR the address mask into a burst's data pins: sub-block i
     * (pins 16*(i/8) .. +15 at beat i%8) flips iff address bit i is
     * set.  Involutory, so the same call transforms and restores.
     */
    static void applyMask(Burst &burst, uint32_t mtbAddr);

  private:
    QpcEcc inner;
};

} // namespace aiecc

#endif // AIECC_AIECC_EDECC_TRANSFORM_HH
