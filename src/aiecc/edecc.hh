/**
 * @file
 * Extended data ECC (eDECC), the combined-ECC variant — Section IV-A
 * of the AIECC paper.
 *
 * Chipkill codes are shortened Reed-Solomon codes with unused
 * correction capacity: the same parity symbols can cover a longer
 * codeword at no storage cost.  eDECC appends the 32-bit MTB address
 * to the message as *virtual* symbols that are never stored or
 * transferred — the encoder folds the write address into the parity,
 * and the decoder re-appends the read address.  A read that fetched
 * the wrong location yields the inconsistent tuple {read address,
 * other data, other parity}, which decodes as an error *located in the
 * address symbols*, recovering the address DRAM actually used (precise
 * diagnosis, Section IV-F).
 *
 * Two organizations mirror the paper's Figure 5:
 *  - EDeccQpc: RS(76,68) — QPC Bamboo extended with 4 address symbols;
 *  - EDeccAmd: 4 x RS(19,17) — AMD chipkill, one address symbol per
 *    codeword.
 */

#ifndef AIECC_AIECC_EDECC_HH
#define AIECC_AIECC_EDECC_HH

#include "ecc/data_ecc.hh"
#include "rs/rs_code.hh"

namespace aiecc
{

/** QPC Bamboo ECC extended with 4 virtual address symbols. */
class EDeccQpc : public DataEcc
{
  public:
    EDeccQpc();

    const char *name() const override { return "QPC+eDECC-c"; }
    void encodeBurst(Burst &burst, uint32_t mtbAddr) const override;
    EccResult decode(const Burst &burst, uint32_t mtbAddr) const override;
    bool protectsAddress() const override { return true; }
    bool preciseDiagnosis() const override { return true; }

    /** Codeword geometry: 64 data + 4 address + 8 parity symbols. */
    static constexpr unsigned addrSymbols = 4;

  private:
    RsCodec rs;
    /** Decode scratch; stacks own their codecs, so this is unshared. */
    mutable RsWorkspace ws;
};

/** AMD chipkill extended with one virtual address symbol per word. */
class EDeccAmd : public DataEcc
{
  public:
    EDeccAmd();

    const char *name() const override { return "AMD+eDECC-c"; }
    void encodeBurst(Burst &burst, uint32_t mtbAddr) const override;
    EccResult decode(const Burst &burst, uint32_t mtbAddr) const override;
    bool protectsAddress() const override { return true; }
    bool preciseDiagnosis() const override { return true; }

    static constexpr unsigned numWords = 4;
    static constexpr unsigned dataChips = 16;
    static constexpr unsigned checkChips = 2;

  private:
    RsCodec rs;
    /** Decode scratch; stacks own their codecs, so this is unshared. */
    mutable RsWorkspace ws;
};

} // namespace aiecc

#endif // AIECC_AIECC_EDECC_HH
