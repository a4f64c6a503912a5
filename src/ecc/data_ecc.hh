/**
 * @file
 * The data-ECC interface shared by every chipkill organization in the
 * repository (plain and address-extended).
 *
 * An implementation maps a 512-bit MTB payload (plus, for the eDECC
 * variants, the 32-bit MTB address) to the 576-bit burst that is
 * stored in and transferred from DRAM, and decodes a received burst
 * given the address the memory controller believes it read.
 */

#ifndef AIECC_ECC_DATA_ECC_HH
#define AIECC_ECC_DATA_ECC_HH

#include <cstdint>
#include <optional>

#include "common/bitvec.hh"
#include "ddr4/burst.hh"

namespace aiecc
{

/** Outcome of decoding one memory transfer block. */
enum class EccStatus
{
    Clean,          ///< codeword consistent with the read address
    Corrected,      ///< errors located and corrected
    Uncorrectable,  ///< detected, beyond the correction capability
};

/** Everything a data-ECC decode reports. */
struct EccResult
{
    EccStatus status = EccStatus::Clean;
    /** Best-effort corrected payload (trustworthy unless Uncorrectable). */
    BitVec data{Burst::dataBits};
    /** Number of symbols the decoder corrected (data + address). */
    unsigned symbolsCorrected = 0;
    /** The decoder attributed (part of) the error to the address. */
    bool addressError = false;
    /**
     * Bitmask of x4 chips (bit c = chip c of Burst::numChips) whose
     * symbols the decoder corrected.  Parity chips are included;
     * virtual address symbols are not (they have no chip).  RAS
     * telemetry uses this to recognize chip-concentrated error
     * streams (chipkill signatures).
     */
    uint32_t correctedChips = 0;
    /**
     * The write address recovered by an address-protecting code with
     * precise diagnosis (eDECC combined, Section IV-F).
     */
    std::optional<uint32_t> recoveredAddress;

    /** Detected anything at all (corrected or not)? */
    bool detected() const { return status != EccStatus::Clean; }
};

/** Abstract chipkill data-ECC organization. */
class DataEcc
{
  public:
    virtual ~DataEcc() = default;

    /** Scheme name for reports ("QPC", "QPC+eDECC-c", ...). */
    virtual const char *name() const = 0;

    /**
     * Encode in place: the data pins (0..63) of @p burst already hold
     * the 512-bit payload, pin p carrying byte p.  Fills the check
     * pins (64..71) and, for the address-transform variants, applies
     * the address mask to the data pins, so afterwards @p burst is the
     * 576-bit burst to transfer/store.  Whatever the check pins held
     * on entry is overwritten.
     *
     * @param burst Payload in, full codeword out.
     * @param mtbAddr Packed 32-bit MTB write address (ignored by
     *                data-only schemes).
     */
    virtual void encodeBurst(Burst &burst, uint32_t mtbAddr) const = 0;

    /**
     * Encode a payload into a full burst: setData() + encodeBurst().
     *
     * @param data 512-bit MTB payload.
     * @param mtbAddr Packed 32-bit MTB write address.
     * @return The 576-bit burst to transfer/store.
     */
    Burst encode(const BitVec &data, uint32_t mtbAddr) const;

    /**
     * Decode a received burst.
     *
     * @param burst The 576 bits as received.
     * @param mtbAddr Packed MTB address the controller *believes* it
     *                read (held in the controller, never exposed to
     *                transmission errors).
     * @return Decode status, corrected data, and address diagnosis.
     */
    virtual EccResult decode(const Burst &burst,
                             uint32_t mtbAddr) const = 0;

    /** True if the scheme binds the address into the code. */
    virtual bool protectsAddress() const = 0;

    /** True if address errors are diagnosed (wrong address recovered). */
    virtual bool preciseDiagnosis() const = 0;

    /**
     * Redundancy bits resident per stored block (the storage side of
     * the cost model).  Every organization here fills all 64 check
     * bits of the burst; the address-extended variants reuse those
     * same bits, which is exactly the paper's zero-extra-storage
     * argument for eDECC.
     */
    virtual unsigned redundancyBits() const { return Burst::checkBits; }
};

} // namespace aiecc

#endif // AIECC_ECC_DATA_ECC_HH
