/**
 * @file
 * Precise CCCA error diagnosis (Section IV-F).
 *
 * When eDECC recovers the address DRAM actually used, comparing it
 * with the intended address pinpoints the faulty address bits — and,
 * through the command's pin mapping, the faulty physical pins.  Repair
 * logic can then retune the drive/delay of exactly those pins.
 */

#ifndef AIECC_AIECC_DIAGNOSIS_HH
#define AIECC_AIECC_DIAGNOSIS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ddr4/address.hh"
#include "ddr4/pins.hh"
#include "obs/trace.hh"

namespace aiecc
{

/** The result of diagnosing one address mismatch. */
struct AddressDiagnosis
{
    uint32_t intended = 0;   ///< packed MTB address the host meant
    uint32_t observed = 0;   ///< packed MTB address DRAM used
    /** MTB-address bit positions that differ. */
    std::vector<unsigned> faultyBits;
    /**
     * Physical pins implicated for a given command type: row-address
     * bits map to ACT-time pins, column bits to RD/WR-time pins, bank
     * bits to BG/BA pins.
     */
    std::vector<Pin> suspectPins;

    bool faulty() const { return !faultyBits.empty(); }
    std::string toString() const;
};

/**
 * Diagnose an address mismatch reported by eDECC.
 *
 * @param intended Packed address the controller believes it accessed.
 * @param observed Packed address recovered from the codeword.
 * @param geom Address geometry (for field boundaries).
 * @return Faulty bit positions and the implicated CCCA pins.
 */
AddressDiagnosis diagnoseAddress(uint32_t intended, uint32_t observed,
                                 const Geometry &geom = Geometry{});

/**
 * diagnoseAddress()'s suspect pins, in the same order, without the
 * heap: the form a trace event carries.
 */
obs::PinList suspectPins(uint32_t intended, uint32_t observed,
                         const Geometry &geom = Geometry{});

/**
 * The Diagnosis trace event for one mismatch: label = first suspect
 * pin ("?" when none), value = intended << 32 | observed, the suspect
 * list its detail renders from, and the typed pin a RAS monitor reads.
 */
obs::TraceEvent diagnosisTrace(uint32_t intended, uint32_t observed,
                               const Geometry &geom);

} // namespace aiecc

#endif // AIECC_AIECC_DIAGNOSIS_HH
