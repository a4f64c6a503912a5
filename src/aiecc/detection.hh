/**
 * @file
 * Detection-event taxonomy for coverage attribution (Figures 7 and 8).
 */

#ifndef AIECC_AIECC_DETECTION_HH
#define AIECC_AIECC_DETECTION_HH

#include <optional>

#include "ddr4/address.hh"
#include "ddr4/command.hh"
#include "dram/config.hh"
#include "obs/trace.hh"

namespace aiecc
{

/** The protection mechanism that raised a detection. */
enum class Mechanism
{
    Cap,    ///< DDR4 CA parity
    ECap,   ///< extended CA parity (incl. WRT mismatches)
    Wcrc,   ///< DDR4 write CRC
    EWcrc,  ///< extended write CRC
    Cstc,   ///< command state and timing checker
    Decc,   ///< data-only ECC (corrected or DUE)
    EDecc,  ///< extended data ECC (address-aware)
};

/** Printable mechanism name. */
const char *mechanismName(Mechanism mech);

/** One detection raised anywhere in the protection stack. */
struct DetectionEvent
{
    Mechanism mech;
    Cycle when = 0;
    /**
     * The detection fired before any storage corruption could occur
     * (command blocked), so a simple retry corrects it (§IV-G).
     */
    bool early = false;
    /** The mechanism attributed the error to the address. */
    bool addressError = false;
    /** The error was corrected in place (data ECC corrections). */
    bool corrected = false;
    /** Precisely diagnosed address (eDECC combined only, §IV-F). */
    std::optional<uint32_t> diagnosedAddress;
    /**
     * Packed MTB address of the access that raised the detection
     * (data-ECC decodes only; device alerts fire before any array
     * address is resolved).  RAS telemetry infers fault topology from
     * this corrected-error address stream.
     */
    std::optional<uint32_t> accessAddress;
    /** Chips whose symbols were corrected (EccResult::correctedChips). */
    uint32_t correctedChips = 0;
    /** The device alert behind an early detection (CAP/WCRC/CSTC). */
    std::optional<Alert> alert{};
    /** Scheme name of the data codec that flagged a decode. */
    const char *codec = nullptr;
    /** Lineage fault ID under test when this fired (0 = none). */
    uint64_t faultId = 0;
};

/**
 * The trace event a detection becomes: label = mechanism name,
 * value = the best address evidence (a precise eDECC diagnosis, else
 * the access address of the flagged read), the facts its detail text
 * renders from (the alert's command, reason or device address; the
 * codec and access address of a flagged read), and the typed symptom
 * fields a RAS monitor reads.
 */
obs::TraceEvent detectionTrace(const DetectionEvent &event,
                               const Geometry &geom);

} // namespace aiecc

#endif // AIECC_AIECC_DETECTION_HH
