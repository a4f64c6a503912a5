/**
 * @file
 * Device-side protection configuration and alert reporting shared by
 * the DRAM rank model and the memory controller.
 */

#ifndef AIECC_DRAM_CONFIG_HH
#define AIECC_DRAM_CONFIG_HH

#include <cstdint>
#include <functional>
#include <optional>

#include "ddr4/address.hh"
#include "ddr4/burst.hh"
#include "ddr4/command.hh"
#include "ddr4/timing.hh"

namespace aiecc
{

/** CA-parity flavor implemented by the device (Figure 4c / §IV-D). */
enum class ParityMode
{
    Off,   ///< PAR pin absent / ignored
    Cap,   ///< DDR4 CA parity over the CMD/ADD pins
    ECap,  ///< extended CA parity: CMD/ADD pins + write-toggle bit
};

/** Write-CRC flavor implemented by the device (Figure 4b / §IV-B). */
enum class WcrcMode
{
    Off,          ///< no write CRC
    Data,         ///< DDR4 WCRC: per-chip CRC-8 of write data
    DataAddress,  ///< eWCRC: per-chip CRC-8 of write data + MTB address
};

/** Source of a device-side error alert (ALERT_n pulse). */
enum class AlertKind
{
    CaParity,  ///< CA parity (CAP or eCAP) mismatch
    Wcrc,      ///< write CRC (WCRC or eWCRC) mismatch
    Cstc,      ///< command state / timing violation
};

/**
 * One device-side detection event, as the facts its text is built
 * from (aiecc/detection.hh renders it only where text is wanted).
 */
struct Alert
{
    AlertKind kind;
    Cycle when = 0;
    /**
     * Why the CSTC blocked the command: a static reason string
     * (Cstc::checkFast's, or the tXP power-down-exit breach); nullptr
     * for the other kinds.
     */
    const char *why = nullptr;
    /** The command as the device decoded it. */
    Command cmd{};
    /** WCRC: the device's own view of the written MTB address. */
    MtbAddress deviceAddress{};
    /**
     * Flat bank index the offending command addressed, when the alert
     * is attributable to one bank (WCRC mismatch, most CSTC checks).
     * CA-parity alerts block the command before it is decoded, so no
     * bank is known.
     */
    std::optional<unsigned> flatBank;
};

/** Static configuration of a DRAM rank model. */
struct RankConfig
{
    Geometry geom{};
    TimingParams timing = TimingParams::ddr4_2400();
    ParityMode parityMode = ParityMode::Off;
    WcrcMode wcrcMode = WcrcMode::Off;
    bool cstcEnabled = false;
    uint64_t garbageSeed = 0xD12A; ///< seed for undriven-bus garbage

    /**
     * Content of never-written locations, as a function of the packed
     * MTB address.  The protection stack points this at the active ECC
     * encoder so the model behaves as if the entire array had been
     * initialized with valid codewords; unset, a deterministic
     * address-dependent random fill is used.
     */
    std::function<Burst(uint32_t packedAddr)> fillFn;
};

} // namespace aiecc

#endif // AIECC_DRAM_CONFIG_HH
