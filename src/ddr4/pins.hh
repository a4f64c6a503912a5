/**
 * @file
 * The DDR4 CCCA pin interface (Figure 2 of the AIECC paper).
 *
 * 28 non-data pins issue and control four signal groups: clock (CK),
 * control (CKE, CS, ODT), command and address (which time-multiplex the
 * remaining pins), plus the dedicated command/address parity pin (PAR).
 * Pin numbering follows the paper's Figure 2: pin 27 is CK and pins
 * 22..0 form the CMD/ADD group.
 */

#ifndef AIECC_DDR4_PINS_HH
#define AIECC_DDR4_PINS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace aiecc
{

/** The 28 CCCA pins of the DDR4 command interface. */
enum class Pin : uint8_t
{
    A0 = 0, A1, A2, A3, A4, A5, A6, A7, A8, A9, ///< pins 0..9
    A10_AP = 10,    ///< A10 / auto-precharge flag
    A11 = 11,
    A13 = 12,
    A17 = 13,
    A12_BC = 14,    ///< A12 / burst-chop flag
    BA0 = 15,
    BA1 = 16,
    BG0 = 17,
    BG1 = 18,
    WE_A14 = 19,    ///< WE_n, or A14 during ACT
    CAS_A15 = 20,   ///< CAS_n, or A15 during ACT
    RAS_A16 = 21,   ///< RAS_n, or A16 during ACT
    ACT = 22,       ///< ACT_n (active low)
    PAR = 23,       ///< command/address parity
    ODT = 24,       ///< on-die termination
    CS = 25,        ///< CS_n (active low)
    CKE = 26,       ///< clock enable (active high)
    CK = 27,        ///< clock; errors modeled as all-pin noise
};

/** Total number of CCCA pins (including CK and PAR). */
inline constexpr unsigned numCccaPins = 28;

/** Number of CMD/ADD pins (Figure 2 pins 22..0). */
inline constexpr unsigned numCmdAddPins = 23;

/** Signal group of a pin, per Figure 2. */
enum class PinGroup
{
    CmdAdd,   ///< pins 22..0: time-multiplexed command/address
    Par,      ///< pin 23: CA parity
    Ctrl,     ///< pins 26..24: CKE, CS, ODT
    Clock,    ///< pin 27: CK
};

/** Map a pin to its Figure 2 group. */
PinGroup pinGroup(Pin pin);

/** Human-readable pin name ("RAS/A16", "CKE", ...). */
const char *pinName(Pin pin);

/**
 * The set of pins eligible for error injection.
 *
 * @param includePar Include the PAR pin (false models the unprotected
 *                   configuration where the pin is absent, per §V-A).
 * @return All injectable pins except CK, which is modeled as a source
 *         of all-pin errors rather than a single-pin error (§V-A).
 */
std::vector<Pin> injectablePins(bool includePar);

/**
 * One command edge's worth of CCCA pin levels.
 *
 * Bit i holds the electrical level of pin i (1 = high).  Active-low
 * signals therefore read 0 when asserted.  CK is carried as a nominal
 * constant 1 and only participates in the all-pin error model.
 */
struct PinWord
{
    uint32_t levels = 0;

    bool get(Pin pin) const
    {
        return (levels >> static_cast<unsigned>(pin)) & 1;
    }

    void
    set(Pin pin, bool value)
    {
        const uint32_t m = 1u << static_cast<unsigned>(pin);
        levels = value ? (levels | m) : (levels & ~m);
    }

    void flip(Pin pin) { levels ^= 1u << static_cast<unsigned>(pin); }

    bool operator==(const PinWord &other) const = default;

    /**
     * Even parity over the CMD/ADD group (pins 22..0), the quantity the
     * DDR4 CA-parity feature transmits on PAR.
     */
    bool cmdAddParity() const;

    /** Render as a per-pin level listing for diagnostics. */
    std::string toString() const;
};

} // namespace aiecc

#endif // AIECC_DDR4_PINS_HH
