/**
 * @file
 * DDR4 command types and the pin-level command codec.
 *
 * encode() renders a logical command onto the 28-pin CCCA interface of
 * Figure 2; decode() recovers the command a DRAM device would latch
 * from (possibly corrupted) pin levels, following the JEDEC DDR4 truth
 * table.  The asymmetry between the two — many corrupted pin words
 * decode to a *different but well-formed* command — is exactly what
 * makes CCCA errors dangerous (Section II-C).
 */

#ifndef AIECC_DDR4_COMMAND_HH
#define AIECC_DDR4_COMMAND_HH

#include <string>

#include "ddr4/address.hh"
#include "ddr4/pins.hh"

namespace aiecc
{

/** A simulation timestamp in DRAM command-clock cycles. */
using Cycle = uint64_t;

/** The DDR4 command set (JESD79-4 truth table). */
enum class CmdType
{
    Des,     ///< deselect (CS_n high): no command
    Nop,     ///< no operation
    Act,     ///< activate a row
    Rd,      ///< column read (BL8)
    Wr,      ///< column write (BL8)
    Pre,     ///< precharge one bank
    PreAll,  ///< precharge all banks (PRE with A10 high)
    Ref,     ///< refresh
    Mrs,     ///< mode register set (catastrophic if erroneous)
    Zqc,     ///< ZQ calibration
    Rfu,     ///< reserved-for-future-use encoding
};

/** Printable command mnemonic. */
const char *cmdName(CmdType type);

/** A logical DRAM command as the memory controller intends it. */
struct Command
{
    CmdType type = CmdType::Des;
    unsigned bg = 0;            ///< bank group (ACT/RD/WR/PRE)
    unsigned ba = 0;            ///< bank within group
    unsigned row = 0;           ///< row address (ACT)
    unsigned col = 0;           ///< burst-granular column (RD/WR)
    bool autoPrecharge = false; ///< A10 flag on RD/WR
    bool burstChop = false;     ///< BC_n flag on RD/WR

    bool operator==(const Command &other) const = default;

    /** The mnemonic and its operands, e.g. "RD bg1.ba2 col0x18 AP". */
    void render(TextBuf &out) const;
    std::string toString() const;

    static Command act(unsigned bg, unsigned ba, unsigned row);
    static Command rd(unsigned bg, unsigned ba, unsigned col,
                      bool ap = false);
    static Command wr(unsigned bg, unsigned ba, unsigned col,
                      bool ap = false);
    static Command pre(unsigned bg, unsigned ba);
    static Command preAll();
    static Command ref();
    static Command nop();
};

/**
 * What a DRAM device latches off the CCCA pins on one command edge.
 *
 * `executed` is false when the device ignores the edge entirely (CS_n
 * high, i.e. deselect) and `ckeHigh` is false when a CKE error pushed
 * the device toward a power-down state; either way the intended
 * command is lost without any device-side check firing.
 */
struct DecodedCommand
{
    Command cmd;
    bool executed = true;   ///< CS_n was low and CKE high
    bool ckeHigh = true;    ///< level of CKE
    bool odt = false;       ///< level of ODT (data signal integrity)
    bool parityBit = false; ///< level of PAR as received

    std::string toString() const;
};

/**
 * Render a command onto the CCCA pins.
 *
 * All don't-care address pins are driven low; CKE is driven high, CK
 * is represented as a constant 1, and PAR is left low — the controller
 * model fills it in according to the active parity mode.
 *
 * @param cmd The logical command.
 * @return Pin levels for the command edge.
 */
PinWord encodeCommand(const Command &cmd);

/**
 * Decode the command a DDR4 device latches from @p pins.
 *
 * Implements the JEDEC truth table: CS_n gates everything, ACT_n
 * selects row activation (remapping RAS/CAS/WE as A16..A14), and the
 * RAS/CAS/WE levels otherwise select MRS/REF/PRE/RFU/WR/RD/ZQC/NOP.
 *
 * @param pins Electrical levels on the 28 pins.
 * @return The latched command and control-signal context.
 */
DecodedCommand decodeCommand(const PinWord &pins);

/**
 * Drive the PAR pin of an encoded command.
 *
 * @param pins In/out pin word.
 * @param wrtBit The write-toggle state folded into extended CA parity
 *               (always false for plain DDR4 CA parity).
 */
void driveParity(PinWord &pins, bool wrtBit);

/**
 * Device-side CA parity check.
 *
 * @param pins Received pin levels.
 * @param wrtBit The device's view of the write-toggle bit (false for
 *               plain CA parity).
 * @return True if the received PAR is consistent.
 */
bool checkParity(const PinWord &pins, bool wrtBit);

} // namespace aiecc

#endif // AIECC_DDR4_COMMAND_HH
