#include "ddr4/command.hh"

#include <iterator>
#include <sstream>

namespace aiecc
{

namespace
{

/** Pin-mask bit of @p pin. */
constexpr uint32_t
bit(Pin pin)
{
    return 1u << static_cast<unsigned>(pin);
}

/** Function pins WE_n/CAS_n/RAS_n (pins 19..21) as a 3-bit code. */
constexpr unsigned funcShift = static_cast<unsigned>(Pin::WE_A14);
constexpr uint32_t funcPins = 7u << funcShift;

/** Bank pins BA0, BA1, BG0, BG1 (pins 15..18) as ba | bg << 2. */
constexpr unsigned bankShift = static_cast<unsigned>(Pin::BA0);

/** Column address pins A0..A9 (pins 0..9). */
constexpr uint32_t colPins = 0x3FF;

/**
 * RAS_n/CAS_n/WE_n levels (RAS the high bit) of each command type,
 * indexed by CmdType.  DES leaves them high; ACT replaces them with
 * row bits A16..A14.
 */
constexpr uint8_t funcCode[] = {
    7, // Des
    7, // Nop
    7, // Act
    5, // Rd
    4, // Wr
    2, // Pre
    2, // PreAll
    1, // Ref
    0, // Mrs
    6, // Zqc
    3, // Rfu
};
static_assert(std::size(funcCode) == static_cast<size_t>(CmdType::Rfu) + 1);

/** Command types by function code (code 2 is PRE or PREA by A10). */
constexpr CmdType funcType[8] = {
    CmdType::Mrs, CmdType::Ref, CmdType::Pre, CmdType::Rfu,
    CmdType::Wr,  CmdType::Rd,  CmdType::Zqc, CmdType::Nop,
};

constexpr uint32_t
bankPins(unsigned bg, unsigned ba)
{
    return ((ba & 3u) | (bg & 3u) << 2) << bankShift;
}

/**
 * Row address A0..A17 onto the ACT pins: A0..A11 -> pins 0..11,
 * A12 -> 14, A13 -> 12, A14..A16 -> 19..21, A17 -> 13.
 */
constexpr uint32_t
rowPins(unsigned row)
{
    return (row & 0xFFFu) | ((row >> 12) & 1u) << 14 |
           ((row >> 13) & 1u) << 12 | ((row >> 14) & 7u) << 19 |
           ((row >> 17) & 1u) << 13;
}

/** Inverse of rowPins(). */
constexpr unsigned
pinsRow(uint32_t levels)
{
    return (levels & 0xFFFu) | ((levels >> 14) & 1u) << 12 |
           ((levels >> 12) & 1u) << 13 | ((levels >> 19) & 7u) << 14 |
           ((levels >> 13) & 1u) << 17;
}

void
readBankBits(uint32_t levels, unsigned &bg, unsigned &ba)
{
    const unsigned bank = (levels >> bankShift) & 0xF;
    ba = bank & 3;
    bg = bank >> 2;
}

} // namespace

const char *
cmdName(CmdType type)
{
    switch (type) {
      case CmdType::Des: return "DES";
      case CmdType::Nop: return "NOP";
      case CmdType::Act: return "ACT";
      case CmdType::Rd: return "RD";
      case CmdType::Wr: return "WR";
      case CmdType::Pre: return "PRE";
      case CmdType::PreAll: return "PREA";
      case CmdType::Ref: return "REF";
      case CmdType::Mrs: return "MRS";
      case CmdType::Zqc: return "ZQC";
      case CmdType::Rfu: return "RFU";
    }
    return "?";
}

void
Command::render(TextBuf &out) const
{
    out.add(cmdName(type));
    switch (type) {
      case CmdType::Act:
        out.add(" bg").dec(bg).add(".ba").dec(ba).add(" row0x").hex(row);
        break;
      case CmdType::Rd:
      case CmdType::Wr:
        out.add(" bg").dec(bg).add(".ba").dec(ba).add(" col0x").hex(col);
        if (autoPrecharge)
            out.add(" AP");
        if (burstChop)
            out.add(" BC");
        break;
      case CmdType::Pre:
        out.add(" bg").dec(bg).add(".ba").dec(ba);
        break;
      default:
        break;
    }
}

std::string
Command::toString() const
{
    TextBuf out;
    render(out);
    return out.str();
}

Command
Command::act(unsigned bg, unsigned ba, unsigned row)
{
    Command c;
    c.type = CmdType::Act;
    c.bg = bg;
    c.ba = ba;
    c.row = row;
    return c;
}

Command
Command::rd(unsigned bg, unsigned ba, unsigned col, bool ap)
{
    Command c;
    c.type = CmdType::Rd;
    c.bg = bg;
    c.ba = ba;
    c.col = col;
    c.autoPrecharge = ap;
    return c;
}

Command
Command::wr(unsigned bg, unsigned ba, unsigned col, bool ap)
{
    Command c;
    c.type = CmdType::Wr;
    c.bg = bg;
    c.ba = ba;
    c.col = col;
    c.autoPrecharge = ap;
    return c;
}

Command
Command::pre(unsigned bg, unsigned ba)
{
    Command c;
    c.type = CmdType::Pre;
    c.bg = bg;
    c.ba = ba;
    return c;
}

Command
Command::preAll()
{
    Command c;
    c.type = CmdType::PreAll;
    return c;
}

Command
Command::ref()
{
    Command c;
    c.type = CmdType::Ref;
    return c;
}

Command
Command::nop()
{
    Command c;
    c.type = CmdType::Nop;
    return c;
}

std::string
DecodedCommand::toString() const
{
    std::ostringstream out;
    out << cmd.toString();
    if (!executed)
        out << " (not executed)";
    if (!ckeHigh)
        out << " (CKE low)";
    return out.str();
}

PinWord
encodeCommand(const Command &cmd)
{
    // Deasserted defaults: CS_n/ACT_n high, CKE high, clock nominal,
    // address pins low, ODT low, PAR low (driven later).
    PinWord pins;
    pins.levels = bit(Pin::CKE) | bit(Pin::CK) | bit(Pin::ACT) |
                  funcCode[static_cast<unsigned>(cmd.type)] << funcShift;
    if (cmd.type == CmdType::Des) {
        pins.levels |= bit(Pin::CS);
        return pins;
    }

    switch (cmd.type) {
      case CmdType::Act:
        pins.levels = (pins.levels & ~(bit(Pin::ACT) | funcPins)) |
                      rowPins(cmd.row) | bankPins(cmd.bg, cmd.ba);
        break;

      case CmdType::Rd:
      case CmdType::Wr:
        pins.levels |= (cmd.col & colPins) | bankPins(cmd.bg, cmd.ba) |
                       (cmd.autoPrecharge ? bit(Pin::A10_AP) : 0) |
                       // BC_n is active low: high for a full BL8 burst.
                       (cmd.burstChop ? 0 : bit(Pin::A12_BC)) |
                       // ODT asserted for writes (receiver termination).
                       (cmd.type == CmdType::Wr ? bit(Pin::ODT) : 0);
        break;

      case CmdType::Pre:
        pins.levels |= bankPins(cmd.bg, cmd.ba);
        break;

      case CmdType::PreAll:
        pins.levels |= bit(Pin::A10_AP);
        break;

      default:
        break;
    }
    return pins;
}

DecodedCommand
decodeCommand(const PinWord &pins)
{
    const uint32_t levels = pins.levels;
    DecodedCommand dec;
    dec.ckeHigh = levels & bit(Pin::CKE);
    dec.odt = levels & bit(Pin::ODT);
    dec.parityBit = levels & bit(Pin::PAR);

    if ((levels & bit(Pin::CS)) || !dec.ckeHigh) {
        // Deselected, or CKE dropped: the edge is ignored (a CKE low
        // level additionally nudges the device toward power-down).
        dec.cmd.type = CmdType::Des;
        dec.executed = false;
        return dec;
    }

    Command &cmd = dec.cmd;
    if (!(levels & bit(Pin::ACT))) {
        cmd.type = CmdType::Act;
        cmd.row = pinsRow(levels);
        readBankBits(levels, cmd.bg, cmd.ba);
        return dec;
    }

    cmd.type = funcType[(levels & funcPins) >> funcShift];
    switch (cmd.type) {
      case CmdType::Pre:
        if (levels & bit(Pin::A10_AP))
            cmd.type = CmdType::PreAll;
        readBankBits(levels, cmd.bg, cmd.ba);
        break;
      case CmdType::Rd:
      case CmdType::Wr:
        cmd.col = levels & colPins;
        cmd.autoPrecharge = levels & bit(Pin::A10_AP);
        cmd.burstChop = !(levels & bit(Pin::A12_BC));
        readBankBits(levels, cmd.bg, cmd.ba);
        break;
      default:
        break;
    }
    return dec;
}

void
driveParity(PinWord &pins, bool wrtBit)
{
    pins.set(Pin::PAR, false);
    pins.set(Pin::PAR, pins.cmdAddParity() ^ wrtBit);
}

bool
checkParity(const PinWord &pins, bool wrtBit)
{
    return pins.get(Pin::PAR) == (pins.cmdAddParity() ^ wrtBit);
}

} // namespace aiecc
