/**
 * @file
 * Unit tests for the DDR4 pin map and command codec: encode/decode
 * round trips, the JEDEC truth table, don't-care pin behaviour (the
 * basis of Table II's "no error" cells), and parity driving/checking.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "ddr4/command.hh"
#include "ddr4/pins.hh"

namespace aiecc
{
namespace
{

TEST(Pins, GroupsMatchFigure2)
{
    EXPECT_EQ(pinGroup(Pin::A0), PinGroup::CmdAdd);
    EXPECT_EQ(pinGroup(Pin::ACT), PinGroup::CmdAdd);
    EXPECT_EQ(pinGroup(Pin::RAS_A16), PinGroup::CmdAdd);
    EXPECT_EQ(pinGroup(Pin::PAR), PinGroup::Par);
    EXPECT_EQ(pinGroup(Pin::CKE), PinGroup::Ctrl);
    EXPECT_EQ(pinGroup(Pin::CS), PinGroup::Ctrl);
    EXPECT_EQ(pinGroup(Pin::ODT), PinGroup::Ctrl);
    EXPECT_EQ(pinGroup(Pin::CK), PinGroup::Clock);
}

TEST(Pins, InjectablePinCounts)
{
    // 27 CTRL/CMD/ADD signals when PAR participates (§V-A), 26 when
    // the pin is absent; CK is never a 1-pin target.
    EXPECT_EQ(injectablePins(true).size(), 27u);
    EXPECT_EQ(injectablePins(false).size(), 26u);
}

TEST(Pins, CmdAddParityCoversOnlyPins22to0)
{
    PinWord w;
    EXPECT_FALSE(w.cmdAddParity());
    w.set(Pin::A0, true);
    EXPECT_TRUE(w.cmdAddParity());
    w.set(Pin::ACT, true);
    EXPECT_FALSE(w.cmdAddParity());
    // CTRL and PAR pins do not affect CA parity.
    w.set(Pin::CKE, true);
    w.set(Pin::CS, true);
    w.set(Pin::PAR, true);
    EXPECT_FALSE(w.cmdAddParity());
}

TEST(Command, EncodeDecodeActRoundTrip)
{
    Rng rng(71);
    for (int i = 0; i < 200; ++i) {
        const auto cmd = Command::act(
            static_cast<unsigned>(rng.below(4)),
            static_cast<unsigned>(rng.below(4)),
            static_cast<unsigned>(rng.below(1u << 18)));
        const auto dec = decodeCommand(encodeCommand(cmd));
        EXPECT_TRUE(dec.executed);
        EXPECT_EQ(dec.cmd.type, CmdType::Act);
        EXPECT_EQ(dec.cmd.row, cmd.row);
        EXPECT_EQ(dec.cmd.bg, cmd.bg);
        EXPECT_EQ(dec.cmd.ba, cmd.ba);
    }
}

TEST(Command, EncodeDecodeColumnRoundTrip)
{
    Rng rng(72);
    for (int i = 0; i < 200; ++i) {
        const bool isRead = rng.chance(0.5);
        auto cmd = isRead
            ? Command::rd(static_cast<unsigned>(rng.below(4)),
                          static_cast<unsigned>(rng.below(4)),
                          static_cast<unsigned>(rng.below(1024)))
            : Command::wr(static_cast<unsigned>(rng.below(4)),
                          static_cast<unsigned>(rng.below(4)),
                          static_cast<unsigned>(rng.below(1024)));
        cmd.autoPrecharge = rng.chance(0.3);
        cmd.burstChop = rng.chance(0.3);
        const auto dec = decodeCommand(encodeCommand(cmd));
        EXPECT_EQ(dec.cmd.type, isRead ? CmdType::Rd : CmdType::Wr);
        EXPECT_EQ(dec.cmd.col, cmd.col);
        EXPECT_EQ(dec.cmd.bg, cmd.bg);
        EXPECT_EQ(dec.cmd.ba, cmd.ba);
        EXPECT_EQ(dec.cmd.autoPrecharge, cmd.autoPrecharge);
        EXPECT_EQ(dec.cmd.burstChop, cmd.burstChop);
    }
}

TEST(Command, TruthTableAllTypes)
{
    for (CmdType t : {CmdType::Nop, CmdType::Ref, CmdType::PreAll,
                      CmdType::Mrs, CmdType::Zqc, CmdType::Rfu}) {
        Command c;
        c.type = t;
        EXPECT_EQ(decodeCommand(encodeCommand(c)).cmd.type, t)
            << cmdName(t);
    }
    const auto pre = Command::pre(2, 3);
    const auto dec = decodeCommand(encodeCommand(pre));
    EXPECT_EQ(dec.cmd.type, CmdType::Pre);
    EXPECT_EQ(dec.cmd.bg, 2u);
    EXPECT_EQ(dec.cmd.ba, 3u);
}

TEST(Command, DeselectIsNotExecuted)
{
    Command des;
    des.type = CmdType::Des;
    const auto dec = decodeCommand(encodeCommand(des));
    EXPECT_FALSE(dec.executed);
    EXPECT_EQ(dec.cmd.type, CmdType::Des);
}

TEST(Command, CsErrorDropsCommand)
{
    // A CS_n low->high flip deselects the device: a missing command.
    auto pins = encodeCommand(Command::wr(0, 0, 8));
    pins.flip(Pin::CS);
    const auto dec = decodeCommand(pins);
    EXPECT_FALSE(dec.executed);
}

TEST(Command, CkeErrorDropsCommand)
{
    auto pins = encodeCommand(Command::rd(0, 0, 8));
    pins.flip(Pin::CKE);
    const auto dec = decodeCommand(pins);
    EXPECT_FALSE(dec.executed);
    EXPECT_FALSE(dec.ckeHigh);
}

TEST(Command, WrUnusedPinsMatchTableII)
{
    // Table II: A11, A13 and A17 do not participate in WR (or RD).
    const auto wr = Command::wr(1, 2, 0x155);
    const auto base = decodeCommand(encodeCommand(wr));
    for (Pin p : {Pin::A11, Pin::A13, Pin::A17}) {
        auto pins = encodeCommand(wr);
        pins.flip(p);
        const auto dec = decodeCommand(pins);
        EXPECT_EQ(dec.cmd, base.cmd) << pinName(p);
    }
}

TEST(Command, PreUnusedPinsMatchTableII)
{
    // Table II: fourteen pins (A17, A13..A11, A9..A0) are don't-care
    // for PRE.
    const auto pre = Command::pre(1, 2);
    const auto base = decodeCommand(encodeCommand(pre));
    const Pin unused[] = {Pin::A17, Pin::A13, Pin::A12_BC, Pin::A11,
                          Pin::A9, Pin::A8, Pin::A7, Pin::A6, Pin::A5,
                          Pin::A4, Pin::A3, Pin::A2, Pin::A1, Pin::A0};
    EXPECT_EQ(std::size(unused), 14u);
    for (Pin p : unused) {
        auto pins = encodeCommand(pre);
        pins.flip(p);
        EXPECT_EQ(decodeCommand(pins).cmd, base.cmd) << pinName(p);
    }
    // A10 is NOT a don't-care: it turns PRE into PREA.
    auto pins = encodeCommand(pre);
    pins.flip(Pin::A10_AP);
    EXPECT_EQ(decodeCommand(pins).cmd.type, CmdType::PreAll);
}

TEST(Command, ActPinErrorChangesRow)
{
    const auto act = Command::act(0, 0, 0x0F0F0);
    for (unsigned bitPos = 0; bitPos < 18; ++bitPos) {
        auto pins = encodeCommand(act);
        // Flipping any row-address pin flips exactly that row bit.
        const Pin rowPins[18] = {
            Pin::A0, Pin::A1, Pin::A2, Pin::A3, Pin::A4, Pin::A5,
            Pin::A6, Pin::A7, Pin::A8, Pin::A9, Pin::A10_AP, Pin::A11,
            Pin::A12_BC, Pin::A13, Pin::WE_A14, Pin::CAS_A15,
            Pin::RAS_A16, Pin::A17};
        pins.flip(rowPins[bitPos]);
        const auto dec = decodeCommand(pins);
        EXPECT_EQ(dec.cmd.type, CmdType::Act);
        EXPECT_EQ(dec.cmd.row, act.row ^ (1u << bitPos));
    }
}

TEST(Command, RdToWrAliasByWePin)
{
    // WE_n separates RD (high) from WR (low): a 1-pin error aliases
    // the two dangerous column commands.
    auto pins = encodeCommand(Command::rd(0, 1, 64));
    pins.flip(Pin::WE_A14);
    EXPECT_EQ(decodeCommand(pins).cmd.type, CmdType::Wr);
}

TEST(Command, ActAliasByActPin)
{
    // Flipping ACT_n during an ACT re-interprets the row bits on
    // RAS/CAS/WE as a function code (the Table II "altered command"
    // transitions).
    const auto act = Command::act(0, 0, 0); // A16..A14 low => MRS code
    auto pins = encodeCommand(act);
    pins.flip(Pin::ACT);
    EXPECT_EQ(decodeCommand(pins).cmd.type, CmdType::Mrs);

    const auto act2 = Command::act(0, 0, 0x1C000); // A16..A14 high
    auto pins2 = encodeCommand(act2);
    pins2.flip(Pin::ACT);
    EXPECT_EQ(decodeCommand(pins2).cmd.type, CmdType::Nop);
}

TEST(Command, ParityRoundTrip)
{
    Rng rng(73);
    for (int i = 0; i < 100; ++i) {
        const auto cmd = Command::act(
            static_cast<unsigned>(rng.below(4)),
            static_cast<unsigned>(rng.below(4)),
            static_cast<unsigned>(rng.below(1u << 18)));
        auto pins = encodeCommand(cmd);
        const bool wrtBit = rng.chance(0.5);
        driveParity(pins, wrtBit);
        EXPECT_TRUE(checkParity(pins, wrtBit));
        // A WRT disagreement is detected (eCAP missing-WR detection).
        EXPECT_FALSE(checkParity(pins, !wrtBit));
    }
}

TEST(Command, ParityDetectsOddPinErrors)
{
    auto pins = encodeCommand(Command::wr(2, 1, 0x88));
    driveParity(pins, false);
    for (Pin p : injectablePins(false)) {
        if (pinGroup(p) != PinGroup::CmdAdd)
            continue;
        auto bad = pins;
        bad.flip(p);
        EXPECT_FALSE(checkParity(bad, false)) << pinName(p);
    }
}

TEST(Command, ParityMissesEvenCmdAddErrors)
{
    // The CAP weakness the paper exploits with 2-pin errors (§V-A2).
    auto pins = encodeCommand(Command::wr(2, 1, 0x88));
    driveParity(pins, false);
    auto bad = pins;
    bad.flip(Pin::A0);
    bad.flip(Pin::A1);
    EXPECT_TRUE(checkParity(bad, false));
}

TEST(Command, ParityMissesCtrlErrors)
{
    // CKE/CS/ODT are outside CA parity coverage (§III-A).
    auto pins = encodeCommand(Command::rd(0, 0, 0));
    driveParity(pins, false);
    for (Pin p : {Pin::CKE, Pin::CS, Pin::ODT}) {
        auto bad = pins;
        bad.flip(p);
        EXPECT_TRUE(checkParity(bad, false)) << pinName(p);
    }
}

// ---- Differential test: mask codec vs a per-pin reference ------------

/**
 * Reference codec: the per-pin loop form, one PinWord::set()/get() per
 * pin, so the mask codec is checked against an independent rendering
 * of the truth table.
 */
constexpr Pin refAddrPin[18] = {
    Pin::A0, Pin::A1, Pin::A2, Pin::A3, Pin::A4, Pin::A5, Pin::A6,
    Pin::A7, Pin::A8, Pin::A9, Pin::A10_AP, Pin::A11, Pin::A12_BC,
    Pin::A13, Pin::WE_A14, Pin::CAS_A15, Pin::RAS_A16, Pin::A17,
};

void
refDriveBank(PinWord &pins, unsigned bg, unsigned ba)
{
    pins.set(Pin::BG0, bg & 1);
    pins.set(Pin::BG1, (bg >> 1) & 1);
    pins.set(Pin::BA0, ba & 1);
    pins.set(Pin::BA1, (ba >> 1) & 1);
}

void
refReadBank(const PinWord &pins, unsigned &bg, unsigned &ba)
{
    bg = (pins.get(Pin::BG0) ? 1u : 0u) | (pins.get(Pin::BG1) ? 2u : 0u);
    ba = (pins.get(Pin::BA0) ? 1u : 0u) | (pins.get(Pin::BA1) ? 2u : 0u);
}

void
refFunc(PinWord &pins, bool ras, bool cas, bool we)
{
    pins.set(Pin::RAS_A16, ras);
    pins.set(Pin::CAS_A15, cas);
    pins.set(Pin::WE_A14, we);
}

PinWord
refEncode(const Command &cmd)
{
    PinWord pins;
    pins.set(Pin::CKE, true);
    pins.set(Pin::CK, true);
    pins.set(Pin::CS, true);
    pins.set(Pin::ACT, true);
    refFunc(pins, true, true, true);
    if (cmd.type == CmdType::Des)
        return pins;
    pins.set(Pin::CS, false);
    switch (cmd.type) {
      case CmdType::Act:
        pins.set(Pin::ACT, false);
        for (unsigned i = 0; i < 18; ++i)
            pins.set(refAddrPin[i], (cmd.row >> i) & 1);
        refDriveBank(pins, cmd.bg, cmd.ba);
        break;
      case CmdType::Rd:
      case CmdType::Wr:
        refFunc(pins, true, false, cmd.type == CmdType::Rd);
        for (unsigned i = 0; i < 10; ++i)
            pins.set(refAddrPin[i], (cmd.col >> i) & 1);
        pins.set(Pin::A10_AP, cmd.autoPrecharge);
        pins.set(Pin::A12_BC, !cmd.burstChop);
        refDriveBank(pins, cmd.bg, cmd.ba);
        pins.set(Pin::ODT, cmd.type == CmdType::Wr);
        break;
      case CmdType::Pre:
      case CmdType::PreAll:
        refFunc(pins, false, true, false);
        pins.set(Pin::A10_AP, cmd.type == CmdType::PreAll);
        if (cmd.type == CmdType::Pre)
            refDriveBank(pins, cmd.bg, cmd.ba);
        break;
      case CmdType::Ref: refFunc(pins, false, false, true); break;
      case CmdType::Mrs: refFunc(pins, false, false, false); break;
      case CmdType::Zqc: refFunc(pins, true, true, false); break;
      case CmdType::Rfu: refFunc(pins, false, true, true); break;
      default: break;
    }
    return pins;
}

DecodedCommand
refDecode(const PinWord &pins)
{
    DecodedCommand dec;
    dec.ckeHigh = pins.get(Pin::CKE);
    dec.odt = pins.get(Pin::ODT);
    dec.parityBit = pins.get(Pin::PAR);
    if (pins.get(Pin::CS) || !dec.ckeHigh) {
        dec.cmd.type = CmdType::Des;
        dec.executed = false;
        return dec;
    }
    Command &cmd = dec.cmd;
    if (!pins.get(Pin::ACT)) {
        cmd.type = CmdType::Act;
        for (unsigned i = 0; i < 18; ++i) {
            if (pins.get(refAddrPin[i]))
                cmd.row |= 1u << i;
        }
        refReadBank(pins, cmd.bg, cmd.ba);
        return dec;
    }
    const unsigned func = (pins.get(Pin::RAS_A16) ? 4u : 0u) |
                          (pins.get(Pin::CAS_A15) ? 2u : 0u) |
                          (pins.get(Pin::WE_A14) ? 1u : 0u);
    switch (func) {
      case 0: cmd.type = CmdType::Mrs; break;
      case 1: cmd.type = CmdType::Ref; break;
      case 2:
        cmd.type = pins.get(Pin::A10_AP) ? CmdType::PreAll : CmdType::Pre;
        refReadBank(pins, cmd.bg, cmd.ba);
        break;
      case 3: cmd.type = CmdType::Rfu; break;
      case 4:
      case 5:
        cmd.type = func == 5 ? CmdType::Rd : CmdType::Wr;
        for (unsigned i = 0; i < 10; ++i) {
            if (pins.get(refAddrPin[i]))
                cmd.col |= 1u << i;
        }
        cmd.autoPrecharge = pins.get(Pin::A10_AP);
        cmd.burstChop = !pins.get(Pin::A12_BC);
        refReadBank(pins, cmd.bg, cmd.ba);
        break;
      case 6: cmd.type = CmdType::Zqc; break;
      case 7: cmd.type = CmdType::Nop; break;
    }
    return dec;
}

/** Field-by-field comparison, so a failure names the field. */
::testing::AssertionResult
sameDecode(const DecodedCommand &got, const DecodedCommand &want,
           uint32_t levels)
{
    const Command &g = got.cmd;
    const Command &w = want.cmd;
    const struct
    {
        const char *name;
        bool same;
    } fields[] = {
        {"type", g.type == w.type},
        {"bg", g.bg == w.bg},
        {"ba", g.ba == w.ba},
        {"row", g.row == w.row},
        {"col", g.col == w.col},
        {"AP", g.autoPrecharge == w.autoPrecharge},
        {"BC", g.burstChop == w.burstChop},
        {"executed", got.executed == want.executed},
        {"ckeHigh", got.ckeHigh == want.ckeHigh},
        {"odt", got.odt == want.odt},
        {"parityBit", got.parityBit == want.parityBit},
    };
    for (const auto &f : fields) {
        if (!f.same) {
            return ::testing::AssertionFailure()
                   << f.name << " differs for pins 0x" << std::hex
                   << levels << ": got " << got.toString() << ", want "
                   << want.toString();
        }
    }
    return ::testing::AssertionSuccess();
}

constexpr CmdType allCmdTypes[] = {
    CmdType::Des,    CmdType::Nop, CmdType::Act, CmdType::Rd,
    CmdType::Wr,     CmdType::Pre, CmdType::PreAll, CmdType::Ref,
    CmdType::Mrs,    CmdType::Zqc, CmdType::Rfu,
};

Command
randomCommand(CmdType type, Rng &rng)
{
    Command c;
    c.type = type;
    c.bg = static_cast<unsigned>(rng.below(4));
    c.ba = static_cast<unsigned>(rng.below(4));
    c.row = static_cast<unsigned>(rng.below(1u << 18));
    c.col = static_cast<unsigned>(rng.below(1u << 10));
    c.autoPrecharge = rng.chance(0.5);
    c.burstChop = rng.chance(0.5);
    return c;
}

TEST(CommandCodecDiff, EveryTypeMatchesReference)
{
    Rng rng(0xC0DEC);
    for (CmdType type : allCmdTypes) {
        for (int i = 0; i < 2000; ++i) {
            Command cmd = randomCommand(type, rng);
            if (i == 0)
                cmd.row = (1u << 18) - 1;
            const PinWord pins = encodeCommand(cmd);
            ASSERT_EQ(pins.levels, refEncode(cmd).levels)
                << cmd.toString();
            ASSERT_TRUE(sameDecode(decodeCommand(pins), refDecode(pins),
                                   pins.levels));
        }
    }
}

TEST(CommandCodecDiff, RandomPinWordsMatchReference)
{
    Rng rng(0x28B175);
    for (int i = 0; i < 1000000; ++i) {
        PinWord pins;
        pins.levels = static_cast<uint32_t>(rng.next()) &
                      ((1u << numCccaPins) - 1);
        ASSERT_TRUE(sameDecode(decodeCommand(pins), refDecode(pins),
                               pins.levels));
    }
}

TEST(CommandCodecDiff, OneAndTwoPinFlipsMatchReference)
{
    Rng rng(0xF11B5);
    for (CmdType type : allCmdTypes) {
        for (int i = 0; i < 8; ++i) {
            PinWord pins = encodeCommand(randomCommand(type, rng));
            driveParity(pins, rng.chance(0.5));
            for (unsigned a = 0; a < numCccaPins; ++a) {
                for (unsigned b = a; b < numCccaPins; ++b) {
                    // b == a is the single flip of pin a.
                    PinWord bad = pins;
                    bad.levels ^= 1u << a;
                    if (b != a)
                        bad.levels ^= 1u << b;
                    ASSERT_TRUE(sameDecode(decodeCommand(bad),
                                           refDecode(bad), bad.levels));
                }
            }
        }
    }
}

TEST(Command, NamesArePrintable)
{
    for (unsigned i = 0; i < numCccaPins; ++i)
        EXPECT_STRNE(pinName(static_cast<Pin>(i)), "?");
    EXPECT_STREQ(cmdName(CmdType::Act), "ACT");
    EXPECT_NE(Command::act(1, 2, 3).toString().find("ACT"),
              std::string::npos);
}

} // namespace
} // namespace aiecc
