#include "dram/rank.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/logging.hh"
#include "crc/crc.hh"

namespace aiecc
{

std::array<uint8_t, Burst::numChips>
laneCrcs(const Burst &burst, WcrcMode mode, uint32_t packedAddr)
{
    // CRC(lane | addr << 32) = CRC(lane) ^ CRC(addr << 32): the CRC is
    // linear with a zero initial register, and the lane's 32-bit CRC
    // equals its 64-bit one because leading zero bytes leave a zero
    // register unchanged.  So the address term is computed once per
    // write, not once per chip.
    const Crc &crc = Crc::ddr4Crc8();
    const uint32_t addrTerm =
        mode == WcrcMode::DataAddress
            ? crc.computeWord(static_cast<uint64_t>(packedAddr) << 32, 64)
            : 0;
    std::array<uint8_t, Burst::numChips> out{};
    for (unsigned chip = 0; chip < Burst::numChips; ++chip)
        out[chip] = static_cast<uint8_t>(
            crc.computeWord(burst.chipWord(chip), 32) ^ addrTerm);
    return out;
}

DramRank::DramRank(const RankConfig &config)
    : cfg(config), cstc(config.geom, config.timing),
      garbage(config.garbageSeed),
      banks(config.geom.numBanks()),
      store(config.geom.mtbColBits())
{
}

void
DramRank::setObserver(obs::Observer *observer)
{
    oc = {};
    if (!observer || !observer->stats())
        return;
    obs::StatsRegistry &reg = *observer->stats();
    oc.capAlerts =
        &reg.counter("cap.alerts", "CA-parity (CAP/eCAP) mismatches");
    oc.wcrcAlerts =
        &reg.counter("wcrc.alerts", "write-CRC (WCRC/eWCRC) mismatches");
    oc.cstcAlerts = &reg.counter(
        "cstc.alerts", "command state/timing violations flagged");
    oc.garbageReads = &reg.counter(
        "rank.garbage_reads", "RDs served from no open row / bad mode");
    oc.droppedWrites = &reg.counter(
        "rank.dropped_writes", "WRs lost against a closed bank");
    oc.garbageBusWrites = &reg.counter(
        "rank.garbage_bus_writes",
        "spurious WRs that latched the undriven data bus");
    oc.rowCopyovers = &reg.counter(
        "rank.row_copyovers", "duplicate-ACT row copy-over events");
    oc.modeCorruptions = &reg.counter(
        "rank.mode_corruptions", "erroneous MRS config corruptions");
}

DramRank::Bank &
DramRank::bankOf(const Command &cmd)
{
    return banks[cmd.bg * cfg.geom.banksPerGroup() + cmd.ba];
}

const DramRank::Bank &
DramRank::bankOf(const Command &cmd) const
{
    return banks[cmd.bg * cfg.geom.banksPerGroup() + cmd.ba];
}

namespace
{

/**
 * Burst-ordering effect of the sub-burst column bits (A2..A0): a
 * column command whose low bits are nonzero starts the 8-beat burst
 * at a different word, re-ordering every pin's beats.  Intended
 * commands are always MTB-aligned, so this only triggers under
 * transmission errors on A0..A2.
 */
Burst
rotateBeats(const Burst &in, unsigned shift)
{
    Burst out;
    for (unsigned p = 0; p < Burst::numPins; ++p) {
        const unsigned v = in.pinBits[p];
        out.pinBits[p] = static_cast<uint8_t>(
            ((v >> shift) | (v << (8 - shift))) & 0xFF);
    }
    return out;
}

} // namespace

Burst
DramRank::defaultFill(uint32_t packedAddr)
{
    // A deterministic, address-dependent fill so that reads of
    // never-written cells agree between golden and faulty runs.
    Rng rng(0xF111ULL ^ (static_cast<uint64_t>(packedAddr) << 16));
    Burst b;
    b.randomize(rng);
    return b;
}

Burst
DramRank::load(uint32_t packedAddr) const
{
    if (const Burst *stored = store.find(packedAddr))
        return *stored;
    return cfg.fillFn ? cfg.fillFn(packedAddr) : defaultFill(packedAddr);
}

MtbAddress
DramRank::deviceAddress(const Command &cmd, const Bank &bank) const
{
    MtbAddress addr;
    addr.rank = 0;
    addr.bg = cmd.bg;
    addr.ba = cmd.ba;
    addr.row = bank.row;
    addr.col = cmd.col >> Geometry::burstBits;
    return addr;
}

Burst
DramRank::peek(const MtbAddress &addr) const
{
    return load(addr.pack(cfg.geom));
}

void
DramRank::poke(const MtbAddress &addr, const Burst &burst)
{
    store.put(addr.pack(cfg.geom), burst);
}

std::vector<MtbAddress>
DramRank::storedAddresses() const
{
    std::vector<MtbAddress> out;
    out.reserve(store.size());
    for (uint32_t packed : store.sortedKeys())
        out.push_back(MtbAddress::unpack(packed, cfg.geom));
    return out;
}

bool
DramRank::bankOpen(unsigned bg, unsigned ba) const
{
    return banks[bg * cfg.geom.banksPerGroup() + ba].open;
}

unsigned
DramRank::openRow(unsigned bg, unsigned ba) const
{
    return banks[bg * cfg.geom.banksPerGroup() + ba].row;
}

void
DramRank::cstcAlert(Cycle now, ExecResult &result, const char *why)
{
    if (oc.cstcAlerts)
        ++*oc.cstcAlerts;
    const Command &cmd = result.decoded.cmd;
    std::optional<unsigned> bank;
    if (cmd.type == CmdType::Act || cmd.type == CmdType::Rd ||
        cmd.type == CmdType::Wr || cmd.type == CmdType::Pre)
        bank = cmd.bg * cfg.geom.banksPerGroup() + cmd.ba;
    result.alert = Alert{AlertKind::Cstc, now, why, cmd, {}, bank};
}

ExecResult
DramRank::step(Cycle now, const PinWord &pins,
               const std::optional<WriteData> &wrData, bool dataCorrupt,
               const PinWord *sent)
{
    // While every edge arrives exactly as sent, the controller's WRT,
    // timing state and open rows equal the device's, so the parity,
    // CSTC and write-CRC checks would repeat the controller's own and
    // pass.  The device still executes, commits and toggles.
    inSync = inSync && sent && !dataCorrupt && pins == *sent;

    ExecResult result;
    result.decoded = decodeCommand(pins);
    const Command &cmd = result.decoded.cmd;

    if (!result.decoded.ckeHigh) {
        // A CKE glitch drops the device into fast power-down: the
        // edge is lost and the device stays asleep until CKE returns
        // high (between edges, since the controller always drives it
        // high on intended commands).
        if (!powerDown) {
            powerDown = true;
            pdEntry = now;
        }
        return result;
    }
    if (powerDown) {
        // CKE is high again: the device exits power-down.  A valid
        // command must honor tXP from the exit; the controller never
        // intended the power-down, so its next command usually
        // violates it — exactly the protocol breach the CSTC catches.
        powerDown = false;
        if (cfg.cstcEnabled && result.decoded.executed &&
            result.decoded.cmd.type != CmdType::Des &&
            result.decoded.cmd.type != CmdType::Nop &&
            now < pdEntry + cfg.timing.tXP) {
            cstcAlert(now, result,
                      "command violates tXP after power-down exit");
            return result;
        }
    }

    if (!result.decoded.executed) {
        // Deselected: the edge is invisible to the device.
        return result;
    }

    // 1. CA parity gates everything: on a mismatch the device blocks
    //    the command and pulses ALERT_n.
    if (cfg.parityMode != ParityMode::Off && !inSync) {
        const bool wrtForParity =
            cfg.parityMode == ParityMode::ECap ? wrt : false;
        if (!checkParity(pins, wrtForParity)) {
            if (oc.capAlerts)
                ++*oc.capAlerts;
            result.alert = Alert{AlertKind::CaParity, now, nullptr, cmd, {},
                                 std::nullopt};
            return result;
        }
    }

    // The device's write-toggle flips on every *received* WR command,
    // mirroring the controller-side toggle (Section IV-D).
    if (cfg.parityMode == ParityMode::ECap && cmd.type == CmdType::Wr)
        wrt = !wrt;

    // 2. CSTC: protocol state and timing validation (Section IV-C).
    if (cfg.cstcEnabled && !inSync) {
        if (const char *why = cstc.checkFast(now, cmd)) {
            cstcAlert(now, result, why);
            return result;
        }
    }

    // 3. Execute against the array.
    result.executed = true;
    switch (cmd.type) {
      case CmdType::Act:
        doActivate(now, cmd, result);
        break;
      case CmdType::Rd:
        doRead(now, cmd, dataCorrupt, result);
        break;
      case CmdType::Wr:
        doWrite(now, cmd, wrData, dataCorrupt, !inSync, result);
        break;
      case CmdType::Pre:
        bankOf(cmd).open = false;
        break;
      case CmdType::PreAll:
        for (auto &bank : banks)
            bank.open = false;
        break;
      case CmdType::Ref:
        // With retention margins a refresh (even a spurious one that
        // escaped the CSTC) does not disturb stored data (§IV-C).
        break;
      case CmdType::Mrs:
        // An erroneous mode-register write reconfigures the device:
        // burst length, latencies and termination no longer match the
        // controller, so all subsequent transfers are garbage.
        modeCorrupt = true;
        if (oc.modeCorruptions)
            ++*oc.modeCorruptions;
        break;
      case CmdType::Zqc:
      case CmdType::Rfu:
      case CmdType::Nop:
      case CmdType::Des:
        break;
    }

    if (cfg.cstcEnabled && result.executed)
        cstc.commit(now, cmd);

    return result;
}

void
DramRank::doActivate(Cycle now, const Command &cmd, ExecResult &result)
{
    (void)now;
    Bank &bank = bankOf(cmd);
    if (!bank.open) {
        bank.open = true;
        bank.row = cmd.row;
        return;
    }

    // Duplicate activation (Figure 3c): the bit lines still hold the
    // open row's values, so raising the new word line copies the open
    // row over the newly addressed one.
    const unsigned srcRow = bank.row;
    const unsigned dstRow = cmd.row;
    if (srcRow != dstRow) {
        if (oc.rowCopyovers)
            ++*oc.rowCopyovers;
        // Copy every column that is distinguishable from the default
        // fill in either row.
        const uint32_t srcBase =
            MtbAddress{0, cmd.bg, cmd.ba, srcRow, 0}.pack(cfg.geom);
        const uint32_t dstBase =
            MtbAddress{0, cmd.bg, cmd.ba, dstRow, 0}.pack(cfg.geom);
        std::vector<unsigned> cols;
        store.rowCols(srcBase >> store.colBits(), cols);
        store.rowCols(dstBase >> store.colBits(), cols);
        std::sort(cols.begin(), cols.end());
        cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
        for (unsigned col : cols)
            store.put(dstBase | col, load(srcBase | col));
        result.arrayMutated = !cols.empty();
    }
    bank.row = dstRow;
}

void
DramRank::doRead(Cycle now, const Command &cmd, bool dataCorrupt,
                 ExecResult &result)
{
    (void)now;
    const Bank &bank = bankOf(cmd);
    Burst out;
    if (!bank.open || modeCorrupt) {
        // No row in the sense amplifiers (or a corrupted device
        // configuration): the burst driven back is arbitrary.
        if (oc.garbageReads)
            ++*oc.garbageReads;
        out.randomize(garbage);
    } else {
        const MtbAddress addr = deviceAddress(cmd, bank);
        out = load(addr.pack(cfg.geom));
        const unsigned shift = cmd.col & mask(Geometry::burstBits);
        if (shift)
            out = rotateBeats(out, shift);
        if (disturb)
            disturb(addr, out);
        if (dataCorrupt) {
            // Signal-integrity loss (e.g. an ODT error): flip a few
            // transferred bits.
            const unsigned flips =
                static_cast<unsigned>(garbage.range(1, 8));
            for (unsigned i = 0; i < flips; ++i) {
                const unsigned pin =
                    static_cast<unsigned>(garbage.below(Burst::numPins));
                const unsigned beat = static_cast<unsigned>(
                    garbage.below(Burst::numBeats));
                out.setBit(pin, beat, !out.getBit(pin, beat));
            }
        }
    }
    result.readData = out;
    if (cmd.autoPrecharge)
        bankOf(cmd).open = false;
}

void
DramRank::doWrite(Cycle now, const Command &cmd,
                  const std::optional<WriteData> &wrData, bool dataCorrupt,
                  bool checkCrc, ExecResult &result)
{
    Bank &bank = bankOf(cmd);

    // Assemble what actually arrives at the device's data receivers.
    WriteData received;
    if (wrData) {
        received = *wrData;
        if (dataCorrupt) {
            const unsigned flips =
                static_cast<unsigned>(garbage.range(1, 8));
            for (unsigned i = 0; i < flips; ++i) {
                const unsigned pin =
                    static_cast<unsigned>(garbage.below(Burst::numPins));
                const unsigned beat = static_cast<unsigned>(
                    garbage.below(Burst::numBeats));
                received.burst.setBit(pin, beat,
                                      !received.burst.getBit(pin, beat));
            }
        }
    } else {
        // An erroneous command turned into a WR: the controller drives
        // nothing, and the device interprets the undriven bus (random
        // or termination-pulled levels) as data and CRC (§IV-C).
        if (oc.garbageBusWrites)
            ++*oc.garbageBusWrites;
        received.burst.randomize(garbage);
        for (auto &c : received.crc)
            c = static_cast<uint8_t>(garbage.below(256));
        received.crcValid = true;
    }

    // Write CRC check happens before the array is touched (early
    // detection, §IV-B).  The device computes the reference CRC from
    // the data it received and, for eWCRC, from *its own* view of the
    // target MTB address.
    if (checkCrc && cfg.wcrcMode != WcrcMode::Off && received.crcValid &&
        bank.open && !modeCorrupt) {
        const MtbAddress devAddr = deviceAddress(cmd, bank);
        const bool mismatch =
            laneCrcs(received.burst, cfg.wcrcMode,
                     devAddr.pack(cfg.geom)) != received.crc;
        if (mismatch) {
            if (oc.wcrcAlerts)
                ++*oc.wcrcAlerts;
            result.alert = Alert{AlertKind::Wcrc, now, nullptr, cmd,
                                 devAddr, devAddr.flatBank(cfg.geom)};
            // The write is blocked: no array mutation.
            return;
        }
    }

    if (!bank.open) {
        // No word line is raised: the write never lands.  The intended
        // destination silently keeps stale data.
        if (oc.droppedWrites)
            ++*oc.droppedWrites;
        return;
    }

    const MtbAddress addr = deviceAddress(cmd, bank);
    Burst toStore = received.burst;
    const unsigned shift = cmd.col & mask(Geometry::burstBits);
    if (shift)
        toStore = rotateBeats(toStore, 8 - shift);
    if (modeCorrupt) {
        // Misconfigured burst length / latency scrambles the beats.
        toStore.randomize(garbage);
    }
    store.put(addr.pack(cfg.geom), toStore);
    result.arrayMutated = true;

    if (cmd.autoPrecharge)
        bank.open = false;
}

} // namespace aiecc
