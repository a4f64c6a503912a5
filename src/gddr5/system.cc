#include "gddr5/system.hh"

#include <sstream>

#include "common/logging.hh"

namespace aiecc
{
namespace gddr5
{

namespace
{

/** GDDR5-flavored timing bin for the reused CSTC. */
TimingParams
gddr5Timing()
{
    TimingParams t;
    t.tRC = 40;
    t.tRRD = 6;
    t.tFAW = 23;
    t.tRP = 12;
    t.tRFC = 65;
    t.tRCD = 12;
    t.tCCD = 2;
    t.tWTR = 5;
    t.tRAS = 28;
    t.tRTP = 2;
    t.tWR = 12;
    t.readLatency = 11;
    t.writeLatency = 3;
    t.burstCycles = 2;
    return t;
}

/** 16 banks mapped as 4 groups x 4 banks for the Cstc geometry. */
Geometry
gddr5Geometry()
{
    Geometry g;
    g.rowBits = 13;
    return g;
}

} // namespace

std::string
Protection::describe() const
{
    std::string out;
    auto add = [&](const char *s) {
        if (!out.empty())
            out += "+";
        out += s;
    };
    if (edc)
        add("EDC");
    if (extendWriteEdc)
        add("eWCRC-G");
    if (extendReadEdc)
        add("eRDCRC-G");
    if (cstc)
        add("CSTC");
    if (out.empty())
        out = "unprotected";
    return out;
}

std::string
Address::toString() const
{
    std::ostringstream out;
    out << "ba" << bank << ".row0x" << std::hex << row << ".col0x"
        << col << std::dec;
    return out.str();
}

const char *
detectorName(Detector detector)
{
    switch (detector) {
      case Detector::WriteEdc: return "write-EDC";
      case Detector::ReadEdc: return "read-EDC";
      case Detector::Cstc: return "CSTC";
    }
    return "?";
}

Gddr5System::Gddr5System(const Protection &prot, uint64_t seed)
    : prot(prot), cstc(gddr5Geometry(), gddr5Timing()),
      garbage(seed)
{
}

void
Gddr5System::setPinCorruptor(Corruptor corruptor)
{
    corrupt = std::move(corruptor);
}

Burst
Gddr5System::defaultFill(uint32_t packed)
{
    Rng rng(0x6F111ULL ^ (static_cast<uint64_t>(packed) << 17));
    Burst b;
    b.randomize(rng);
    return b;
}

Burst
Gddr5System::load(uint32_t packed) const
{
    const auto it = store.find(packed);
    return it != store.end() ? it->second : defaultFill(packed);
}

Burst
Gddr5System::peek(const Address &addr) const
{
    return load(addr.pack());
}

std::vector<Address>
Gddr5System::storedAddresses() const
{
    std::vector<Address> out;
    for (const auto &[packed, burst] : store) {
        Address a;
        a.bank = (packed >> 20) & 0xF;
        a.row = (packed >> 7) & 0x1FFF;
        a.col = packed & 0x7F;
        out.push_back(a);
    }
    return out;
}

aiecc::Command
Gddr5System::toCstcCommand(const Command &cmd)
{
    aiecc::Command out;
    out.type = cmd.type;
    out.bg = cmd.bank >> 2;
    out.ba = cmd.bank & 3;
    out.row = cmd.row;
    out.col = cmd.col;
    return out;
}

Decoded
Gddr5System::transmit(const Command &cmd)
{
    PinWord pins = encodeCommand(cmd);
    // Controller-side protected state for the extended read EDC.
    ctrlLastParity = pins.caParity();
    if (cmd.type == CmdType::Wr)
        ctrlWrt = !ctrlWrt;

    if (corrupt)
        corrupt(cmdIndex, pins);
    ++cmdIndex;
    cycle += 60; // generously spaced command stream

    Decoded dec = decodeCommand(pins);
    if (!dec.executed)
        return dec;

    // Device-side mirrors of the protected state.
    devLastParity = pins.caParity();
    if (dec.cmd.type == CmdType::Wr)
        devWrt = !devWrt;

    if (prot.cstc) {
        const auto mapped = toCstcCommand(dec.cmd);
        if (const char *violation = cstc.checkFast(cycle, mapped)) {
            events.push_back({Detector::Cstc, cycle,
                              std::string(violation) + " (" +
                                  dec.cmd.toString() + ")"});
            dec.executed = false;
            return dec;
        }
        cstc.commit(cycle, mapped);
    }
    return dec;
}

void
Gddr5System::execute(const Decoded &dec, const Burst *wrBurst,
                     const EdcWord *wrEdc, Burst *rdBurst,
                     EdcWord *rdEdc)
{
    if (!dec.executed)
        return;
    const Command &cmd = dec.cmd;
    Bank &bank = banks[cmd.bank];

    switch (cmd.type) {
      case CmdType::Act:
        if (!bank.open) {
            bank.open = true;
            bank.row = cmd.row;
        } else if (bank.row != cmd.row) {
            // Duplicate activation clobbers the new row (Fig 3c).
            for (const auto &addr : storedAddresses()) {
                if (addr.bank == cmd.bank &&
                    (addr.row == bank.row || addr.row == cmd.row)) {
                    Address src{cmd.bank, bank.row, addr.col};
                    Address dst{cmd.bank, cmd.row, addr.col};
                    store[dst.pack()] = load(src.pack());
                }
            }
            bank.row = cmd.row;
        }
        break;

      case CmdType::Wr: {
        if (!bank.open)
            return; // dropped: stale data remains
        Burst received;
        if (wrBurst) {
            received = *wrBurst;
        } else {
            received.randomize(garbage); // undriven bus
        }
        Address devAddr{cmd.bank, bank.row, cmd.col >> 3};
        // The device returns the EDC of what it received (folding its
        // own address view under eWCRC-G); the controller compares.
        const uint32_t fold =
            prot.extendWriteEdc ? devAddr.pack() : 0;
        const EdcWord devEdc = edcAll(received, fold);
        if (prot.edc && wrEdc && devEdc != *wrEdc) {
            events.push_back(
                {Detector::WriteEdc, cycle,
                 "write EDC mismatch at " + devAddr.toString()});
            // GDDR5 write-retry: the erroneous write may have touched
            // the array; the controller replays it.  Model the commit.
        }
        if (modeCorrupt)
            received.randomize(garbage);
        store[devAddr.pack()] = received;
        break;
      }

      case CmdType::Rd: {
        Burst out;
        Address devAddr{cmd.bank, bank.open ? bank.row : 0u,
                        cmd.col >> 3};
        if (!bank.open || modeCorrupt) {
            out.randomize(garbage);
        } else {
            out = load(devAddr.pack());
        }
        if (rdBurst)
            *rdBurst = out;
        if (rdEdc) {
            const uint32_t fold =
                prot.extendReadEdc
                    ? readFold(devAddr.pack(), devWrt, devLastParity)
                    : 0;
            *rdEdc = edcAll(out, fold);
        }
        break;
      }

      case CmdType::Pre:
        bank.open = false;
        break;

      case CmdType::PreAll:
        for (auto &b : banks)
            b.open = false;
        break;

      case CmdType::Mrs:
        modeCorrupt = true;
        break;

      default:
        break;
    }
}

void
Gddr5System::act(unsigned bank, unsigned row)
{
    const auto dec = transmit(Command::act(bank, row));
    execute(dec, nullptr, nullptr, nullptr, nullptr);
}

void
Gddr5System::wr(const Address &addr, const BitVec &data)
{
    AIECC_ASSERT(data.size() == Burst::dataBits,
                 "GDDR5 write payload must be 256 bits");
    Burst burst;
    burst.setData(data);
    // The controller transmits EDC computed over its intended data
    // and (under eWCRC-G) intended address.
    const uint32_t fold = prot.extendWriteEdc ? addr.pack() : 0;
    const EdcWord ctrlEdc = edcAll(burst, fold);

    const auto dec = transmit(Command::wr(addr.bank, addr.col << 3));
    execute(dec, &burst, prot.edc ? &ctrlEdc : nullptr, nullptr,
            nullptr);
}

BitVec
Gddr5System::rd(const Address &addr)
{
    Burst out;
    EdcWord devEdc{};
    const auto dec = transmit(Command::rd(addr.bank, addr.col << 3));
    bool gotData = false;
    if (dec.executed && dec.cmd.type == CmdType::Rd) {
        execute(dec, nullptr, nullptr, &out, &devEdc);
        gotData = true;
    } else {
        execute(dec, nullptr, nullptr, nullptr, nullptr);
    }

    if (!gotData) {
        // Nothing came back: the PHY samples garbage; baseline EDC
        // catches it (the device drives no CRC either).
        out.randomize(garbage);
        if (prot.edc) {
            events.push_back({Detector::ReadEdc, cycle,
                              "no read data returned for " +
                                  addr.toString()});
        }
        return out.data();
    }

    if (prot.edc) {
        const uint32_t fold =
            prot.extendReadEdc
                ? readFold(addr.pack(), ctrlWrt, ctrlLastParity)
                : 0;
        const EdcWord expect = edcAll(out, fold);
        if (expect != devEdc) {
            events.push_back({Detector::ReadEdc, cycle,
                              "read EDC mismatch at " +
                                  addr.toString()});
        }
    }
    return out.data();
}

void
Gddr5System::pre(unsigned bank)
{
    const auto dec = transmit(Command::pre(bank));
    execute(dec, nullptr, nullptr, nullptr, nullptr);
}

void
Gddr5System::preAll()
{
    for (unsigned bank = 0; bank < 16; ++bank)
        pre(bank);
}

void
Gddr5System::nop()
{
    const auto dec = transmit(Command::nop());
    execute(dec, nullptr, nullptr, nullptr, nullptr);
}

} // namespace gddr5
} // namespace aiecc
