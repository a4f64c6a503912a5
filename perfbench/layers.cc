/**
 * @file
 * Isolated layer measurements for the traced run, timed from outside
 * the library around calls into each layer's public functions.
 *
 * The access stream is replayed through a composition the benchmark
 * builds itself — DramRank + MemController + the eDECC-c codec, with
 * the same open-page row handling as ProtectionStack::read()/write() —
 * so encode, decode and command issue get spans of their own.  The
 * commands and codewords recorded there then feed the pin codec,
 * eWCRC, CSTC and RS entry points one call at a time.
 */

#include <cstring>
#include <map>
#include <memory>
#include <optional>

#include "aiecc/edecc.hh"
#include "aiecc/stack.hh"
#include "common/rng.hh"
#include "controller/controller.hh"
#include "crc/crc.hh"
#include "ddr4/command.hh"
#include "dram/cstc.hh"
#include "dram/rank.hh"
#include "perfbench.hh"
#include "rs/rs_code.hh"

namespace perfbench
{
namespace
{

using namespace aiecc;

/** Recorded inputs kept per probe (bounds the benchmark's memory). */
constexpr size_t probeCap = 20000;

/** Mean ns of @p body(i) over i in [0, n). */
template <class F>
double
perCall(size_t n, F body)
{
    const auto t = Clock::now();
    for (size_t i = 0; i < n; ++i)
        body(i);
    return n ? nsSince(t) / static_cast<double>(n) : 0.0;
}

struct IssuedCommand
{
    Cycle when;
    Command cmd;
};

struct Codeword
{
    uint32_t addr;
    Burst burst;
};

/** XOR random nonzero bytes onto every pin of @p chips random chips. */
Burst
corruptChips(const Burst &in, unsigned chips, Rng &rng)
{
    Burst b = in;
    for (unsigned c : rng.sample(Burst::numChips, chips))
        for (unsigned p = 0; p < Burst::pinsPerChip; ++p)
            b.pinBits[c * Burst::pinsPerChip + p] ^=
                static_cast<uint8_t>(1 + rng.below(255));
    return b;
}

/** Volatile sink that keeps probe results alive. */
volatile uint64_t sink;

/** One replay plus one round of isolated calls. */
void
probeOnce(RunResult &out, uint64_t seed, const std::vector<Access> &stream)
{
    const Mechanisms mech = Mechanisms::forLevel(ProtectionLevel::Aiecc);
    const Geometry geom;
    const double ops = static_cast<double>(stream.size());

    // ---- aiecc: stack construction (and teardown) ---------------------
    {
        StackConfig cfg;
        cfg.mech = mech;
        cfg.seed = seed;
        out.set("aiecc.ctor_us", perCall(500, [&](size_t) {
                    ProtectionStack stack(cfg);
                    sink = sink + stack.geometry().numBanks();
                }) / 1000.0);
    }

    // ---- composition replay: ecc + controller spans --------------------
    std::unique_ptr<DataEcc> codec = makeEcc(mech.ecc);
    RankConfig rc;
    rc.parityMode = mech.parity;
    rc.wcrcMode = mech.wcrc;
    rc.cstcEnabled = mech.cstc;
    rc.garbageSeed = seed;
    rc.fillFn = [ecc = codec.get(), seed](uint32_t packed) {
        Rng fill(seed ^ (static_cast<uint64_t>(packed) << 17));
        BitVec data(Burst::dataBits);
        for (size_t i = 0; i < data.size(); i += 64)
            data.setField(i, 64, fill.next());
        return ecc->encode(data, packed);
    };
    DramRank rank(rc);
    MemController ctrl(rc, &rank);

    std::vector<IssuedCommand> cmds;
    std::vector<Codeword> writes, reads;
    double encNs = 0.0, decNs = 0.0, issueNs = 0.0;
    uint64_t encs = 0, decs = 0, issues = 0, unclean = 0, blocked = 0;
    const auto issue = [&](const Command &cmd,
                           const std::optional<Burst> &data) {
        const auto t = Clock::now();
        IssueResult r = ctrl.issue(cmd, data);
        issueNs += nsSince(t);
        ++issues;
        if (cmds.size() < probeCap)
            cmds.push_back({r.when, cmd});
        return r;
    };

    Rng payloadRng(seed ^ 0xBA5E);
    BitVec payload(Burst::dataBits);
    for (size_t i = 0; i < payload.size(); i += 64)
        payload.setField(i, 64, payloadRng.next());
    std::vector<int> openRow(geom.numBanks(), -1);
    for (const Access &a : stream) {
        const unsigned bank = a.addr.flatBank(geom);
        if (openRow[bank] != static_cast<int>(a.addr.row)) {
            if (openRow[bank] >= 0)
                issue(Command::pre(a.addr.bg, a.addr.ba), std::nullopt);
            issue(Command::act(a.addr.bg, a.addr.ba, a.addr.row),
                  std::nullopt);
            openRow[bank] = static_cast<int>(a.addr.row);
        }
        const uint32_t packed = a.addr.pack(geom);
        const unsigned col = a.addr.col << Geometry::burstBits;
        if (!a.read) {
            payload.setField(0, 64, a.word);
            const auto t = Clock::now();
            const Burst burst = codec->encode(payload, packed);
            encNs += nsSince(t);
            ++encs;
            issue(Command::wr(a.addr.bg, a.addr.ba, col), burst);
            if (writes.size() < probeCap)
                writes.push_back({packed, burst});
        } else {
            const IssueResult r =
                issue(Command::rd(a.addr.bg, a.addr.ba, col), std::nullopt);
            if (!r.readBurst) {
                ++blocked;
                continue;
            }
            const auto t = Clock::now();
            const EccResult e = codec->decode(*r.readBurst, packed);
            decNs += nsSince(t);
            ++decs;
            unclean += e.status != EccStatus::Clean;
            if (reads.size() < probeCap)
                reads.push_back({packed, *r.readBurst});
        }
    }
    out.check(blocked == 0 && unclean == 0 && ctrl.alerts().empty(),
              "fault-free layer replay raised a detection");
    out.set("ecc.encode.ns", encNs / static_cast<double>(encs));
    out.set("ecc.decode_clean.ns", decNs / static_cast<double>(decs));
    out.set("controller.issue.ns", issueNs / static_cast<double>(issues));
    out.set("controller.cmds_per_op", static_cast<double>(issues) / ops);
    out.set("_replay.ecc_ns_per_op", (encNs + decNs) / ops);
    out.set("_replay.issue_ns_per_op", issueNs / ops);

    // ---- ddr4: pin encode + parity drive + decode + parity check ------
    uint64_t pinBad = 0;
    const double pinNs = perCall(cmds.size(), [&](size_t i) {
        const Command &cmd = cmds[i].cmd;
        PinWord w = encodeCommand(cmd);
        driveParity(w, false);
        const DecodedCommand d = decodeCommand(w);
        pinBad += !(d.executed && d.cmd.type == cmd.type &&
                    checkParity(w, false));
    });
    out.check(pinBad == 0, "pin codec did not round-trip a command");
    out.set("ddr4.pin_codec.ns", pinNs);
    out.set("_replay.pin_ns_per_op", pinNs * static_cast<double>(issues) / ops);

    // ---- crc: eWCRC over the 18 chip lanes of one write ---------------
    const Crc &crc8 = Crc::ddr4Crc8();
    const double crcNs = perCall(writes.size(), [&](size_t i) {
        const uint64_t addrField = static_cast<uint64_t>(writes[i].addr)
                                   << 32;
        uint64_t acc = 0;
        for (unsigned chip = 0; chip < Burst::numChips; ++chip)
            acc = acc * 31 +
                  crc8.computeWord(writes[i].burst.chipWord(chip) | addrField,
                                   64);
        sink = sink + acc;
    });
    out.set("crc.ewcrc.ns", crcNs);
    out.set("_replay.crc_ns_per_op",
            crcNs * static_cast<double>(encs) / ops);

    // ---- dram: CSTC check + commit per recorded command ---------------
    Cstc cstc(geom, rc.timing);
    uint64_t illegal = 0;
    const double cstcNs = perCall(cmds.size(), [&](size_t i) {
        illegal += cstc.checkFast(cmds[i].when, cmds[i].cmd) != nullptr;
        cstc.commit(cmds[i].when, cmds[i].cmd);
    });
    out.check(illegal == 0, "CSTC flagged a command the controller issued");
    out.set("dram.cstc.ns", cstcNs);
    out.set("_replay.cstc_ns_per_op",
            cstcNs * static_cast<double>(issues) / ops);

    // ---- rs: eDECC-c's RS(76,68) word: data, virtual address, parity --
    constexpr unsigned addrSyms = EDeccQpc::addrSymbols;
    constexpr unsigned n = Burst::numPins + addrSyms;
    const RsCodec rs(n, Burst::dataPins + addrSyms);
    std::vector<std::array<GfElem, n>> words(reads.size());
    for (size_t i = 0; i < reads.size(); ++i) {
        auto &w = words[i];
        for (unsigned p = 0; p < Burst::dataPins; ++p)
            w[p] = reads[i].burst.pinSymbol(p);
        for (unsigned j = 0; j < addrSyms; ++j)
            w[Burst::dataPins + j] =
                static_cast<GfElem>(reads[i].addr >> (8 * j));
        for (unsigned j = 0; j < Burst::checkPins; ++j)
            w[Burst::dataPins + addrSyms + j] =
                reads[i].burst.pinSymbol(Burst::dataPins + j);
    }
    uint64_t notCodeword = 0;
    out.set("rs.syndrome.ns", perCall(words.size(), [&](size_t i) {
                notCodeword += !rs.isCodewordRaw(words[i].data());
            }));
    out.check(notCodeword == 0, "a clean read was not an RS codeword");

    Rng errRng(seed ^ 0xD1E7);
    std::vector<std::array<GfElem, n>> dirty = words;
    for (size_t i = 0; i < dirty.size(); ++i)
        for (unsigned pos : errRng.sample(n, 1 + i % rs.t()))
            dirty[i][pos] ^= static_cast<GfElem>(1 + errRng.below(255));
    RsWorkspace ws;
    std::array<GfElem, n> scratch;
    uint8_t positions[Burst::checkPins];
    unsigned numPositions = 0;
    uint64_t wrong = 0;
    out.set("rs.decode_dirty.ns", perCall(dirty.size(), [&](size_t i) {
                scratch = dirty[i];
                const auto st = rs.decodeInto(scratch.data(), ws, positions,
                                              numPositions);
                wrong += st != RsCodec::Status::Corrected ||
                         scratch != words[i];
            }));
    out.check(wrong == 0, "RS decode failed on a correctable word");

    // ---- ecc: corrected (one chip) and DUE (three chips) decodes -------
    std::vector<Burst> oneChip, threeChips;
    for (const Codeword &c : reads) {
        oneChip.push_back(corruptChips(c.burst, 1, errRng));
        threeChips.push_back(corruptChips(c.burst, 3, errRng));
    }
    uint64_t notCorrected = 0, notDue = 0;
    out.set("ecc.decode_corrected.ns", perCall(reads.size(), [&](size_t i) {
                notCorrected += codec->decode(oneChip[i], reads[i].addr)
                                    .status != EccStatus::Corrected;
            }));
    out.set("ecc.decode_due.ns", perCall(reads.size(), [&](size_t i) {
                notDue += codec->decode(threeChips[i], reads[i].addr)
                              .status != EccStatus::Uncorrectable;
            }));
    out.check(notCorrected == 0, "eDECC-c failed to correct a chip error");
    // Three-chip garbage sits beyond the code; a bounded-distance
    // decoder miscorrects a ~2e-4 share of such words.
    out.check(notDue * 100 <= reads.size(),
              "eDECC-c accepted over 1% of three-chip errors");
}

} // namespace

void
probeLayers(RunResult &out, uint64_t seed, const std::vector<Access> &stream,
            double seconds)
{
    std::map<std::string, std::vector<double>> runs;
    repeatFor(seconds, 1, [&](unsigned) {
        RunResult one;
        probeOnce(one, seed, stream);
        for (const auto &[name, value] : one.values)
            runs[name].push_back(value);
        for (const std::string &err : one.errors)
            out.check(false, err);
    });
    for (auto &[name, values] : runs)
        out.set(name, median(values));
}

} // namespace perfbench
