#include "gddr5/campaign.hh"

#include <sstream>

#include "common/logging.hh"
#include "common/parallel.hh"

namespace aiecc
{
namespace gddr5
{

namespace
{

constexpr unsigned targetBank = 5;
constexpr unsigned rowA = 0x2A;
constexpr unsigned rowT = 0x15;
constexpr unsigned col1 = 2;
constexpr unsigned col2 = 5;

BitVec
payload(uint64_t tag)
{
    Rng rng(0x6DA7AULL ^ tag);
    BitVec d(Burst::dataBits);
    for (size_t i = 0; i < d.size(); i += 64)
        d.setField(i, 64, rng.next());
    return d;
}

uint64_t
tagOf(const Address &addr)
{
    return addr.pack();
}

/** Open every bank at rowA with data; plant rowT data too. */
void
setup(Gddr5System &sys, CommandPattern pattern)
{
    for (unsigned bank = 0; bank < 16; ++bank) {
        sys.act(bank, rowT);
        sys.wr({bank, rowT, col1}, payload(tagOf({bank, rowT, col1})));
        sys.pre(bank);
        sys.act(bank, rowA);
        sys.wr({bank, rowA, col1}, payload(tagOf({bank, rowA, col1})));
        sys.wr({bank, rowA, col2}, payload(tagOf({bank, rowA, col2})));
    }
    if (pattern == CommandPattern::ActWr ||
        pattern == CommandPattern::ActRd)
        sys.pre(targetBank);
}

struct ReadLog
{
    std::vector<BitVec> data;
    std::vector<bool> flagged;
    /** Detections already raised when this read was consumed. */
    std::vector<size_t> detectionsBefore;
};

void
readBack(Gddr5System &sys, const Address &addr, ReadLog *log)
{
    const size_t before = sys.detections().size();
    const BitVec d = sys.rd(addr);
    if (log) {
        log->data.push_back(d);
        log->flagged.push_back(sys.detections().size() > before);
        log->detectionsBefore.push_back(before);
    }
}

void
runPattern(Gddr5System &sys, CommandPattern pattern, ReadLog *log)
{
    switch (pattern) {
      case CommandPattern::ActWr:
        sys.act(targetBank, rowT);
        sys.wr({targetBank, rowT, col1}, payload(0xF2E5D));
        break;
      case CommandPattern::ActRd:
        sys.act(targetBank, rowT);
        readBack(sys, {targetBank, rowT, col1}, log);
        break;
      case CommandPattern::Wr:
        sys.wr({targetBank, rowA, col1}, payload(0xF2E5D));
        break;
      case CommandPattern::Rd:
        readBack(sys, {targetBank, rowA, col1}, log);
        break;
      case CommandPattern::Pre:
        sys.pre(targetBank);
        sys.act(targetBank, rowT);
        readBack(sys, {targetBank, rowT, col1}, log);
        break;
    }
}

void
runVerify(Gddr5System &sys, ReadLog *log)
{
    for (unsigned bank = 0; bank < 16; ++bank) {
        sys.pre(bank);
        sys.act(bank, rowA);
        readBack(sys, {bank, rowA, col1}, log);
        readBack(sys, {bank, rowA, col2}, log);
        sys.pre(bank);
        sys.act(bank, rowT);
        readBack(sys, {bank, rowT, col1}, log);
    }
}

void
restore(Gddr5System &sys, CommandPattern pattern)
{
    sys.resyncWrt();
    sys.preAll();
    for (unsigned bank = 0; bank < 16; ++bank)
        sys.act(bank, rowA);
    if (pattern == CommandPattern::ActWr ||
        pattern == CommandPattern::ActRd)
        sys.pre(targetBank);
}

} // namespace

std::vector<Pin>
gddr5InjectablePins()
{
    std::vector<Pin> pins;
    for (unsigned i = 0; i < numCaPins; ++i)
        pins.push_back(static_cast<Pin>(i));
    return pins;
}

void
Gddr5Stats::add(const Gddr5Trial &trial)
{
    ++trials;
    detected += trial.detected;
    switch (trial.outcome) {
      case Outcome::NoEffect: ++noEffect; break;
      case Outcome::Corrected: ++corrected; break;
      case Outcome::Due: ++due; break;
      case Outcome::Sdc: ++sdc; break;
      case Outcome::Mdc: ++mdc; break;
      case Outcome::SdcMdc:
        ++sdc;
        ++mdc;
        ++both;
        break;
    }
}

void
Gddr5Stats::merge(const Gddr5Stats &other)
{
    trials += other.trials;
    detected += other.detected;
    noEffect += other.noEffect;
    corrected += other.corrected;
    due += other.due;
    sdc += other.sdc;
    mdc += other.mdc;
    both += other.both;
}

Gddr5Campaign::Gddr5Campaign(const Protection &prot, uint64_t seed)
    : prot(prot), seed(seed)
{
}

Gddr5Trial
Gddr5Campaign::runTrial(CommandPattern pattern,
                        const Gddr5Error &error) const
{
    const uint64_t runSeed =
        seed ^ (static_cast<uint64_t>(pattern) << 48) ^ error.noiseSeed;

    // Golden.
    Gddr5System golden(prot, runSeed);
    ReadLog goldenLog;
    setup(golden, pattern);
    runPattern(golden, pattern, &goldenLog);
    golden.nop();
    runVerify(golden, &goldenLog);
    AIECC_ASSERT(golden.detections().empty(),
                 "GDDR5 golden run raised detections under "
                     << prot.describe());

    // Faulty.
    Gddr5System faulty(prot, runSeed);
    setup(faulty, pattern);
    faulty.clearDetections();
    const uint64_t targetIdx = faulty.commandsIssued();
    const Gddr5Error err = error;
    faulty.setPinCorruptor([targetIdx, err](uint64_t idx,
                                            PinWord &pins) {
        if (idx != targetIdx)
            return;
        if (err.allPin) {
            Rng noise(0x6A11ULL ^ err.noiseSeed);
            for (unsigned p = 0; p < numCaPins; ++p)
                pins.set(static_cast<Pin>(p), noise.chance(0.5));
        } else {
            for (Pin pin : err.flips)
                pins.flip(pin);
        }
    });

    ReadLog firstPass;
    runPattern(faulty, pattern, &firstPass);
    faulty.nop();
    runVerify(faulty, &firstPass);

    Gddr5Trial trial;
    for (const auto &d : faulty.detections()) {
        trial.detected = true;
        trial.detectors.push_back(d.by);
    }

    // Wrong data consumed before anything fired => SDC (the `when`
    // proxy stores the number of detections visible at read time).
    bool sdcEarly = false;
    AIECC_ASSERT(firstPass.data.size() == goldenLog.data.size(),
                 "GDDR5 read-sequence mismatch");
    for (size_t i = 0; i < firstPass.data.size(); ++i) {
        if (!firstPass.flagged[i] && firstPass.detectionsBefore[i] == 0 &&
            firstPass.data[i] != goldenLog.data[i]) {
            sdcEarly = true;
        }
    }

    // Retry on detection.
    ReadLog finalPass = firstPass;
    if (trial.detected) {
        faulty.setPinCorruptor({});
        restore(faulty, pattern);
        finalPass = ReadLog{};
        runPattern(faulty, pattern, &finalPass);
        faulty.nop();
        runVerify(faulty, &finalPass);
    }

    bool residual = false;
    bool silentLate = false;
    for (size_t i = 0; i < finalPass.data.size(); ++i) {
        if (finalPass.flagged[i]) {
            residual = true;
            continue;
        }
        if (finalPass.data[i] != goldenLog.data[i]) {
            residual = true;
            if (!trial.detected)
                silentLate = true;
        }
    }

    bool mdc = faulty.modeCorrupted();
    auto keys = faulty.storedAddresses();
    for (const auto &addr : golden.storedAddresses())
        keys.push_back(addr);
    for (const auto &addr : keys) {
        if (faulty.peek(addr) != golden.peek(addr)) {
            mdc = true;
            break;
        }
    }

    const bool sdc = sdcEarly || silentLate;
    if (sdc || (!trial.detected && mdc)) {
        trial.outcome = sdc && mdc ? Outcome::SdcMdc
                                   : (sdc ? Outcome::Sdc : Outcome::Mdc);
    } else if (!trial.detected) {
        trial.outcome = Outcome::NoEffect;
    } else {
        trial.outcome =
            (residual || mdc) ? Outcome::Due : Outcome::Corrected;
    }
    return trial;
}

namespace
{

/** Lineage terminal for a classified GDDR5 trial.  A Corrected trial
 * got there through the explicit golden-restore retry pass, i.e. it
 * was *recovered*, not corrected in place. */
obs::FaultTerminal
gddr5Terminal(const Gddr5Trial &trial)
{
    switch (trial.outcome) {
      case Outcome::NoEffect: return obs::FaultTerminal::Masked;
      case Outcome::Corrected: return obs::FaultTerminal::Recovered;
      case Outcome::Due: return obs::FaultTerminal::Detected;
      case Outcome::Sdc:
      case Outcome::Mdc:
      case Outcome::SdcMdc: return obs::FaultTerminal::Escaped;
    }
    return obs::FaultTerminal::Escaped;
}

std::string
gddr5Site(CommandPattern pattern, const Gddr5Error &error)
{
    std::ostringstream out;
    out << patternName(pattern) << "/";
    if (error.allPin) {
        out << "all-pin";
    } else {
        for (size_t i = 0; i < error.flips.size(); ++i)
            out << (i ? "+" : "") << pinName(error.flips[i]);
    }
    return out.str();
}

} // namespace

std::vector<Gddr5Trial>
Gddr5Campaign::runTrials(CommandPattern pattern,
                         const std::vector<Gddr5Error> &errors,
                         unsigned jobs) const
{
    std::vector<Gddr5Trial> results(errors.size());
    runTrialShards(
        pattern, errors, jobs,
        [&](uint64_t index, const Gddr5Trial &t) { results[index] = t; },
        nullptr);
    return results;
}

RunStatus
Gddr5Campaign::runTrialShards(
    CommandPattern pattern, const std::vector<Gddr5Error> &errors,
    unsigned jobs,
    const std::function<void(uint64_t, const Gddr5Trial &)> &onResult,
    const obs::ShardCheckpoint *checkpoint) const
{
    // Small shards keep the pool busy through the tail; the size is
    // not output-affecting (every trial is a pure function of
    // (pattern, error, seed)).
    constexpr uint64_t shardSize = trialShardSize;
    const uint64_t total = errors.size();

    // Fault IDs derive from the unit-start counter plus the global
    // trial index, so they depend only on the call sequence, never on
    // worker interleaving.
    const uint64_t indexBase = trialCounter;
    const uint64_t salt =
        seed ^ obs::lineageHash("gddr5:" + prot.describe());

    std::vector<std::vector<Gddr5Trial>> shardResults(
        shardCount(total, shardSize));
    const RunStatus status = obs::runSharded(
        total, shardSize, jobs, obsHook,
        [&](uint64_t shard, uint64_t begin, uint64_t n,
            obs::ShardObservers &so) {
            shardResults[shard].resize(n);
            for (uint64_t i = 0; i < n; ++i) {
                const Gddr5Error &error = errors[begin + i];
                const Gddr5Trial trial = runTrial(pattern, error);
                shardResults[shard][i] = trial;
                obs::LineageLedger *ledger = so.observer().lineage();
                if (!ledger)
                    continue;
                const uint64_t faultId = obs::deriveFaultId(
                    salt, static_cast<uint64_t>(pattern),
                    indexBase + begin + i);
                ledger->recordInjection(faultId, obs::FaultKind::Ccca,
                                        gddr5Site(pattern, error));
                std::string mech;
                if (!trial.detectors.empty())
                    mech = detectorName(trial.detectors.front());
                ledger->resolve(
                    faultId, gddr5Terminal(trial), mech,
                    static_cast<uint32_t>(trial.detectors.size()),
                    trial.detected ? 1u : 0u);
            }
        },
        [&](uint64_t shard) {
            const uint64_t begin = shard * shardSize;
            for (uint64_t i = 0; i < shardResults[shard].size(); ++i)
                onResult(begin + i, shardResults[shard][i]);
            std::vector<Gddr5Trial>().swap(shardResults[shard]);
        },
        checkpoint);

    if (status == RunStatus::Completed)
        trialCounter = indexBase + total;
    return status;
}

Gddr5Stats
Gddr5Campaign::sweepOnePin(CommandPattern pattern, unsigned jobs) const
{
    std::vector<Gddr5Error> errors;
    for (Pin pin : gddr5InjectablePins())
        errors.push_back(Gddr5Error::onePin(pin));
    Gddr5Stats stats;
    for (const Gddr5Trial &trial : runTrials(pattern, errors, jobs))
        stats.add(trial);
    return stats;
}

Gddr5Stats
Gddr5Campaign::sweepAllPin(CommandPattern pattern, unsigned samples,
                           unsigned jobs) const
{
    std::vector<Gddr5Error> errors;
    for (unsigned s = 0; s < samples; ++s)
        errors.push_back(Gddr5Error::allPins(s + 1));
    Gddr5Stats stats;
    for (const Gddr5Trial &trial : runTrials(pattern, errors, jobs))
        stats.add(trial);
    return stats;
}

} // namespace gddr5
} // namespace aiecc
