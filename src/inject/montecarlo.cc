#include "inject/montecarlo.hh"

#include <vector>

#include "common/logging.hh"

namespace aiecc
{

namespace
{

/**
 * Exhaustive-mode tags: the worker seed tag keeps the payload RNG
 * streams disjoint from the sampled run's, and the lineage stream tag
 * keeps exhaustive fault IDs from colliding with sampled ones when
 * both land in one ledger.
 */
constexpr uint64_t exhaustiveSeedTag = 0xE87A0571FULL;
constexpr uint64_t exhaustiveStreamTag = 1ULL << 16;

} // namespace

std::string
dataErrorName(DataErrorModel model)
{
    switch (model) {
      case DataErrorModel::None: return "None";
      case DataErrorModel::Bit1: return "1 bit";
      case DataErrorModel::Chip1: return "1 chip";
      case DataErrorModel::Rank1: return "1 rank";
    }
    return "?";
}

std::string
addrErrorName(AddrErrorModel model)
{
    switch (model) {
      case AddrErrorModel::None: return "None";
      case AddrErrorModel::Bit1: return "1 bit";
      case AddrErrorModel::Bits32: return "32 bits";
    }
    return "?";
}

std::string
dataOutcomeName(DataOutcome outcome)
{
    switch (outcome) {
      case DataOutcome::NoError: return "-";
      case DataOutcome::Sdc: return "SDC";
      case DataOutcome::CeD: return "CE-D";
      case DataOutcome::CeR: return "CE-R";
      case DataOutcome::CeRPlus: return "CE-R+";
      case DataOutcome::CeRD: return "CE-RD";
      case DataOutcome::CeRDPlus: return "CE-RD+";
      case DataOutcome::Due: return "DUE";
    }
    return "?";
}

const char *
dataOutcomeSlug(DataOutcome outcome)
{
    switch (outcome) {
      case DataOutcome::NoError: return "no_error";
      case DataOutcome::Sdc: return "sdc";
      case DataOutcome::CeD: return "ce_d";
      case DataOutcome::CeR: return "ce_r";
      case DataOutcome::CeRPlus: return "ce_r_plus";
      case DataOutcome::CeRD: return "ce_rd";
      case DataOutcome::CeRDPlus: return "ce_rd_plus";
      case DataOutcome::Due: return "due";
    }
    return "unknown";
}

void
MonteCarloCell::writeJson(obs::JsonWriter &w) const
{
    w.beginObject();
    w.kv("trials", trials);
    w.key("counts");
    w.beginObject();
    for (unsigned i = 0; i < 8; ++i)
        w.kv(dataOutcomeSlug(static_cast<DataOutcome>(i)), counts[i]);
    w.endObject();
    w.kv("sdc_frac", sdcFrac());
    w.kv("dominant", dataOutcomeName(dominant()));
    w.endObject();
}

DataOutcome
MonteCarloCell::dominant() const
{
    DataOutcome best = DataOutcome::NoError;
    uint64_t bestCount = 0;
    for (unsigned i = 0; i < 8; ++i) {
        const auto outcome = static_cast<DataOutcome>(i);
        if (outcome == DataOutcome::Sdc)
            continue;
        if (counts[i] > bestCount) {
            bestCount = counts[i];
            best = outcome;
        }
    }
    return best;
}

DataMonteCarlo::DataMonteCarlo(EccScheme scheme, uint64_t seed)
    : schemeKind(scheme), baseSeed(seed), ecc(makeEcc(scheme)), rng(seed)
{
    AIECC_ASSERT(ecc != nullptr, "Monte Carlo needs a data ECC scheme");
}

void
DataMonteCarlo::setObserver(obs::Observer *observer)
{
    obsHandle = observer;
    oc = {};
    if (!observer || !observer->stats())
        return;
    obs::StatsRegistry &reg = *observer->stats();
    oc.trials =
        &reg.counter("montecarlo.trials", "Monte-Carlo trials run");
    for (unsigned i = 0; i < 8; ++i) {
        oc.byOutcome[i] = &reg.counter(
            std::string("montecarlo.outcome.") +
                dataOutcomeSlug(static_cast<DataOutcome>(i)),
            "trials classified as this outcome");
    }
    oc.retryAttempts = &reg.counter("montecarlo.retry.attempts",
                                    "re-read attempts across trials");
    oc.retryExhausted = &reg.counter(
        "montecarlo.retry.exhausted",
        "trials whose re-read budget ran out");
}

DataMonteCarlo::TrialDetail
DataMonteCarlo::runTrialDetailed(DataErrorModel dataErr,
                                 AddrErrorModel addrErr)
{
    return runTrialImpl(dataErr, addrErr, nullptr);
}

uint64_t
DataMonteCarlo::cellSpaceSize(DataErrorModel dataErr,
                              AddrErrorModel addrErr)
{
    uint64_t dataAxis = 0;
    switch (dataErr) {
      case DataErrorModel::None: dataAxis = 1; break;
      case DataErrorModel::Bit1:
        dataAxis = static_cast<uint64_t>(Burst::numPins) *
                   Burst::numBeats;
        break;
      case DataErrorModel::Chip1:
      case DataErrorModel::Rank1:
        return 0; // whole random words: no finite position space
    }
    uint64_t addrAxis = 0;
    switch (addrErr) {
      case AddrErrorModel::None: addrAxis = 1; break;
      case AddrErrorModel::Bit1: addrAxis = 32; break;
      case AddrErrorModel::Bits32: return 0;
    }
    if (dataErr == DataErrorModel::None &&
        addrErr == AddrErrorModel::None) {
        return 0; // nothing injected, nothing to enumerate
    }
    return dataAxis * addrAxis;
}

DataMonteCarlo::TrialDetail
DataMonteCarlo::runTrialAt(DataErrorModel dataErr, AddrErrorModel addrErr,
                           uint64_t position)
{
    const uint64_t space = cellSpaceSize(dataErr, addrErr);
    AIECC_ASSERT(space > 0, "cell " << dataErrorName(dataErr) << "/"
                                    << addrErrorName(addrErr)
                                    << " is not enumerable");
    AIECC_ASSERT(position < space,
                 "position " << position << " outside cell space "
                             << space);
    // Mixed radix, data position fastest: position = addrPos *
    // dataAxis + dataPos.
    const uint64_t dataAxis =
        dataErr == DataErrorModel::Bit1
            ? static_cast<uint64_t>(Burst::numPins) * Burst::numBeats
            : 1;
    ErrorCoords coords;
    coords.dataPos = static_cast<unsigned>(position % dataAxis);
    coords.addrPos = static_cast<unsigned>(position / dataAxis);
    return runTrialImpl(dataErr, addrErr, &coords);
}

DataMonteCarlo::TrialDetail
DataMonteCarlo::runTrialImpl(DataErrorModel dataErr,
                             AddrErrorModel addrErr,
                             const ErrorCoords *coords)
{
    obs::CostAccountant *cost = obsHandle ? obsHandle->cost() : nullptr;

    // Encode a random payload under a random write address.  Its
    // eight words go straight into the data pins, byte j of word w on
    // pin 8w + j (the bytes setData() would write).
    const uint32_t addrW = static_cast<uint32_t>(rng.next());
    constexpr unsigned payloadWords = Burst::dataBits / 64;
    uint64_t data[payloadWords];
    Burst burst;
    for (unsigned w = 0; w < payloadWords; ++w) {
        data[w] = rng.next();
        for (unsigned j = 0; j < 8; ++j)
            burst.pinBits[8 * w + j] =
                static_cast<uint8_t>(data[w] >> (8 * j));
    }
    if (cost) {
        cost->onCommand(/*isWrite=*/true, /*isRead=*/false);
        cost->onEccEncode();
    }
    ecc->encodeBurst(burst, addrW);
    const auto isPayload = [&data](const BitVec &decoded) {
        for (unsigned w = 0; w < payloadWords; ++w)
            if (decoded.getField(64 * w, 64) != data[w])
                return false;
        return true;
    };

    // Inject the data-error pattern.
    switch (dataErr) {
      case DataErrorModel::None:
        break;
      case DataErrorModel::Bit1: {
        unsigned pin, beat;
        if (coords) {
            pin = coords->dataPos / Burst::numBeats;
            beat = coords->dataPos % Burst::numBeats;
        } else {
            pin = static_cast<unsigned>(rng.below(Burst::numPins));
            beat = static_cast<unsigned>(rng.below(Burst::numBeats));
        }
        burst.setBit(pin, beat, !burst.getBit(pin, beat));
        break;
      }
      case DataErrorModel::Chip1: {
        const unsigned chip =
            static_cast<unsigned>(rng.below(Burst::numChips));
        uint32_t junk = 0;
        for (unsigned i = 0; i < 32; ++i)
            junk |= static_cast<uint32_t>(rng.chance(0.5)) << i;
        burst.setChipWord(chip, junk);
        break;
      }
      case DataErrorModel::Rank1:
        burst.randomize(rng);
        break;
    }

    // Inject the address-error pattern.
    uint32_t addrR = addrW;
    switch (addrErr) {
      case AddrErrorModel::None:
        break;
      case AddrErrorModel::Bit1:
        addrR ^= 1u << (coords ? coords->addrPos : rng.below(32));
        break;
      case AddrErrorModel::Bits32:
        addrR = static_cast<uint32_t>(rng.next());
        if (addrR == addrW)
            addrR ^= 1;
        break;
    }

    if (cost) {
        cost->onCommand(/*isWrite=*/false, /*isRead=*/true);
        cost->onEccDecode();
    }
    const EccResult res = ecc->decode(burst, addrR);
    const bool addrMismatch = addrR != addrW;

    // Re-read attempts the retry episode spends, surfaced to the
    // caller (and into lineage ledgers) through TrialDetail.
    unsigned attemptsUsed = 0;

    const auto classified = [&](DataOutcome outcome) {
        if (oc.trials) {
            ++*oc.trials;
            ++*oc.byOutcome[static_cast<unsigned>(outcome)];
        }
        return TrialDetail{outcome, attemptsUsed, addrR};
    };

    // Bounded command retry (§IV-G): every attempt re-transmits the
    // read address, so a transmission-induced address error clears
    // (unless the fault persists into the retry window), while
    // corruption of the stored burst is re-read verbatim and must
    // still decode on its own.  An attempt whose decode reports
    // success ends the episode — the consumer accepts that payload,
    // right or wrong; an attempt that is still flagged burns budget.
    const auto retryLoop = [&](bool plus) {
        // Everything in here is extra traffic caused by the detection:
        // bill the re-reads under the recovery level, not demand.
        obs::ScopedRecoveryCost billRetry(cost);
        for (unsigned attempt = 1; attempt <= retry.maxAttempts;
             ++attempt) {
            ++attemptsUsed;
            if (oc.retryAttempts)
                ++*oc.retryAttempts;
            const bool persists = retry.persistProb > 0.0 &&
                                  rng.chance(retry.persistProb);
            const uint32_t addrAttempt = persists ? addrR : addrW;
            if (cost) {
                cost->onCommand(/*isWrite=*/false, /*isRead=*/true);
                cost->onEccDecode();
            }
            const EccResult again = ecc->decode(burst, addrAttempt);
            switch (again.status) {
              case EccStatus::Clean:
                if (addrAttempt == addrW && isPayload(again.data)) {
                    return plus ? DataOutcome::CeRPlus
                                : DataOutcome::CeR;
                }
                // An aliased decode was accepted as clean.
                return DataOutcome::Sdc;
              case EccStatus::Corrected:
                if (again.addressError)
                    break; // still flagged; next attempt
                if (addrAttempt == addrW && isPayload(again.data)) {
                    return plus ? DataOutcome::CeRDPlus
                                : DataOutcome::CeRD;
                }
                return DataOutcome::Sdc;
              case EccStatus::Uncorrectable:
                break; // still flagged; next attempt
            }
        }
        if (oc.retryExhausted)
            ++*oc.retryExhausted;
        return DataOutcome::Due;
    };

    switch (res.status) {
      case EccStatus::Clean:
        if (!addrMismatch && isPayload(res.data))
            return classified(DataOutcome::NoError);
        // A wrong location (or aliased corruption) sailed through.
        return classified(DataOutcome::Sdc);

      case EccStatus::Corrected:
        if (res.addressError) {
            // The scheme noticed the address was wrong: retry.
            const bool plus = ecc->preciseDiagnosis() &&
                              res.recoveredAddress.has_value();
            return classified(retryLoop(plus));
        }
        if (addrMismatch) {
            // The decoder "fixed" something but never noticed the
            // location was wrong: the consumer uses wrong data.
            return classified(DataOutcome::Sdc);
        }
        return classified(isPayload(res.data) ? DataOutcome::CeD
                                              : DataOutcome::Sdc);

      case EccStatus::Uncorrectable:
        // Detected.  Re-reading resolves transmission-induced address
        // errors; corruption of the stored rank itself is re-read
        // verbatim every time and stays uncorrectable, so the episode
        // exhausts into a DUE.
        if (dataErr == DataErrorModel::Rank1)
            return classified(DataOutcome::Due);
        if (addrMismatch)
            return classified(retryLoop(false));
        return classified(DataOutcome::Due);
    }
    return classified(DataOutcome::Due);
}

void
DataMonteCarlo::recordLineage(obs::LineageLedger &led,
                              DataErrorModel dataErr,
                              AddrErrorModel addrErr, uint64_t trial,
                              const TrialDetail &detail,
                              bool exhaustive) const
{
    const DataOutcome outcome = detail.outcome;
    const bool data = dataErr != DataErrorModel::None;
    const bool addr = addrErr != AddrErrorModel::None;
    if (!data && !addr)
        return; // nothing injected, nothing to account for

    const obs::FaultKind kind =
        data && addr ? obs::FaultKind::DataAddr
                     : (data ? obs::FaultKind::Data : obs::FaultKind::Addr);
    const uint64_t salt =
        baseSeed ^ obs::lineageHash(std::string("mc:") + ecc->name());
    const uint64_t stream = (static_cast<uint64_t>(dataErr) << 8) |
                            static_cast<uint64_t>(addrErr) |
                            (exhaustive ? exhaustiveStreamTag : 0);
    const uint64_t faultId = obs::deriveFaultId(salt, stream, trial);
    led.recordInjection(faultId, kind,
                        dataErrorName(dataErr) + "/" +
                            addrErrorName(addrErr));

    obs::FaultTerminal terminal;
    bool flagged = true;
    switch (outcome) {
      case DataOutcome::NoError:
        terminal = obs::FaultTerminal::Masked;
        flagged = false;
        break;
      case DataOutcome::Sdc:
        terminal = obs::FaultTerminal::Escaped;
        flagged = false;
        break;
      case DataOutcome::CeD:
        terminal = obs::FaultTerminal::Corrected;
        break;
      case DataOutcome::CeR:
      case DataOutcome::CeRPlus:
      case DataOutcome::CeRD:
      case DataOutcome::CeRDPlus:
        terminal = obs::FaultTerminal::Recovered;
        break;
      case DataOutcome::Due:
      default:
        terminal = obs::FaultTerminal::Detected;
        break;
    }
    led.resolve(faultId, terminal, flagged ? ecc->name() : "",
                flagged ? 1u : 0u, detail.attempts);
}

void
DataMonteCarlo::emitTrialEvents(obs::Observer &to, uint64_t trial,
                                const TrialDetail &detail) const
{
    if (!to.tracing())
        return;
    // What a RAS monitor riding the controller would see of this
    // trial: the flagged detection with its address evidence, the
    // retry episode's re-reads, and an exhaustion when the budget ran
    // dry.  NoError and SDC trials emit nothing — nothing fired.  The
    // detection is a data-path (not alert-family) symptom: its symptom
    // member says so in a recorded trace, and the "data-ecc" tag only
    // names the engine to a reader.
    const char *tag;
    obs::Symptom symptom = obs::Symptom::DataCe;
    switch (detail.outcome) {
      case DataOutcome::NoError:
      case DataOutcome::Sdc:
        return;
      case DataOutcome::CeD:
      case DataOutcome::CeRD:
      case DataOutcome::CeRDPlus:
        tag = "data-ecc corrected";
        break;
      case DataOutcome::CeR:
      case DataOutcome::CeRPlus:
        tag = "data-ecc retry-recovered";
        break;
      case DataOutcome::Due:
      default:
        tag = "data-ecc DUE";
        symptom = obs::Symptom::DataUe;
        break;
    }
    to.emit({.kind = obs::EventKind::Detection,
             .symptom = symptom,
             .detail = obs::Detail::Why,
             .cycle = trial,
             .value = detail.addr,
             .label = ecc->name(),
             .why = tag});
    for (unsigned a = 1; a <= detail.attempts; ++a)
        to.emit({.kind = obs::EventKind::Retry,
                 .cycle = trial,
                 .value = a,
                 .label = "re-read"});
    if (detail.outcome == DataOutcome::Due && detail.attempts)
        to.emit({.kind = obs::EventKind::Recovery,
                 .symptom = obs::Symptom::Exhausted,
                 .detail = obs::Detail::Why,
                 .cycle = trial,
                 .value = detail.attempts,
                 .label = "retry",
                 .why = "exhausted"});
}

MonteCarloCell
DataMonteCarlo::runCell(DataErrorModel dataErr, AddrErrorModel addrErr,
                        uint64_t trials)
{
    MonteCarloCell cell;
    for (uint64_t i = 0; i < trials; ++i) {
        const TrialDetail detail = runTrialDetailed(dataErr, addrErr);
        cell.add(detail.outcome);
        if (obsHandle) {
            if (obsHandle->lineage())
                recordLineage(*obsHandle->lineage(), dataErr, addrErr, i,
                              detail);
            emitTrialEvents(*obsHandle, i, detail);
        }
    }
    AIECC_INFORM("Monte-Carlo cell " << ecc->name() << " / "
                                     << dataErrorName(dataErr) << " / "
                                     << addrErrorName(addrErr) << ": "
                                     << cell.trials
                                     << " trials, SDC frac "
                                     << cell.sdcFrac());
    return cell;
}

MonteCarloCell
DataMonteCarlo::runCellSharded(DataErrorModel dataErr,
                               AddrErrorModel addrErr, uint64_t trials,
                               const ShardPlan &plan)
{
    MonteCarloCell cell;
    runShardedCell(dataErr, addrErr, trials, /*exhaustive=*/false, plan,
                   cell, nullptr);
    AIECC_INFORM("Monte-Carlo cell (sharded x"
                 << shardCount(trials, plan.shardSize) << ") "
                 << ecc->name() << " / " << dataErrorName(dataErr)
                 << " / " << addrErrorName(addrErr) << ": "
                 << cell.trials << " trials, SDC frac "
                 << cell.sdcFrac());
    return cell;
}

MonteCarloCell
DataMonteCarlo::runCellExhaustive(DataErrorModel dataErr,
                                  AddrErrorModel addrErr,
                                  const ShardPlan &plan)
{
    MonteCarloCell cell;
    runShardedCell(dataErr, addrErr, cellSpaceSize(dataErr, addrErr),
                   /*exhaustive=*/true, plan, cell, nullptr);
    AIECC_INFORM("Monte-Carlo cell (exhaustive) "
                 << ecc->name() << " / " << dataErrorName(dataErr)
                 << " / " << addrErrorName(addrErr) << ": "
                 << cell.trials << " positions, SDC frac "
                 << cell.sdcFrac());
    return cell;
}

RunStatus
DataMonteCarlo::runShardedCell(DataErrorModel dataErr,
                               AddrErrorModel addrErr, uint64_t trials,
                               bool exhaustive, const ShardPlan &plan,
                               MonteCarloCell &cell,
                               const obs::ShardCheckpoint *checkpoint)
{
    if (exhaustive) {
        const uint64_t space = cellSpaceSize(dataErr, addrErr);
        AIECC_ASSERT(space > 0,
                     "cell " << dataErrorName(dataErr) << "/"
                             << addrErrorName(addrErr)
                             << " is not enumerable");
        AIECC_ASSERT(trials == space,
                     "exhaustive cell run must cover the whole space ("
                         << trials << " vs " << space << ")");
    }

    // Every cell of the Table III grid gets its own seed so two cells
    // sharing a shard index never replay the same error positions; an
    // exhaustive run additionally tags the worker streams so its
    // payload draws are disjoint from a sampled run of the same cell.
    const uint64_t cellSeed = baseSeed ^
                              (static_cast<uint64_t>(dataErr) << 32) ^
                              (static_cast<uint64_t>(addrErr) << 40) ^
                              (exhaustive ? exhaustiveSeedTag : 0);

    std::vector<MonteCarloCell> cells(shardCount(trials, plan.shardSize));
    return obs::runSharded(
        trials, plan.shardSize, plan.jobs,
        obsHandle,
        [&](uint64_t shard, uint64_t begin, uint64_t n,
            obs::ShardObservers &so) {
            // A fully private evaluator per shard: own codec tables,
            // own RNG stream, own counters.  Nothing here touches
            // `this` beyond reading the immutable configuration.
            DataMonteCarlo worker(schemeKind, cellSeed);
            worker.rng = Rng::forStream(cellSeed, shard);
            worker.retry = retry;
            if (so.observed())
                worker.setObserver(&so.observer());
            for (uint64_t i = 0; i < n; ++i) {
                const TrialDetail detail =
                    exhaustive
                        ? worker.runTrialAt(dataErr, addrErr, begin + i)
                        : worker.runTrialDetailed(dataErr, addrErr);
                cells[shard].add(detail.outcome);
                if (obs::LineageLedger *led = so.observer().lineage()) {
                    // Fault IDs come from the parent configuration and
                    // the trial's global (shard-major) index — never
                    // from the worker count.
                    recordLineage(*led, dataErr, addrErr, begin + i,
                                  detail, exhaustive);
                }
                worker.emitTrialEvents(so.observer(), begin + i, detail);
            }
        },
        [&](uint64_t shard) { cell.merge(cells[shard]); }, checkpoint);
}

} // namespace aiecc
