#include "inject/campaign.hh"

#include <sstream>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"

namespace aiecc
{

namespace
{

// Campaign working-set geometry: every bank holds data in an "open"
// row (rowA, left activated by setup) and a "target" row (rowT, used
// by the ACT/PRE patterns), at two columns each.
constexpr unsigned targetBg = 1;
constexpr unsigned targetBa = 2;
constexpr unsigned rowA = 0x2A;
constexpr unsigned rowT = 0x15;
constexpr unsigned col1 = 2;
constexpr unsigned col2 = 5;

BitVec
patternData(uint64_t tag)
{
    Rng rng(0xDA7A0000ULL ^ tag);
    BitVec d(Burst::dataBits);
    for (size_t i = 0; i < d.size(); i += 64)
        d.setField(i, 64, rng.next());
    return d;
}

MtbAddress
addrOf(unsigned bg, unsigned ba, unsigned row, unsigned col)
{
    return MtbAddress{0, bg, ba, row, col};
}

uint64_t
dataTag(unsigned bg, unsigned ba, unsigned row, unsigned col)
{
    return (static_cast<uint64_t>(bg) << 40) |
           (static_cast<uint64_t>(ba) << 32) |
           (static_cast<uint64_t>(row) << 8) | col;
}

} // namespace

std::vector<CommandPattern>
allPatterns()
{
    return {CommandPattern::ActWr, CommandPattern::ActRd,
            CommandPattern::Wr, CommandPattern::Rd, CommandPattern::Pre};
}

std::string
patternName(CommandPattern pattern)
{
    switch (pattern) {
      case CommandPattern::ActWr: return "ACT+WR";
      case CommandPattern::ActRd: return "ACT+RD";
      case CommandPattern::Wr: return "WR";
      case CommandPattern::Rd: return "RD";
      case CommandPattern::Pre: return "PRE";
    }
    return "?";
}

std::string
PinError::toString() const
{
    std::ostringstream out;
    if (allPin) {
        out << "all-pin";
    } else {
        for (size_t i = 0; i < flips.size(); ++i)
            out << (i ? "+" : "") << pinName(flips[i]);
    }
    if (persistence > 1)
        out << "x" << persistence;
    return out.str();
}

std::string
outcomeName(Outcome outcome)
{
    switch (outcome) {
      case Outcome::NoEffect: return "NE";
      case Outcome::Corrected: return "CE";
      case Outcome::Due: return "DUE";
      case Outcome::Sdc: return "SDC";
      case Outcome::Mdc: return "MDC";
      case Outcome::SdcMdc: return "SDC+MDC";
    }
    return "?";
}

std::string
recoveryClassName(RecoveryClass cls)
{
    switch (cls) {
      case RecoveryClass::None: return "none";
      case RecoveryClass::FirstTry: return "first_try";
      case RecoveryClass::AfterRetries: return "after_retries";
      case RecoveryClass::Exhausted: return "exhausted";
    }
    return "?";
}

namespace
{

/** Stat-name-safe outcome slug ("SDC+MDC" -> "sdc_mdc"). */
const char *
outcomeSlug(Outcome outcome)
{
    switch (outcome) {
      case Outcome::NoEffect: return "no_effect";
      case Outcome::Corrected: return "corrected";
      case Outcome::Due: return "due";
      case Outcome::Sdc: return "sdc";
      case Outcome::Mdc: return "mdc";
      case Outcome::SdcMdc: return "sdc_mdc";
    }
    return "unknown";
}

} // namespace

void
CampaignStats::add(const TrialResult &result)
{
    ++trials;
    if (result.detected) {
        ++detected;
        if (auto first = result.firstDetector())
            ++byFirstDetector[*first];
    }
    switch (result.outcome) {
      case Outcome::NoEffect: ++noEffect; break;
      case Outcome::Corrected: ++corrected; break;
      case Outcome::Due: ++due; break;
      case Outcome::Sdc: ++sdc; break;
      case Outcome::Mdc: ++mdc; break;
      case Outcome::SdcMdc:
        ++sdc;
        ++mdc;
        ++sdcMdcBoth;
        break;
    }
    recoveryEpisodes += result.recoveryEpisodes;
    recoveryAttempts += result.recoveryAttempts;
    switch (result.recovery) {
      case RecoveryClass::None: break;
      case RecoveryClass::FirstTry: ++recoveredFirstTry; break;
      case RecoveryClass::AfterRetries: ++recoveredAfterRetries; break;
      case RecoveryClass::Exhausted: ++retryExhausted; break;
    }
}

void
CampaignStats::merge(const CampaignStats &other)
{
    trials += other.trials;
    detected += other.detected;
    noEffect += other.noEffect;
    corrected += other.corrected;
    due += other.due;
    sdc += other.sdc;
    mdc += other.mdc;
    sdcMdcBoth += other.sdcMdcBoth;
    for (const auto &[mechKind, count] : other.byFirstDetector)
        byFirstDetector[mechKind] += count;
    recoveryEpisodes += other.recoveryEpisodes;
    recoveryAttempts += other.recoveryAttempts;
    recoveredFirstTry += other.recoveredFirstTry;
    recoveredAfterRetries += other.recoveredAfterRetries;
    retryExhausted += other.retryExhausted;
}

void
CampaignStats::writeJson(obs::JsonWriter &w) const
{
    w.beginObject();
    w.kv("trials", trials);
    w.kv("detected", detected);
    w.kv("no_effect", noEffect);
    w.kv("corrected", corrected);
    w.kv("due", due);
    w.kv("sdc", sdc);
    w.kv("mdc", mdc);
    w.kv("sdc_mdc_both", sdcMdcBoth);
    w.kv("detected_frac", detectedFrac());
    w.kv("covered_frac", coveredFrac());
    w.kv("sdc_frac", sdcFrac());
    w.kv("mdc_frac", mdcFrac());
    w.key("recovery");
    w.beginObject();
    w.kv("episodes", recoveryEpisodes);
    w.kv("attempts", recoveryAttempts);
    w.kv("recovered_first_try", recoveredFirstTry);
    w.kv("recovered_after_retries", recoveredAfterRetries);
    w.kv("retry_exhausted", retryExhausted);
    w.kv("mean_attempts_per_episode",
         recoveryEpisodes
             ? static_cast<double>(recoveryAttempts) / recoveryEpisodes
             : 0.0);
    w.kv("exhausted_frac",
         trials ? static_cast<double>(retryExhausted) / trials : 0.0);
    w.endObject();
    w.key("by_first_detector");
    w.beginObject();
    for (const auto &[mechKind, count] : byFirstDetector)
        w.kv(mechanismName(mechKind), count);
    w.endObject();
    w.endObject();
}

InjectionCampaign::InjectionCampaign(const Mechanisms &mech, uint64_t seed)
    : mech(mech), seed(seed)
{
}

void
InjectionCampaign::setObserver(obs::Observer *observer)
{
    obsHook = observer;
    oc = {};
    if (!obsHook || !obsHook->stats())
        return;
    obs::StatsRegistry &reg = *obsHook->stats();
    oc.trials = &reg.counter("campaign.trials", "injection trials run");
    oc.detected = &reg.counter("campaign.detected",
                               "trials where any mechanism fired");
    for (unsigned o = 0; o < 6; ++o) {
        oc.byOutcome[o] = &reg.counter(
            std::string("campaign.outcome.") +
                outcomeSlug(static_cast<Outcome>(o)),
            "trials classified as this outcome");
    }
    for (unsigned m = 0; m < 7; ++m) {
        oc.byFirstDetector[m] = &reg.counter(
            "campaign.first_detector." +
                mechanismName(static_cast<Mechanism>(m)),
            "trials whose first detection came from this mechanism");
    }
    oc.recoveredFirstTry = &reg.counter(
        "campaign.recovery.first_try",
        "trials recovered in-band on the first attempt");
    oc.recoveredAfterRetries = &reg.counter(
        "campaign.recovery.after_retries",
        "trials recovered in-band after more than one attempt");
    oc.retryExhausted = &reg.counter(
        "campaign.recovery.exhausted",
        "trials whose in-band retry budget ran out");
}

namespace
{

/** Sequence bookkeeping shared between the setup/pattern/verify code. */
/** One consumed read: payload, flagged status, and consumption time. */
struct ReadRecord
{
    BitVec data{Burst::dataBits};
    bool flagged = false;
    Cycle when = 0;
    bool due = false;
};

struct SequenceContext
{
    ProtectionStack &stack;
    std::vector<ReadRecord> *reads;

    void
    readBack(const MtbAddress &addr)
    {
        const auto out = stack.issueRd(addr);
        if (reads) {
            reads->push_back({out.data, out.detected || out.due,
                              stack.controller().now(), out.due});
        }
    }
};

void
setupWorkingSet(ProtectionStack &stack, CommandPattern pattern)
{
    const Geometry geom = stack.geometry();
    for (unsigned bg = 0; bg < geom.numBankGroups(); ++bg) {
        for (unsigned ba = 0; ba < geom.banksPerGroup(); ++ba) {
            stack.write(addrOf(bg, ba, rowT, col1),
                        patternData(dataTag(bg, ba, rowT, col1)));
            stack.write(addrOf(bg, ba, rowA, col1),
                        patternData(dataTag(bg, ba, rowA, col1)));
            stack.write(addrOf(bg, ba, rowA, col2),
                        patternData(dataTag(bg, ba, rowA, col2)));
        }
    }
    // A warm-up read leaves a *valid* codeword as the PHY read FIFO's
    // stale entry, as on a real system mid-operation; a missing RD
    // then re-reads that stale entry (wrong address, valid data) —
    // invisible to data-only ECC, caught by eDECC (§IV-C).
    stack.read(addrOf(0, 0, rowA, col1));

    // ACT patterns need the target bank idle (§V-A: all banks open
    // except for erroneous ACTs, where the target bank is closed).
    if (pattern == CommandPattern::ActWr ||
        pattern == CommandPattern::ActRd) {
        stack.issuePre(targetBg, targetBa);
    }
}

/** Fresh payload the pattern's WR deposits (differs from setup data). */
BitVec
freshData()
{
    return patternData(0xF2E5D);
}

void
runPattern(ProtectionStack &stack, CommandPattern pattern,
           std::vector<ReadRecord> *reads)
{
    SequenceContext ctx{stack, reads};
    switch (pattern) {
      case CommandPattern::ActWr:
        stack.issueAct(targetBg, targetBa, rowT);
        stack.issueWr(addrOf(targetBg, targetBa, rowT, col1),
                      freshData());
        break;
      case CommandPattern::ActRd:
        stack.issueAct(targetBg, targetBa, rowT);
        ctx.readBack(addrOf(targetBg, targetBa, rowT, col1));
        break;
      case CommandPattern::Wr:
        stack.issueWr(addrOf(targetBg, targetBa, rowA, col1),
                      freshData());
        break;
      case CommandPattern::Rd:
        ctx.readBack(addrOf(targetBg, targetBa, rowA, col1));
        break;
      case CommandPattern::Pre:
        stack.issuePre(targetBg, targetBa);
        stack.issueAct(targetBg, targetBa, rowT);
        ctx.readBack(addrOf(targetBg, targetBa, rowT, col1));
        break;
    }
}

void
runVerify(ProtectionStack &stack, std::vector<ReadRecord> *reads)
{
    SequenceContext ctx{stack, reads};
    const Geometry geom = stack.geometry();
    for (unsigned bg = 0; bg < geom.numBankGroups(); ++bg) {
        for (unsigned ba = 0; ba < geom.banksPerGroup(); ++ba) {
            stack.issuePre(bg, ba);
            stack.issueAct(bg, ba, rowA);
            ctx.readBack(addrOf(bg, ba, rowA, col1));
            ctx.readBack(addrOf(bg, ba, rowA, col2));
            stack.issuePre(bg, ba);
            stack.issueAct(bg, ba, rowT);
            ctx.readBack(addrOf(bg, ba, rowT, col1));
        }
    }
}

/** The lineage terminal state a classified trial resolved to. */
obs::FaultTerminal
trialTerminal(const TrialResult &tr)
{
    switch (tr.outcome) {
      case Outcome::NoEffect:
        return obs::FaultTerminal::Masked;
      case Outcome::Corrected:
        // A correction that needed an in-band episode is a recovery;
        // one without (e.g. data ECC in place) is a plain correction.
        return tr.recoveryEpisodes ? obs::FaultTerminal::Recovered
                                   : obs::FaultTerminal::Corrected;
      case Outcome::Due:
        return obs::FaultTerminal::Detected;
      case Outcome::Sdc:
      case Outcome::Mdc:
      case Outcome::SdcMdc:
        return obs::FaultTerminal::Escaped;
    }
    return obs::FaultTerminal::Escaped;
}

/** The intended command on the pattern's target (first) edge. */
Command
targetCommand(CommandPattern pattern)
{
    switch (pattern) {
      case CommandPattern::ActWr:
      case CommandPattern::ActRd:
        return Command::act(targetBg, targetBa, rowT);
      case CommandPattern::Wr:
        return Command::wr(targetBg, targetBa,
                           col1 << Geometry::burstBits);
      case CommandPattern::Rd:
        return Command::rd(targetBg, targetBa,
                           col1 << Geometry::burstBits);
      case CommandPattern::Pre:
        return Command::pre(targetBg, targetBa);
    }
    return Command::nop();
}

} // namespace

TrialResult
InjectionCampaign::runTrial(CommandPattern pattern, const PinError &error)
{
    StackConfig cfg;
    cfg.mech = mech;
    cfg.recovery = recoveryCfg;
    cfg.seed = seed ^ (static_cast<uint64_t>(pattern) << 56) ^
               error.noiseSeed;

    TrialResult tr;
    tr.intended = targetCommand(pattern);

    // ---- Golden run: no injection. ----
    ProtectionStack golden(cfg);
    std::vector<ReadRecord> goldenReads;
    setupWorkingSet(golden, pattern);
    runPattern(golden, pattern, &goldenReads);
    golden.issueNop();
    runVerify(golden, &goldenReads);
    AIECC_ASSERT(golden.detections().empty(),
                 "golden run raised detections under "
                     << mech.describe());

    // ---- Faulty run. ----
    // Cost accounting observes the faulty (protected) run only: its
    // traffic — setup, the pattern, verification, and any in-band
    // recovery the fault triggers — is the per-trial protection cost.
    // The observer carries nothing but the accountant, so the stack
    // resolves no counters and emits into no sinks.
    obs::Observer costObs;
    StackConfig faultyCfg = cfg;
    if (costAcct) {
        costObs.setCost(costAcct);
        faultyCfg.observer = &costObs;
    }
    ProtectionStack faulty(faultyCfg);
    setupWorkingSet(faulty, pattern);
    faulty.clearDetections();

    // Lineage: the fault ID is a pure function of the campaign
    // configuration and the global trial index (DESIGN.md §10), so
    // worker decomposition cannot change it.
    uint64_t faultId = 0;
    std::string site;
    if (ledger) {
        site = patternName(pattern) + "/" + error.toString();
        faultId = obs::deriveFaultId(
            seed ^ obs::lineageHash("ddr4:" + mech.describe()),
            static_cast<uint64_t>(pattern), trialIndex);
        ledger->recordInjection(faultId, obs::FaultKind::Ccca, site);
        faulty.setFaultContext(faultId);
    }
    const Cycle injectCycle = faulty.controller().now();

    const uint64_t targetIdx = faulty.controller().commandsIssued();
    PinWord corrupted;
    const PinError err = error;
    const bool parPresent = mech.parPinPresent();
    // The corruptor stays live for the fault's whole persistence
    // window — including through any in-band recovery attempts, which
    // burn command edges of their own.  The engine's attempt bound,
    // not the harness, decides whether the trial recovers.
    faulty.setPinCorruptor(
        [targetIdx, err, parPresent, &corrupted](uint64_t idx,
                                                 PinWord &pins) {
            if (idx < targetIdx || idx >= targetIdx + err.persistence)
                return;
            if (err.allPin) {
                Rng noise(0xA11F1A5ULL ^ err.noiseSeed ^
                          ((idx - targetIdx) * 0x9E3779B97F4A7C15ULL));
                for (unsigned p = 0; p < numCccaPins; ++p) {
                    const Pin pin = static_cast<Pin>(p);
                    if (pin == Pin::CK)
                        continue;
                    if (pin == Pin::PAR && !parPresent)
                        continue;
                    pins.set(pin, noise.chance(0.5));
                }
            } else {
                for (Pin pin : err.flips)
                    pins.flip(pin);
            }
            if (idx == targetIdx)
                corrupted = pins;
        });

    std::vector<ReadRecord> firstPass;
    runPattern(faulty, pattern, &firstPass);
    faulty.issueNop();
    runVerify(faulty, &firstPass);
    tr.decoded = decodeCommand(corrupted);

    // Wrong data consumed *before* the first detection fired is
    // silent corruption no matter what is flagged later — a consumer
    // has already used it (the paper's SDC accounting).
    for (const auto &ev : faulty.detections()) {
        tr.detected = true;
        tr.detectors.push_back(ev.mech);
        if (ev.diagnosedAddress && !tr.diagnosedAddress)
            tr.diagnosedAddress = ev.diagnosedAddress;
    }
    const Cycle firstDetection =
        tr.detected ? faulty.detections().front().when
                    : ~static_cast<Cycle>(0);
    AIECC_ASSERT(firstPass.size() == goldenReads.size(),
                 "read-sequence length mismatch");
    for (size_t i = 0; i < firstPass.size(); ++i) {
        if (!firstPass[i].flagged &&
            firstPass[i].when < firstDetection &&
            firstPass[i].data != goldenReads[i].data) {
            tr.sdc = true;
        }
    }

    // ---- Classification against golden. ----
    // The in-band recovery engine already ran inside the faulty pass
    // (§IV-G); there is no golden-restore replay.  A read the engine
    // recovered is flagged but carries correct data; whatever it could
    // not fix is residual.
    bool residual = false;
    for (size_t i = 0; i < firstPass.size(); ++i) {
        if (firstPass[i].due) {
            residual = true; // a DUE was delivered to the consumer
            continue;
        }
        if (firstPass[i].data != goldenReads[i].data) {
            residual = true;
            if (!tr.detected)
                tr.sdc = true;
        }
    }

    // Storage comparison: every address stored by either run must
    // agree (reads through peek() cover default-fill semantics).
    auto keys = faulty.rank().storedAddresses();
    for (const auto &addr : golden.rank().storedAddresses())
        keys.push_back(addr);
    for (const auto &addr : keys) {
        if (faulty.rank().peek(addr) != golden.rank().peek(addr)) {
            tr.mdc = true;
            break;
        }
    }
    if (faulty.rank().modeCorrupted())
        tr.mdc = true;

    // The faulty stack is fresh per trial, so its engine statistics
    // are this trial's recovery record.
    const RecoveryStats &rs = faulty.recoveryStats();
    tr.recoveryEpisodes = rs.episodes;
    tr.recoveryAttempts = rs.attempts;
    tr.retryExhausted = rs.exhausted > 0;
    if (rs.exhausted)
        tr.recovery = RecoveryClass::Exhausted;
    else if (rs.recoveredAfterRetries)
        tr.recovery = RecoveryClass::AfterRetries;
    else if (rs.recovered)
        tr.recovery = RecoveryClass::FirstTry;

    if (tr.sdc || (!tr.detected && tr.mdc)) {
        // Silent corruption escaped (even if something fired later).
        tr.outcome = tr.sdc && tr.mdc
                         ? Outcome::SdcMdc
                         : (tr.sdc ? Outcome::Sdc : Outcome::Mdc);
    } else if (!tr.detected) {
        tr.outcome = Outcome::NoEffect;
    } else {
        tr.outcome =
            (residual || tr.mdc) ? Outcome::Due : Outcome::Corrected;
    }

    ++trialIndex;

    // Lineage prologue of the trial's event stream: the injection and
    // the replayed detections come before the Classification so the
    // per-fault timeline reads inject -> observe* -> classify ->
    // resolve in emission order.
    if (ledger && obsHook && obsHook->tracing()) {
        obs::TraceEvent inj;
        inj.kind = obs::EventKind::FaultInject;
        inj.cycle = injectCycle;
        inj.label = site;
        inj.value = trialIndex - 1; // the trial this fault rode
        inj.detail = obs::faultKindName(obs::FaultKind::Ccca);
        inj.faultId = faultId;
        obsHook->emit(inj);

        // The ephemeral faulty stack runs unobserved, so its
        // detection log is replayed here to complete the
        // inject -> observe* -> resolve timeline.
        for (const DetectionEvent &det : faulty.detections()) {
            obs::TraceEvent d;
            d.kind = obs::EventKind::Detection;
            d.cycle = det.when;
            d.label = mechanismName(det.mech);
            d.value = det.diagnosedAddress ? *det.diagnosedAddress : 0;
            d.detail = det.detail;
            d.faultId = det.faultId;
            obsHook->emit(d);
        }
    }

    if (obsHook) {
        if (oc.trials) {
            ++*oc.trials;
            if (tr.detected)
                ++*oc.detected;
            ++*oc.byOutcome[static_cast<unsigned>(tr.outcome)];
            if (auto first = tr.firstDetector())
                ++*oc.byFirstDetector[static_cast<unsigned>(*first)];
            switch (tr.recovery) {
              case RecoveryClass::None: break;
              case RecoveryClass::FirstTry:
                ++*oc.recoveredFirstTry;
                break;
              case RecoveryClass::AfterRetries:
                ++*oc.recoveredAfterRetries;
                break;
              case RecoveryClass::Exhausted:
                ++*oc.retryExhausted;
                break;
            }
        }
        std::string detail = patternName(pattern) + " / " +
                             error.toString();
        if (auto first = tr.firstDetector())
            detail += " first=" + mechanismName(*first);
        if (tr.recovery != RecoveryClass::None) {
            detail += " recovery=" + recoveryClassName(tr.recovery) +
                      "(" + std::to_string(tr.recoveryAttempts) + ")";
        }
        obs::TraceEvent cls;
        cls.kind = obs::EventKind::Classification;
        cls.cycle = faulty.controller().now();
        cls.label = outcomeName(tr.outcome);
        cls.value = trialIndex;
        cls.detail = std::move(detail);
        cls.faultId = faultId;
        obsHook->emit(cls);
    }

    if (ledger) {
        const obs::FaultTerminal terminal = trialTerminal(tr);
        std::string firstMech;
        if (auto first = tr.firstDetector())
            firstMech = mechanismName(*first);
        ledger->resolve(faultId, terminal, firstMech,
                        static_cast<uint32_t>(tr.detectors.size()),
                        static_cast<uint32_t>(tr.recoveryAttempts));

        if (obsHook && obsHook->tracing()) {
            obs::TraceEvent res;
            res.kind = obs::EventKind::FaultResolve;
            res.cycle = faulty.controller().now();
            res.label = obs::faultTerminalName(terminal);
            res.value = tr.recoveryAttempts;
            if (!firstMech.empty())
                res.detail = "first=" + firstMech;
            res.faultId = faultId;
            obsHook->emit(res);
        }
    }
    return tr;
}

std::vector<TrialResult>
InjectionCampaign::runTrials(CommandPattern pattern,
                             const std::vector<PinError> &errors,
                             unsigned jobs)
{
    std::vector<TrialResult> results(errors.size());
    runTrialShards(
        pattern, errors, jobs,
        [&](uint64_t index, const TrialResult &tr) { results[index] = tr; },
        nullptr);
    return results;
}

RunStatus
InjectionCampaign::runTrialsCheckpointed(
    CommandPattern pattern, const std::vector<PinError> &errors,
    unsigned jobs, uint64_t batchShards, uint64_t &nextShard,
    const std::function<void(uint64_t, const TrialResult &)> &onResult,
    const std::function<void(uint64_t, uint64_t)> &commit)
{
    const obs::ShardCheckpoint checkpoint{batchShards, &nextShard, commit};
    return runTrialShards(pattern, errors, jobs, onResult, &checkpoint);
}

RunStatus
InjectionCampaign::runTrialShards(
    CommandPattern pattern, const std::vector<PinError> &errors,
    unsigned jobs,
    const std::function<void(uint64_t, const TrialResult &)> &onResult,
    const obs::ShardCheckpoint *checkpoint)
{
    constexpr uint64_t shardSize = trialShardSize;
    const uint64_t total = errors.size();
    const uint64_t indexBase = trialIndex;
    obs::ShardHookups parent = obs::ShardHookups::of(obsHook, ledger);
    parent.cost = costAcct;

    // Per-shard result slots, each released as its shard folds.
    std::vector<std::vector<TrialResult>> shardResults(
        shardCount(total, shardSize));
    const RunStatus status = obs::runSharded(
        total, shardSize, jobs, parent,
        [&](uint64_t shard, uint64_t begin, uint64_t n,
            obs::ShardObservers &so) {
            // A private campaign per shard isolates the mutable state
            // (trial numbering, resolved counters); the parent's
            // configuration is copied verbatim.
            InjectionCampaign worker(mech, seed);
            worker.recoveryCfg = recoveryCfg;
            worker.trialIndex = indexBase + begin;
            // Cost bills through costAcct, not the observer: attach
            // the observer only for what runTrial() reads from it.
            if (so.observer().stats() || so.observer().tracing())
                worker.setObserver(&so.observer());
            worker.ledger = so.ledger();
            worker.costAcct = so.cost();
            shardResults[shard].resize(n);
            for (uint64_t i = 0; i < n; ++i) {
                shardResults[shard][i] =
                    worker.runTrial(pattern, errors[begin + i]);
            }
        },
        [&](uint64_t shard) {
            const uint64_t begin = shard * shardSize;
            for (uint64_t i = 0; i < shardResults[shard].size(); ++i)
                onResult(begin + i, shardResults[shard][i]);
            std::vector<TrialResult>().swap(shardResults[shard]);
        },
        checkpoint);

    if (status == RunStatus::Completed)
        trialIndex = indexBase + total;
    return status;
}

CombinationSpace
InjectionCampaign::kPinSpace(unsigned k) const
{
    const auto pins = injectablePins(mech.parPinPresent());
    return CombinationSpace(static_cast<unsigned>(pins.size()), k);
}

PinError
InjectionCampaign::kPinError(unsigned k, uint64_t rank) const
{
    const auto pins = injectablePins(mech.parPinPresent());
    const CombinationSpace space(static_cast<unsigned>(pins.size()), k);
    PinError err;
    for (unsigned idx : space.unrank(rank))
        err.flips.push_back(pins[idx]);
    return err;
}

CampaignStats
InjectionCampaign::sweepKPinExhaustive(CommandPattern pattern, unsigned k,
                                       unsigned jobs)
{
    // Unranking rank 0..size-1 reproduces the nested-loop order of a
    // materialized sweep exactly (the CombinationSpace order
    // contract), so the enumeration is driven by the combinadic index
    // rather than by loop structure — provably exhaustive.
    const CombinationSpace space = kPinSpace(k);
    std::vector<PinError> errors;
    errors.reserve(space.size());
    for (uint64_t rank = 0; rank < space.size(); ++rank)
        errors.push_back(kPinError(k, rank));
    return sweep(pattern, errors, jobs,
                 "exhaustive " + std::to_string(k) + "-pin");
}

CampaignStats
InjectionCampaign::sweepOnePin(CommandPattern pattern, unsigned jobs)
{
    return sweepKPinExhaustive(pattern, 1, jobs);
}

CampaignStats
InjectionCampaign::sweepTwoPin(CommandPattern pattern, unsigned jobs)
{
    return sweepKPinExhaustive(pattern, 2, jobs);
}

CampaignStats
InjectionCampaign::sweepAllPin(CommandPattern pattern, unsigned samples,
                               unsigned jobs)
{
    std::vector<PinError> errors;
    for (unsigned s = 0; s < samples; ++s)
        errors.push_back(PinError::allPins(s + 1));
    return sweep(pattern, errors, jobs, "all-pin");
}

CampaignStats
InjectionCampaign::sweep(CommandPattern pattern,
                         const std::vector<PinError> &errors,
                         unsigned jobs, const std::string &what)
{
    CampaignStats stats;
    for (const TrialResult &tr : runTrials(pattern, errors, jobs))
        stats.add(tr);
    AIECC_INFORM(what << " sweep " << patternName(pattern) << " ["
                      << mech.describe() << "]: " << stats.trials
                      << " trials, covered " << stats.coveredFrac());
    return stats;
}

} // namespace aiecc
