#include "recovery/recovery.hh"

#include <algorithm>

namespace aiecc
{

const char *
recoveryCauseName(RecoveryCause cause)
{
    switch (cause) {
      case RecoveryCause::CaParity: return "ca-parity";
      case RecoveryCause::Wcrc: return "write-crc";
      case RecoveryCause::Cstc: return "cstc";
      case RecoveryCause::ReadDecode: return "read-decode";
    }
    return "?";
}

RecoveryEngine::RecoveryEngine(const RecoveryConfig &config,
                               unsigned numBanks, obs::Observer *observer)
    : cfg(config), obsHook(observer), buckets(numBanks)
{
    if (!obsHook || !obsHook->stats())
        return;
    obs::StatsRegistry &reg = *obsHook->stats();
    oc.episodes = &reg.counter("stack.recovery.episodes",
                               "in-band recovery episodes started");
    oc.attempts = &reg.counter("stack.recovery.attempts",
                               "individual retry attempts run");
    oc.recovered = &reg.counter("stack.recovery.recovered",
                                "episodes that restored correct state");
    oc.recoveredFirstTry =
        &reg.counter("stack.recovery.recovered_first_try",
                     "episodes recovered on the first attempt");
    oc.recoveredAfterRetries =
        &reg.counter("stack.recovery.recovered_after_retries",
                     "episodes recovered after more than one attempt");
    oc.exhausted = &reg.counter("stack.recovery.exhausted",
                                "episodes that ran out of attempts");
    oc.wrReplays = &reg.counter("stack.recovery.wr_replays",
                                "writes re-sent from the replay buffer");
    oc.rdReissues = &reg.counter("stack.recovery.rd_reissues",
                                 "reads re-sent after a detection");
    oc.wrtResyncs = &reg.counter(
        "stack.recovery.wrt_resyncs",
        "eCAP write-toggle resynchronizations performed");
    oc.quarantines = &reg.counter(
        "stack.recovery.quarantines",
        "banks quarantined by the leaky-bucket ladder");
    oc.rankDegrades = &reg.counter(
        "stack.recovery.rank_degrades",
        "transitions into rank-degraded mode");
    oc.patrolScrubs = &reg.counter(
        "stack.recovery.patrol_scrubs",
        "stored blocks corrected by the patrol scrubber");
    oc.retryDepth = &reg.histogram(
        "stack.recovery.retry_depth",
        "attempts used per recovery episode");
}

bool
RecoveryEngine::quarantined(unsigned flatBank) const
{
    return flatBank < buckets.size() && buckets[flatBank].quarantined;
}

unsigned
RecoveryEngine::quarantinedBanks() const
{
    unsigned n = 0;
    for (const Bucket &b : buckets)
        n += b.quarantined ? 1 : 0;
    return n;
}

void
RecoveryEngine::charge(unsigned flatBank, double tokens, Cycle now)
{
    if (flatBank >= buckets.size())
        return;
    Bucket &b = buckets[flatBank];
    if (cfg.bucketLeakPeriod && now > b.lastLeak) {
        b.level -= static_cast<double>(now - b.lastLeak) /
                   static_cast<double>(cfg.bucketLeakPeriod);
        b.level = std::max(b.level, 0.0);
    }
    b.lastLeak = now;
    b.level += tokens;
    if (b.quarantined ||
        b.level <= static_cast<double>(cfg.bucketCapacity))
        return;

    enterQuarantine(flatBank, now,
                    "leaky bucket overflowed: bank quarantined");
}

void
RecoveryEngine::enterQuarantine(unsigned flatBank, Cycle now,
                                const char *why)
{
    Bucket &b = buckets[flatBank];
    b.quarantined = true;
    bump(st.quarantines, oc.quarantines);
    if (tracing())
        obsHook->emit({.kind = obs::EventKind::Escalation,
                       .symptom = obs::Symptom::Quarantine,
                       .detail = obs::Detail::Why,
                       .cycle = now,
                       .value = flatBank,
                       .label = "quarantine",
                       .why = why});
    if (!degraded && quarantinedBanks() >= cfg.rankDegradeBanks) {
        degraded = true;
        bump(st.rankDegrades, oc.rankDegrades);
        if (tracing())
            obsHook->emit({.kind = obs::EventKind::Escalation,
                           .detail = obs::Detail::Why,
                           .cycle = now,
                           .value = quarantinedBanks(),
                           .label = "rank_degraded",
                           .why = "quarantined-bank threshold crossed"});
    }
}

void
RecoveryEngine::adviseQuarantine(unsigned flatBank, Cycle now)
{
    if (flatBank >= buckets.size() || buckets[flatBank].quarantined)
        return;
    enterQuarantine(flatBank, now,
                    "predictive mitigation: bank quarantined");
}

bool
RecoveryEngine::resyncIfNeeded(RecoveryPort &port)
{
    if (!port.wrtMismatch())
        return true;
    // The toggles disagree: a WR was lost (or spuriously created) in
    // flight.  Adopt the device's state, then replay the newest
    // buffered write so the array holds what the consumer believes
    // (the paper's alert handling before command replay, §IV-G).
    port.resyncWrt();
    bump(st.wrtResyncs, oc.wrtResyncs);
    const auto entry = port.newestWrite();
    if (!entry)
        return true; // nothing buffered: toggle adopted, data unknown
    if (!port.reopenRow(entry->addr.bg, entry->addr.ba, entry->addr.row))
        return false;
    bump(st.wrReplays, oc.wrReplays);
    if (!port.replayWrite(*entry))
        return false;
    // A replay lost in flight leaves the toggles apart again.
    return !port.wrtMismatch();
}

bool
RecoveryEngine::tryOnce(RecoveryCause cause, const Command &intended,
                        const std::optional<ReplayEntry> &wrEntry,
                        unsigned attempt, RecoveryPort &port)
{
    switch (intended.type) {
      case CmdType::Wr: {
        // The intended WR itself is the write to replay; resync the
        // toggle if needed but skip the pre-step replay (it would
        // duplicate this one).
        if (port.wrtMismatch()) {
            port.resyncWrt();
            bump(st.wrtResyncs, oc.wrtResyncs);
        }
        if (!wrEntry)
            return false; // no buffered payload: unrecoverable here
        // A CSTC alert (or a repeated failure) suggests the device's
        // bank state diverged from the controller's belief: reopen
        // the row first.  PRE to an idle bank is a JEDEC NOP, so the
        // preamble is safe whatever the device's real state.
        const bool reopen = cause == RecoveryCause::Cstc || attempt > 1;
        if (reopen &&
            !port.reopenRow(wrEntry->addr.bg, wrEntry->addr.ba,
                            wrEntry->addr.row))
            return false;
        bump(st.wrReplays, oc.wrReplays);
        if (!port.replayWrite(*wrEntry))
            return false;
        return !port.wrtMismatch();
      }

      case CmdType::Act:
        if (!resyncIfNeeded(port))
            return false;
        return port.reopenRow(intended.bg, intended.ba, intended.row);

      case CmdType::Pre:
      case CmdType::PreAll:
      case CmdType::Ref:
      case CmdType::Nop:
      default:
        // Re-sending the command doubles as link verification: a
        // clean pass with no alert proves controller and device agree
        // again.
        if (!resyncIfNeeded(port))
            return false;
        return port.reissue(intended);
    }
}

template <class Attempt>
RecoveryOutcome
RecoveryEngine::runEpisode(RecoveryCause cause, unsigned flatBank,
                           RecoveryPort &port, Attempt &&attempt)
{
    RecoveryOutcome out;
    if (!cfg.enabled || cfg.maxAttempts == 0)
        return out;
    // Every command the episode drives through the port is extra
    // traffic the fault caused: bill the whole episode to the
    // recovery cost level (obs/cost.hh).
    obs::ScopedRecoveryCost billEpisode(obsHook ? obsHook->cost()
                                                : nullptr);
    out.attempted = true;
    bump(st.episodes, oc.episodes);

    for (unsigned n = 1; n <= cfg.maxAttempts; ++n) {
        if (n > 1 && cfg.backoffCycles)
            port.backoff(cfg.backoffCycles);
        out.attempts = n;
        bump(st.attempts, oc.attempts);
        if (attempt(n, out)) {
            out.recovered = true;
            break;
        }
        charge(flatBank, 1.0, port.portNow());
    }

    if (out.recovered) {
        bump(st.recovered, oc.recovered);
        if (out.attempts == 1)
            bump(st.recoveredFirstTry, oc.recoveredFirstTry);
        else
            bump(st.recoveredAfterRetries, oc.recoveredAfterRetries);
    } else {
        out.exhausted = true;
        bump(st.exhausted, oc.exhausted);
        // Exhaustion weighs extra in the ladder: the fault outlived
        // the whole retry window.
        charge(flatBank, 2.0, port.portNow());
    }
    if (oc.retryDepth)
        oc.retryDepth->sample(out.attempts);
    if (tracing())
        obsHook->emit({.kind = obs::EventKind::Recovery,
                       .symptom = out.exhausted ? obs::Symptom::Exhausted
                                                : obs::Symptom::None,
                       .detail = obs::Detail::Why,
                       .cycle = port.portNow(),
                       .value = out.attempts,
                       .label = recoveryCauseName(cause),
                       .why = out.recovered ? "in-band recovery succeeded"
                                            : "retry budget exhausted"});
    return out;
}

RecoveryOutcome
RecoveryEngine::onAlert(RecoveryCause cause, const Command &intended,
                        unsigned flatBank,
                        const std::optional<ReplayEntry> &wrEntry,
                        RecoveryPort &port)
{
    return runEpisode(cause, flatBank, port,
                      [&](unsigned attempt, RecoveryOutcome &) {
        if (tracing())
            obsHook->emit({.kind = obs::EventKind::Retry,
                           .detail = obs::Detail::Replay,
                           .cycle = port.portNow(),
                           .value = attempt,
                           .label = recoveryCauseName(cause),
                           .cmd = intended});
        return tryOnce(cause, intended, wrEntry, attempt, port);
    });
}

RecoveryOutcome
RecoveryEngine::onReadDetection(const MtbAddress &addr, unsigned flatBank,
                                RecoveryPort &port)
{
    const RecoveryCause cause = RecoveryCause::ReadDecode;
    return runEpisode(cause, flatBank, port,
                      [&](unsigned attempt, RecoveryOutcome &out) {
        if (tracing())
            obsHook->emit({.kind = obs::EventKind::Retry,
                           .detail = obs::Detail::ReissueRd,
                           .cycle = port.portNow(),
                           .value = attempt,
                           .label = recoveryCauseName(cause),
                           .addr = addr});
        if (!resyncIfNeeded(port))
            return false;
        // A skewed FIFO pointer would hand the reissued RD stale data:
        // drain it first so the device's fresh burst is the one popped.
        port.drainReadFifo();
        if (attempt > 1 && !port.reopenRow(addr.bg, addr.ba, addr.row))
            return false;
        bump(st.rdReissues, oc.rdReissues);
        out.data = port.reissueRead(addr);
        return out.data.has_value();
    });
}

void
RecoveryEngine::notePatrol(const MtbAddress &addr, bool scrubbed,
                           Cycle now)
{
    ++st.patrolReads;
    if (!scrubbed)
        return;
    bump(st.patrolScrubs, oc.patrolScrubs);
    if (tracing())
        obsHook->emit({.kind = obs::EventKind::PatrolScrub,
                       .detail = obs::Detail::Patrol,
                       .cycle = now,
                       .value = addr.pack(),
                       .label = "patrol",
                       .addr = addr});
}

} // namespace aiecc
