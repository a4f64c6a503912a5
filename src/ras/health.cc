#include "ras/health.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"

namespace aiecc
{
namespace ras
{

namespace
{

/** Worse-of for shard merging and escalation comparisons. */
inline bool
worse(HealthState a, HealthState b)
{
    return static_cast<int>(a) > static_cast<int>(b);
}

inline unsigned
popcount64(uint64_t v)
{
    unsigned n = 0;
    for (; v; v &= v - 1)
        ++n;
    return n;
}

/** Parse the " chips=<hex>" suffix a data-ECC detection carries. */
uint32_t
parseChipsMask(const std::string &detail)
{
    const size_t at = detail.find(" chips=");
    if (at == std::string::npos)
        return 0;
    uint32_t mask = 0;
    for (size_t i = at + 7; i < detail.size(); ++i) {
        const char c = detail[i];
        unsigned digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (c >= 'a' && c <= 'f')
            digit = c - 'a' + 10;
        else
            break;
        mask = mask << 4 | digit;
    }
    return mask;
}

/** The severity the raw windowed counts call for, ignoring dwell. */
HealthState
severityFor(uint64_t ces, uint64_t ues, uint64_t degradeCes,
            uint64_t failCes, uint64_t degradeUes, uint64_t failUes)
{
    if (ues >= failUes || ces >= failCes)
        return HealthState::Failing;
    if (ues >= degradeUes || ces >= degradeCes)
        return HealthState::Degraded;
    return HealthState::Healthy;
}

} // namespace

const char *
healthStateName(HealthState state)
{
    switch (state) {
      case HealthState::Healthy:
        return "healthy";
      case HealthState::Degraded:
        return "degraded";
      case HealthState::Failing:
        return "failing";
    }
    return "?";
}

const char *
topologyName(Topology topology)
{
    switch (topology) {
      case Topology::None:
        return "none";
      case Topology::SingleCell:
        return "single_cell";
      case Topology::Row:
        return "row";
      case Topology::Column:
        return "column";
      case Topology::Chip:
        return "chip";
      case Topology::Link:
        return "link";
    }
    return "?";
}

const char *
actionName(ActionKind kind)
{
    switch (kind) {
      case ActionKind::RaisePatrol:
        return "raise_patrol";
      case ActionKind::RetireRow:
        return "retire_row";
      case ActionKind::QuarantineBank:
        return "quarantine_bank";
    }
    return "?";
}

HealthMonitor::HealthMonitor(const HealthConfig &config)
    : cfg(config),
      rank{obs::SlidingWindow(cfg.bucketCycles),
           obs::SlidingWindow(cfg.bucketCycles),
           obs::SlidingWindow(cfg.bucketCycles),
           obs::SlidingWindow(cfg.bucketCycles),
           obs::SlidingWindow(cfg.bucketCycles),
           obs::SlidingWindow(cfg.bucketCycles)}
{
    banks.reserve(cfg.geom.numBanks());
    for (unsigned b = 0; b < cfg.geom.numBanks(); ++b) {
        BankHealth bh;
        bh.ce = obs::SlidingWindow(cfg.bucketCycles);
        bh.ue = obs::SlidingWindow(cfg.bucketCycles);
        banks.push_back(std::move(bh));
    }
    // Reserve the fault-path containers up front so symptom bursts
    // inside profiled access scopes do not show up as per-access
    // allocations.
    pending.reserve(64);
    log.reserve(maxLog);
    retiredKeys.reserve(64);
}

// ---- Frequency sketches -------------------------------------------------

void
HealthMonitor::sketch(Slot *slots, uint32_t key, uint64_t maskBit)
{
    for (unsigned i = 0; i < numSlots; ++i) {
        if (slots[i].count && slots[i].key == key) {
            ++slots[i].count;
            slots[i].mask |= maskBit;
            return;
        }
    }
    for (unsigned i = 0; i < numSlots; ++i) {
        if (!slots[i].count) {
            slots[i].key = key;
            slots[i].count = 1;
            slots[i].mask = maskBit;
            return;
        }
    }
    // Misra-Gries decrement step: an untracked key pays one count off
    // every tracked one.  Heavy hitters survive; noise cancels out.
    for (unsigned i = 0; i < numSlots; ++i)
        --slots[i].count;
}

void
HealthMonitor::mergeSketch(Slot *into, const Slot *from)
{
    for (unsigned j = 0; j < numSlots; ++j) {
        if (!from[j].count)
            continue;
        Slot *land = nullptr;
        for (unsigned i = 0; i < numSlots && !land; ++i)
            if (into[i].count && into[i].key == from[j].key)
                land = &into[i];
        for (unsigned i = 0; i < numSlots && !land; ++i)
            if (!into[i].count) {
                land = &into[i];
                land->key = from[j].key;
                land->mask = 0;
            }
        if (land) {
            land->count += from[j].count;
            land->mask |= from[j].mask;
            continue;
        }
        // Table full of other keys: evict the lowest-index minimum if
        // the incoming hitter is heavier, else drop it (approximate
        // heavy-hitters; exactness is not required for inference).
        Slot *min = &into[0];
        for (unsigned i = 1; i < numSlots; ++i)
            if (into[i].count < min->count)
                min = &into[i];
        if (from[j].count > min->count)
            *min = from[j];
    }
}

// ---- Ingest -------------------------------------------------------------

void
HealthMonitor::record(const obs::TraceEvent &event)
{
    using obs::EventKind;
    ++seen;
    if (event.cycle > lastCycle)
        lastCycle = event.cycle;

    switch (event.kind) {
      case EventKind::Detection:
        // label = mechanism name.  DECC/eDECC are data-path symptoms
        // with address evidence; standalone data-codec engines (the
        // Table III Monte-Carlo) tag theirs "data-ecc" in the detail;
        // the rest are alert families.
        if (event.label == "DECC" || event.label == "eDECC" ||
            event.detail.find("data-ecc") != std::string::npos)
            onDataDetection(event);
        else
            onAlertDetection(event);
        break;

      case EventKind::Diagnosis:
        // label = the eDECC-diagnosed suspect CA pin.
        for (unsigned i = 0; i < numCccaPins; ++i) {
            if (pinName(static_cast<Pin>(i)) == event.label) {
                ++pinCounts[i];
                break;
            }
        }
        break;

      case EventKind::Retry:
        rank.retries.record(event.cycle);
        break;

      case EventKind::Recovery:
        if (event.detail.find("exhausted") != std::string::npos) {
            rank.exhausted.record(event.cycle);
            evalRank(event.cycle);
        }
        break;

      case EventKind::Scrub:
      case EventKind::PatrolScrub:
        rank.scrubs.record(event.cycle);
        break;

      case EventKind::Escalation:
        // The escalation ladder already decided: adopt its verdict as
        // external evidence, skipping the windowed thresholds.
        if (event.label == "quarantine" && event.value < banks.size()) {
            BankHealth &bh = banks[event.value];
            if (worse(HealthState::Failing, bh.state))
                transition(bh.state, bh.stateSince, bh.transitions,
                           HealthState::Failing, event.cycle,
                           static_cast<unsigned>(event.value), false);
        }
        break;

      case EventKind::FaultInject:
        ++injects;
        break;

      case EventKind::FaultResolve:
        ++resolves;
        break;

      default:
        // CommandIssued (the hot path), PinCorruption (injector ground
        // truth a real monitor could not see), Classification, and our
        // own RasHealth/RasAction feedback are not symptoms.
        break;
    }

    // Periodic tick: expire window buckets and let quiet components
    // step back down through the hysteresis dwell.
    if ((seen & 255) == 0) {
        evalRank(lastCycle);
        for (unsigned b = 0; b < banks.size(); ++b)
            if (banks[b].ce.lifetimeTotal() || banks[b].ue.lifetimeTotal() ||
                banks[b].state != HealthState::Healthy)
                evalBank(b, lastCycle);
    }
}

void
HealthMonitor::onDataDetection(const obs::TraceEvent &event)
{
    const bool ue = event.detail.find(" DUE") != std::string::npos;
    const MtbAddress addr = MtbAddress::unpack(
        static_cast<uint32_t>(event.value), cfg.geom);
    const unsigned bank = addr.flatBank(cfg.geom);
    if (bank >= banks.size())
        return;
    BankHealth &bh = banks[bank];

    if (ue) {
        bh.ue.record(event.cycle);
        rank.ue.record(event.cycle);
    } else {
        bh.ce.record(event.cycle);
        rank.ce.record(event.cycle);
        // Topology sketches consume the corrected-error address
        // stream only: a DUE's address may be part of the damage.
        sketch(bh.rows, addr.row, 1ull << (addr.col & 63));
        sketch(bh.cols, addr.col, 1ull << (addr.row & 63));
        sketch(bh.cells,
               (static_cast<uint32_t>(addr.row) << cfg.geom.mtbColBits()) |
                   addr.col,
               1);
        uint32_t chips = parseChipsMask(event.detail);
        for (unsigned c = 0; c < Burst::numChips && chips; ++c) {
            if (chips & (1u << c)) {
                ++chipCounts[c];
                chipMasks[c] |= 1ull << (bank & 63);
                chips &= ~(1u << c);
            }
        }
    }
    evalBank(bank, event.cycle);
    evalRank(event.cycle);
    if (!ue)
        maybeRecommendRetire(bank, event.cycle);
}

void
HealthMonitor::onAlertDetection(const obs::TraceEvent &event)
{
    rank.alerts.record(event.cycle);
    evalRank(event.cycle);
}

// ---- State machine ------------------------------------------------------

void
HealthMonitor::evalBank(unsigned bank, uint64_t cycle)
{
    BankHealth &bh = banks[bank];
    bh.ce.advanceTo(cycle);
    bh.ue.advanceTo(cycle);
    const HealthState want = severityFor(
        bh.ce.windowTotal(), bh.ue.windowTotal(), cfg.degradeCes,
        cfg.failCes, cfg.degradeUes, cfg.failUes);
    if (worse(want, bh.state)) {
        transition(bh.state, bh.stateSince, bh.transitions, want, cycle,
                   bank, false);
    } else if (worse(bh.state, want) &&
               cycle >= bh.stateSince + cfg.recoverDwell) {
        // Downgrade one step per dwell period (hysteresis).
        const HealthState next =
            static_cast<HealthState>(static_cast<int>(bh.state) - 1);
        transition(bh.state, bh.stateSince, bh.transitions, next, cycle,
                   bank, false);
    }
}

void
HealthMonitor::evalRank(uint64_t cycle)
{
    rank.ce.advanceTo(cycle);
    rank.ue.advanceTo(cycle);
    rank.alerts.advanceTo(cycle);
    rank.exhausted.advanceTo(cycle);
    // Rank-scope thresholds: 4x the per-bank data-error thresholds,
    // plus the alert-family and retry-exhaustion signals no single
    // bank owns.
    HealthState want = severityFor(
        rank.ce.windowTotal(), rank.ue.windowTotal(), 4 * cfg.degradeCes,
         4 * cfg.failCes, 4 * cfg.degradeUes, 4 * cfg.failUes);
    const HealthState alertWant = severityFor(
        rank.alerts.windowTotal(), rank.exhausted.windowTotal(),
        cfg.linkAlerts, 4 * cfg.linkAlerts, 1, 2);
    if (worse(alertWant, want))
        want = alertWant;
    if (worse(want, rank.state)) {
        transition(rank.state, rank.stateSince, rank.transitions, want,
                   cycle, 0, true);
    } else if (worse(rank.state, want) &&
               cycle >= rank.stateSince + cfg.recoverDwell) {
        const HealthState next =
            static_cast<HealthState>(static_cast<int>(rank.state) - 1);
        transition(rank.state, rank.stateSince, rank.transitions, next,
                   cycle, 0, true);
    }
}

void
HealthMonitor::transition(HealthState &state, uint64_t &since,
                          uint64_t &transitions, HealthState next,
                          uint64_t cycle, unsigned bank, bool isRank)
{
    const HealthState prev = state;
    state = next;
    since = cycle;
    ++transitions;

    char component[16];
    if (isRank)
        std::snprintf(component, sizeof(component), "rank");
    else
        std::snprintf(component, sizeof(component), "bank%u", bank);
    if (obsHook) {
        char detail[48];
        std::snprintf(detail, sizeof(detail), "%s -> %s",
                      healthStateName(prev), healthStateName(next));
        obsHook->emit(obs::EventKind::RasHealth, cycle, component,
                      static_cast<uint64_t>(next), detail);
    }

    if (!worse(next, prev))
        return; // downgrades recommend nothing
    if (next == HealthState::Degraded && !patrolRaised) {
        patrolRaised = true;
        recommend(ActionKind::RaisePatrol, 0, 0, cycle);
    }
    if (next == HealthState::Failing && !isRank)
        recommend(ActionKind::QuarantineBank, bank, 0, cycle);
}

void
HealthMonitor::maybeRecommendRetire(unsigned bank, uint64_t cycle)
{
    const TopologyCall call = bankTopology(bank);
    if (call.kind != Topology::Row || call.evidence < cfg.retireRowCes)
        return;
    const uint32_t key = static_cast<uint32_t>(bank) << 20 | call.row;
    for (uint32_t k : retiredKeys)
        if (k == key)
            return;
    retiredKeys.push_back(key);
    recommend(ActionKind::RetireRow, bank, call.row, cycle);
}

void
HealthMonitor::recommend(ActionKind kind, unsigned bank, unsigned row,
                         uint64_t cycle)
{
    const RecommendedAction action{kind, bank, row, cycle};
    ++actionCounts[static_cast<unsigned>(kind)];
    pending.push_back(action);
    if (log.size() < maxLog)
        log.push_back(action);
    else
        ++droppedLog;
    if (obsHook) {
        char detail[64];
        std::snprintf(detail, sizeof(detail),
                      "recommend %s bank=%u row=%u", actionName(kind),
                      bank, row);
        obsHook->emit(obs::EventKind::RasAction, cycle, actionName(kind),
                      static_cast<uint64_t>(bank) << 32 | row, detail);
    }
}

size_t
HealthMonitor::drainActions(std::vector<RecommendedAction> &out)
{
    const size_t n = pending.size();
    out.insert(out.end(), pending.begin(), pending.end());
    pending.clear();
    return n;
}

// ---- Queries ------------------------------------------------------------

HealthState
HealthMonitor::bankState(unsigned bank) const
{
    AIECC_ASSERT(bank < banks.size(), "ras: bank out of range");
    return banks[bank].state;
}

unsigned
HealthMonitor::degradedBanks() const
{
    unsigned n = 0;
    for (const BankHealth &bh : banks)
        if (bh.state == HealthState::Degraded)
            ++n;
    return n;
}

unsigned
HealthMonitor::failingBanks() const
{
    unsigned n = 0;
    for (const BankHealth &bh : banks)
        if (bh.state == HealthState::Failing)
            ++n;
    return n;
}

TopologyCall
HealthMonitor::bankTopology(unsigned bank) const
{
    TopologyCall call;
    if (bank >= banks.size())
        return call;
    const BankHealth &bh = banks[bank];
    const uint64_t total = bh.ce.lifetimeTotal();
    // A retired row is a settled Row call: the retirement itself
    // required a confident inference, and it must not be forgotten
    // once mitigation stops the symptom stream (post-retirement
    // corrections from other faults would otherwise dilute the
    // concentration below threshold).
    for (uint32_t key : retiredKeys) {
        if ((key >> 20) != bank)
            continue;
        call.kind = Topology::Row;
        call.bank = bank;
        call.row = key & ((1u << 20) - 1);
        call.evidence = cfg.retireRowCes;
        for (unsigned i = 0; i < numSlots; ++i)
            if (bh.rows[i].count && bh.rows[i].key == call.row)
                call.evidence = bh.rows[i].count;
        call.share = total ? double(call.evidence) / double(total) : 1.0;
        return call;
    }
    if (total < cfg.minEvidence)
        return call;
    const auto top = [](const Slot *slots) {
        const Slot *best = &slots[0];
        for (unsigned i = 1; i < numSlots; ++i)
            if (slots[i].count > best->count)
                best = &slots[i];
        return best;
    };
    call.bank = bank;

    // A single stuck cell dominates all three sketches; check the
    // most specific explanation first.
    const Slot *cell = top(bh.cells);
    if (cell->count >= cfg.concentration * total) {
        call.kind = Topology::SingleCell;
        call.row = cell->key >> cfg.geom.mtbColBits();
        call.col = cell->key & ((1u << cfg.geom.mtbColBits()) - 1);
        call.evidence = cell->count;
        call.share = double(cell->count) / double(total);
        return call;
    }
    const Slot *row = top(bh.rows);
    if (row->count >= cfg.concentration * total &&
        popcount64(row->mask) >= cfg.rowSpread) {
        call.kind = Topology::Row;
        call.row = row->key;
        call.evidence = row->count;
        call.share = double(row->count) / double(total);
        return call;
    }
    const Slot *col = top(bh.cols);
    if (col->count >= cfg.concentration * total &&
        popcount64(col->mask) >= cfg.colSpread) {
        call.kind = Topology::Column;
        call.col = col->key;
        call.evidence = col->count;
        call.share = double(col->count) / double(total);
        return call;
    }
    return call;
}

TopologyCall
HealthMonitor::chipTopology() const
{
    TopologyCall best;
    for (const TopologyCall &call : chipTopologies())
        if (call.evidence > best.evidence)
            best = call;
    return best;
}

std::vector<TopologyCall>
HealthMonitor::chipTopologies() const
{
    std::vector<TopologyCall> calls;
    uint64_t total = 0;
    for (unsigned c = 0; c < Burst::numChips; ++c)
        total += chipCounts[c];
    if (total < cfg.minEvidence)
        return calls;
    // Dominance is judged against the *median* chip count: a mean
    // would be dragged up by other simultaneously-dying chips (and by
    // weak-row corrections, which land on data chips uniformly),
    // masking real multi-chip faults.
    uint64_t sorted[Burst::numChips];
    std::copy(chipCounts, chipCounts + Burst::numChips, sorted);
    std::sort(sorted, sorted + Burst::numChips);
    const double median =
        static_cast<double>(sorted[Burst::numChips / 2]);
    for (unsigned c = 0; c < Burst::numChips; ++c) {
        if (chipCounts[c] < cfg.minEvidence)
            continue;
        // A chip fault sprays corrections across banks; a stuck cell
        // or a weak row concentrates on one chip too, but never
        // across banks.
        if (popcount64(chipMasks[c]) < 4)
            continue;
        if (double(chipCounts[c]) <=
            cfg.chipDominance * std::max(median, 0.5))
            continue;
        TopologyCall call;
        call.kind = Topology::Chip;
        call.chip = c;
        call.evidence = chipCounts[c];
        call.share = double(chipCounts[c]) / double(total);
        calls.push_back(call);
    }
    return calls;
}

TopologyCall
HealthMonitor::linkTopology() const
{
    TopologyCall call;
    const uint64_t total = rank.alerts.lifetimeTotal();
    if (total < cfg.linkAlerts)
        return call;
    call.kind = Topology::Link;
    call.evidence = total;
    call.share = 1.0;
    uint64_t best = 0;
    for (unsigned i = 0; i < numCccaPins; ++i) {
        if (pinCounts[i] > best) {
            best = pinCounts[i];
            call.pin = static_cast<int>(i);
        }
    }
    return call;
}

std::vector<TopologyCall>
HealthMonitor::topologies() const
{
    std::vector<TopologyCall> calls;
    for (unsigned b = 0; b < banks.size(); ++b) {
        const TopologyCall call = bankTopology(b);
        if (call.kind != Topology::None)
            calls.push_back(call);
    }
    for (const TopologyCall &chip : chipTopologies())
        calls.push_back(chip);
    const TopologyCall link = linkTopology();
    if (link.kind != Topology::None)
        calls.push_back(link);
    return calls;
}

// ---- Registry contract --------------------------------------------------

void
HealthMonitor::merge(const HealthMonitor &other)
{
    AIECC_ASSERT(banks.size() == other.banks.size(),
                 "ras merge: bank count mismatch");
    const auto mergeState = [](HealthState &state, uint64_t &since,
                               const HealthState oState,
                               const uint64_t oSince) {
        if (worse(oState, state)) {
            state = oState;
            since = oSince;
        } else if (oState == state && oSince < since) {
            since = oSince;
        }
    };

    rank.ce.merge(other.rank.ce);
    rank.ue.merge(other.rank.ue);
    rank.alerts.merge(other.rank.alerts);
    rank.retries.merge(other.rank.retries);
    rank.scrubs.merge(other.rank.scrubs);
    rank.exhausted.merge(other.rank.exhausted);
    mergeState(rank.state, rank.stateSince, other.rank.state,
               other.rank.stateSince);
    rank.transitions += other.rank.transitions;

    for (size_t b = 0; b < banks.size(); ++b) {
        BankHealth &into = banks[b];
        const BankHealth &from = other.banks[b];
        into.ce.merge(from.ce);
        into.ue.merge(from.ue);
        mergeState(into.state, into.stateSince, from.state,
                   from.stateSince);
        into.transitions += from.transitions;
        mergeSketch(into.rows, from.rows);
        mergeSketch(into.cols, from.cols);
        mergeSketch(into.cells, from.cells);
    }

    for (unsigned c = 0; c < Burst::numChips; ++c) {
        chipCounts[c] += other.chipCounts[c];
        chipMasks[c] |= other.chipMasks[c];
    }
    for (unsigned i = 0; i < numCccaPins; ++i)
        pinCounts[i] += other.pinCounts[i];

    seen += other.seen;
    injects += other.injects;
    resolves += other.resolves;
    if (other.lastCycle > lastCycle)
        lastCycle = other.lastCycle;
    for (unsigned i = 0; i < 3; ++i)
        actionCounts[i] += other.actionCounts[i];
    droppedLog += other.droppedLog;
    patrolRaised = patrolRaised || other.patrolRaised;

    pending.insert(pending.end(), other.pending.begin(),
                   other.pending.end());
    for (const RecommendedAction &action : other.log) {
        if (log.size() < maxLog)
            log.push_back(action);
        else
            ++droppedLog;
    }
    for (uint32_t key : other.retiredKeys)
        if (std::find(retiredKeys.begin(), retiredKeys.end(), key) ==
            retiredKeys.end())
            retiredKeys.push_back(key);
}

// ---- Reporting ----------------------------------------------------------

void
HealthMonitor::writeTopologyJson(obs::JsonWriter &w, const char *component,
                                 const TopologyCall &call) const
{
    w.beginObject();
    w.kv("component", component);
    w.kv("kind", topologyName(call.kind));
    switch (call.kind) {
      case Topology::SingleCell:
        w.kv("bank", call.bank).kv("row", call.row).kv("col", call.col);
        break;
      case Topology::Row:
        w.kv("bank", call.bank).kv("row", call.row);
        break;
      case Topology::Column:
        w.kv("bank", call.bank).kv("col", call.col);
        break;
      case Topology::Chip:
        w.kv("chip", call.chip);
        break;
      case Topology::Link:
        if (call.pin >= 0)
            w.kv("pin", pinName(static_cast<Pin>(call.pin)));
        break;
      case Topology::None:
        break;
    }
    w.kv("evidence", call.evidence);
    w.kv("share", call.share);
    w.endObject();
}

void
HealthMonitor::writeJsonMembers(obs::JsonWriter &w) const
{
    w.kv("window_cycles",
         cfg.bucketCycles * obs::SlidingWindow::numBuckets);
    w.kv("events_seen", seen);
    w.kv("faults_injected", injects);
    w.kv("faults_resolved", resolves);

    w.key("rank").beginObject();
    w.kv("state", healthStateName(rank.state));
    w.kv("transitions", rank.transitions);
    rank.ce.writeJsonMembers(w, "ce");
    rank.ue.writeJsonMembers(w, "ue");
    rank.alerts.writeJsonMembers(w, "alerts");
    rank.retries.writeJsonMembers(w, "retries");
    rank.scrubs.writeJsonMembers(w, "scrubs");
    rank.exhausted.writeJsonMembers(w, "exhausted");
    w.endObject();

    w.key("banks").beginArray();
    for (unsigned b = 0; b < banks.size(); ++b) {
        const BankHealth &bh = banks[b];
        if (!bh.ce.lifetimeTotal() && !bh.ue.lifetimeTotal() &&
            !bh.transitions)
            continue;
        w.beginObject();
        w.kv("bank", b);
        w.kv("state", healthStateName(bh.state));
        w.kv("transitions", bh.transitions);
        bh.ce.writeJsonMembers(w, "ce");
        bh.ue.writeJsonMembers(w, "ue");
        w.endObject();
    }
    w.endArray();

    w.key("chips").beginArray();
    for (unsigned c = 0; c < Burst::numChips; ++c)
        w.value(chipCounts[c]);
    w.endArray();

    w.key("pins").beginObject();
    for (unsigned i = 0; i < numCccaPins; ++i)
        if (pinCounts[i])
            w.kv(pinName(static_cast<Pin>(i)), pinCounts[i]);
    w.endObject();

    w.key("topologies").beginArray();
    char component[16];
    for (unsigned b = 0; b < banks.size(); ++b) {
        const TopologyCall call = bankTopology(b);
        if (call.kind == Topology::None)
            continue;
        std::snprintf(component, sizeof(component), "bank%u", b);
        writeTopologyJson(w, component, call);
    }
    for (const TopologyCall &chip : chipTopologies())
        writeTopologyJson(w, "chip", chip);
    const TopologyCall link = linkTopology();
    if (link.kind != Topology::None)
        writeTopologyJson(w, "link", link);
    w.endArray();

    w.key("actions").beginObject();
    w.kv("raise_patrol", actionCounts[0]);
    w.kv("retire_row", actionCounts[1]);
    w.kv("quarantine_bank", actionCounts[2]);
    w.kv("pending", static_cast<uint64_t>(pending.size()));
    w.kv("dropped_log", droppedLog);
    w.key("log").beginArray();
    for (const RecommendedAction &a : log) {
        w.beginObject();
        w.kv("action", actionName(a.kind));
        w.kv("bank", a.bank);
        w.kv("row", a.row);
        w.kv("cycle", a.cycle);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
HealthMonitor::writeJson(obs::JsonWriter &w) const
{
    w.beginObject();
    writeJsonMembers(w);
    w.endObject();
}

void
HealthMonitor::writeHeartbeat(obs::JsonWriter &w) const
{
    w.kv("ras_state", healthStateName(rank.state));
    w.kv("ras_ce_window", rank.ce.windowTotal());
    w.kv("ras_ue_window", rank.ue.windowTotal());
    w.kv("ras_alerts_window", rank.alerts.windowTotal());
    w.kv("ras_degraded_banks", degradedBanks());
    w.kv("ras_failing_banks", failingBanks());
    w.kv("ras_actions",
         actionCounts[0] + actionCounts[1] + actionCounts[2]);
}

} // namespace ras
} // namespace aiecc
