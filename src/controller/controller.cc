#include "controller/controller.hh"

#include <bit>

#include "common/logging.hh"

namespace aiecc
{

MemController::MemController(const RankConfig &config, DramRank *rank)
    : cfg(config), rank(rank), sched(config.geom, config.timing),
      staleRng(0x57A1E), openRows(config.geom.numBanks(), 0)
{
    AIECC_ASSERT(rank != nullptr, "controller needs a rank");
    // The PHY FIFO powers up holding arbitrary stale content.
    lastPopped.randomize(staleRng);
}

void
MemController::setPinCorruptor(PinCorruptor corruptor)
{
    corrupt = std::move(corruptor);
}

void
MemController::setObserver(obs::Observer *observer)
{
    obsHook = observer;
    oc = {};
    if (!obsHook || !obsHook->stats())
        return;
    obs::StatsRegistry &reg = *obsHook->stats();
    oc.commands =
        &reg.counter("controller.commands", "command edges issued");
    oc.pinCorruptions = &reg.counter(
        "controller.pin_corruptions",
        "edges mutated in flight by the fault hook");
    oc.alerts =
        &reg.counter("controller.alerts", "device ALERT_n pulses seen");
    oc.fifoUnderflows = &reg.counter(
        "controller.fifo_underflows",
        "RD pops of an empty PHY FIFO (stale data re-read)");
    oc.fifoSkewEvents = &reg.counter(
        "controller.fifo_skew_events",
        "PHY read-FIFO pointer skew observations");
}

void
MemController::resetReadFifo()
{
    // Leftover entries mean the pop pointer skewed (an extra RD the
    // controller never intended put data in flight).
    if (!phyFifo.empty() && oc.fifoSkewEvents)
        ++*oc.fifoSkewEvents;
    phyFifo.clear();
}

void
MemController::resyncWrt()
{
    wrt = rank->wrtBit();
}

void
MemController::setReplayDepth(size_t depth)
{
    replayCap = depth;
    while (replayBuffer.size() > replayCap)
        replayBuffer.pop_front();
}

void
MemController::advanceToLegalSlot(const Command &cmd)
{
    // Timing constraints are fixed thresholds, so the scheduler names
    // the first legal cycle directly (`cycle` itself when the command
    // is legal now or stuck on a state violation), and one check
    // there either confirms the slot or proves the command stuck.
    const unsigned bound =
        cfg.timing.tRFC + cfg.timing.tRC + cfg.timing.tFAW + 64;
    const Cycle target = sched.earliestLegal(cycle, cmd);
    if (target - cycle <= bound) {
        cycle = target;
        if (!sched.checkFast(cycle, cmd))
            return;
    }
    AIECC_PANIC("intended command is illegal for the controller: "
                << cmd.toString() << " at cycle " << cycle);
}

WriteData
MemController::makeWriteData(const Command &cmd, const Burst &burst) const
{
    WriteData wd;
    wd.burst = burst;
    wd.crcValid = cfg.wcrcMode != WcrcMode::Off;
    if (!wd.crcValid)
        return wd;

    // The controller computes CRC from the data it intends to send
    // and, for eWCRC, from the *intended* MTB address: the row it
    // believes is open plus the column it is addressing (§IV-B).
    MtbAddress addr;
    addr.rank = 0;
    addr.bg = cmd.bg;
    addr.ba = cmd.ba;
    addr.row = intendedRow;
    addr.col = cmd.col >> Geometry::burstBits;

    wd.crc = laneCrcs(burst, cfg.wcrcMode, addr.pack(cfg.geom));
    return wd;
}

IssueResult
MemController::issue(const Command &cmd, const std::optional<Burst> &data)
{
    AIECC_ASSERT((cmd.type == CmdType::Wr) == data.has_value(),
                 "write data must accompany exactly the WR commands");

    advanceToLegalSlot(cmd);

    // Track the controller's view of the open row per bank so eWCRC
    // can cover the full intended MTB address.
    if (cmd.type == CmdType::Act)
        openRows[cmd.bg * cfg.geom.banksPerGroup() + cmd.ba] = cmd.row;
    intendedRow =
        openRows[cmd.bg * cfg.geom.banksPerGroup() + cmd.ba];

    IssueResult result;
    result.when = cycle;
    result.cmdIndex = cmdIndex;

    // Retain the intended write for in-band recovery: if an alert
    // later reveals this WR never landed, the engine replays it from
    // here instead of re-fetching from an omniscient golden state.
    if (cmd.type == CmdType::Wr && replayCap) {
        replayBuffer.push_back({cmd, *data, intendedRow});
        if (replayBuffer.size() > replayCap)
            replayBuffer.pop_front();
    }

    // Render pins and drive parity with the controller-side WRT.
    PinWord pins = encodeCommand(cmd);
    if (cfg.parityMode != ParityMode::Off) {
        driveParity(pins,
                    cfg.parityMode == ParityMode::ECap ? wrt : false);
    }
    if (cfg.parityMode == ParityMode::ECap && cmd.type == CmdType::Wr)
        wrt = !wrt;

    // Transmission: the corruptor models CCCA noise on this edge.
    const PinWord intended = pins;
    if (corrupt)
        corrupt(cmdIndex, pins);

    if (obsHook) {
        if (oc.commands)
            ++*oc.commands;
        // Cost attribution (obs/cost.hh): bill this edge's protection
        // overhead — CA parity and CSTC per edge, WCRC per write, ECC
        // check-bit transfer per data access.
        if (obs::CostAccountant *cost = obsHook->cost()) {
            cost->onCommand(cmd.type == CmdType::Wr,
                            cmd.type == CmdType::Rd);
        }
        const bool corrupted = !(pins == intended);
        if (corrupted && oc.pinCorruptions)
            ++*oc.pinCorruptions;
        if (obsHook->tracing()) {
            obsHook->emit({.kind = obs::EventKind::CommandIssued,
                           .cycle = cycle,
                           .value = cmdIndex,
                           .label = cmdName(cmd.type)});
            if (corrupted)
                obsHook->emit({.kind = obs::EventKind::PinCorruption,
                               .cycle = cycle,
                               .value = static_cast<uint64_t>(std::popcount(
                                   pins.levels ^ intended.levels)),
                               .label = cmdName(cmd.type)});
        }
    }

    // An ODT-level error degrades data-bus signal integrity.
    const bool odtError = pins.get(Pin::ODT) != intended.get(Pin::ODT);

    std::optional<WriteData> wrData;
    if (cmd.type == CmdType::Wr)
        wrData = makeWriteData(cmd, *data);

    // The controller proved this edge legal on its own state: the
    // device may skip re-checking it while the two agree.
    result.exec = rank->step(cycle, pins, wrData, odtError, &intended);
    if (result.exec.alert) {
        ++alertTally.count;
        if (oc.alerts)
            ++*oc.alerts;
    }

    // Whatever burst the device drove lands in the PHY read FIFO, and
    // the controller pops one entry per RD *it believes* it issued.  A
    // missing RD underflows (stale data re-read); an extra RD leaves
    // a skewed pointer behind.
    if (cmd.type == CmdType::Rd) {
        if (result.exec.readData && phyFifo.empty()) {
            // Pushed and popped at once: the burst is the entry.
            lastPopped = *result.exec.readData;
        } else {
            if (result.exec.readData)
                phyFifo.push_back(*result.exec.readData);
            if (!phyFifo.empty()) {
                lastPopped = phyFifo.front();
                phyFifo.pop_front();
            } else if (oc.fifoUnderflows) {
                // A missing RD skewed the pop pointer: this read
                // re-reads the stale last entry.
                ++*oc.fifoUnderflows;
                ++*oc.fifoSkewEvents;
            }
        }
        result.readBurst = lastPopped;
    } else if (result.exec.readData) {
        phyFifo.push_back(*result.exec.readData);
    }

    // Book-keeping: the scheduler tracks the *intended* command.
    sched.commit(cycle, cmd);
    ++cycle;
    ++cmdIndex;
    return result;
}

} // namespace aiecc
