#include "aiecc/stack.hh"

#include <algorithm>

#include "aiecc/diagnosis.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace aiecc
{

ProtectionStack::ProtectionStack(const StackConfig &config)
    : cfg(config), codec(makeEcc(config.mech.ecc)),
      hlOpenRow(config.geom.numBanks(), -1)
{
    RankConfig rc;
    rc.geom = cfg.geom;
    rc.timing = cfg.timing;
    rc.parityMode = cfg.mech.parity;
    rc.wcrcMode = cfg.mech.wcrc;
    rc.cstcEnabled = cfg.mech.cstc;
    rc.garbageSeed = cfg.seed;
    // Never-written locations behave as if the whole array had been
    // initialized with valid (address-bound, for eDECC) codewords.
    // The payload is eight Rng words laid little-endian into the data
    // pins, word w on pins 8w..8w+7, and is encoded in place.
    DataEcc *ecc = codec.get();
    rc.fillFn = [ecc](uint32_t packedAddr) {
        Rng fillRng(0xF177ULL ^ (static_cast<uint64_t>(packedAddr) << 13));
        Burst out;
        for (unsigned w = 0; w < Burst::dataPins / 8; ++w) {
            const uint64_t v = fillRng.next();
            for (unsigned j = 0; j < 8; ++j)
                out.pinBits[8 * w + j] = static_cast<uint8_t>(v >> (8 * j));
        }
        if (ecc)
            ecc->encodeBurst(out, packedAddr);
        return out;
    };
    rankModel = std::make_unique<DramRank>(rc);
    ctrl = std::make_unique<MemController>(rc, rankModel.get());
    ctrl->setReplayDepth(cfg.recovery.replayBufferDepth);
    rec = std::make_unique<RecoveryEngine>(
        cfg.recovery, cfg.geom.numBanks(), cfg.observer);
    rankModel->setObserver(cfg.observer);
    ctrl->setObserver(cfg.observer);
    // Size the log up front, so the few detections one faulty access
    // raises do not allocate on the access path.
    events.reserve(8);
    if (cfg.observer && cfg.observer->stats()) {
        obs::StatsRegistry &reg = *cfg.observer->stats();
        oc.reads = &reg.counter("stack.reads", "RD commands issued");
        oc.writes = &reg.counter("stack.writes", "WR commands issued");
        oc.detections =
            &reg.counter("stack.detections", "detections, any mechanism");
        oc.corrections = &reg.counter("stack.corrections",
                                      "errors corrected in place");
        oc.dues = &reg.counter("stack.dues",
                               "detected-uncorrectable reads delivered");
        oc.addrDiagnoses = &reg.counter(
            "edecc.addr_diagnoses", "precise eDECC address diagnoses");
        oc.scrubs = &reg.counter("stack.scrubs",
                                 "redirect-scrub write-backs");
        oc.recoveries = &reg.counter(
            "stack.recoveries", "full error-recovery resets");
        for (unsigned m = 0; m < 7; ++m) {
            oc.byMech[m] = &reg.counter(
                std::string("stack.detect.") +
                    mechanismName(static_cast<Mechanism>(m)),
                "detections first flagged by this mechanism");
        }
    }
}

void
ProtectionStack::setFaultContext(uint64_t faultId)
{
    faultCtx = faultId;
    if (cfg.observer)
        cfg.observer->setFaultContext(faultId);
}

void
ProtectionStack::noteDetection(DetectionEvent event)
{
    if (faultCtx && !event.faultId)
        event.faultId = faultCtx;
    if (cfg.observer) {
        if (oc.detections) {
            ++*oc.detections;
            ++*oc.byMech[static_cast<unsigned>(event.mech)];
            if (event.corrected)
                ++*oc.corrections;
            if (event.diagnosedAddress)
                ++*oc.addrDiagnoses;
        }
        // The trace value carries the best address evidence available
        // (detectionTrace): the corrected-error address stream RAS
        // topology inference consumes.
        if (cfg.observer->tracing())
            cfg.observer->emit(detectionTrace(event, cfg.geom));
    }
    events.push_back(std::move(event));
}

void
ProtectionStack::setPinCorruptor(PinCorruptor corruptor)
{
    ctrl->setPinCorruptor(std::move(corruptor));
}

bool
ProtectionStack::noteAlert(const IssueResult &issued)
{
    const std::optional<Alert> &alert = issued.exec.alert;
    if (!alert)
        return false;
    if (alert->flatBank)
        lastAlertBank = alert->flatBank;
    DetectionEvent ev;
    ev.when = alert->when;
    ev.early = true; // device alerts block the command pre-array
    ev.alert = alert;
    switch (alert->kind) {
      case AlertKind::CaParity:
        ev.mech = cfg.mech.parity == ParityMode::ECap ? Mechanism::ECap
                                                      : Mechanism::Cap;
        break;
      case AlertKind::Wcrc:
        ev.mech = cfg.mech.wcrc == WcrcMode::DataAddress
                      ? Mechanism::EWcrc
                      : Mechanism::Wcrc;
        ev.addressError = cfg.mech.wcrc == WcrcMode::DataAddress;
        break;
      case AlertKind::Cstc:
        ev.mech = Mechanism::Cstc;
        break;
    }
    noteDetection(std::move(ev));
    return true;
}

// ---- RecoveryPort: the engine drives recovery through the same
// ---- command path the workload uses, so every replayed edge is
// ---- subject to the live fault model and the full mechanism set.

Cycle
ProtectionStack::portNow() const
{
    return ctrl->now();
}

bool
ProtectionStack::wrtMismatch() const
{
    return cfg.mech.parity == ParityMode::ECap &&
           ctrl->wrtBit() != rankModel->wrtBit();
}

std::optional<ReplayEntry>
ProtectionStack::newestWrite() const
{
    const auto buffered = ctrl->newestWrite();
    if (!buffered)
        return std::nullopt;
    ReplayEntry entry;
    entry.addr = MtbAddress{0, buffered->cmd.bg, buffered->cmd.ba,
                            buffered->row,
                            buffered->cmd.col >> Geometry::burstBits};
    entry.burst = buffered->burst;
    return entry;
}

void
ProtectionStack::resyncWrt()
{
    ctrl->resyncWrt();
}

void
ProtectionStack::drainReadFifo()
{
    ctrl->resetReadFifo();
}

void
ProtectionStack::backoff(Cycle cycles)
{
    if (obs::CostAccountant *cost = costAcct())
        cost->onBackoff(cycles);
    ctrl->idle(cycles);
}

bool
ProtectionStack::reopenRow(unsigned bg, unsigned ba, unsigned row)
{
    const size_t mark = events.size();
    issuePre(bg, ba);
    issueAct(bg, ba, row);
    const bool ok = events.size() == mark;
    // Keep the high-level row cache honest either way: on failure the
    // device's bank state is unknown, so force a fresh PRE/ACT pair on
    // the next managed access.
    hlOpenRow[bg * cfg.geom.banksPerGroup() + ba] =
        ok ? static_cast<int>(row) : -1;
    return ok;
}

bool
ProtectionStack::replayWrite(const ReplayEntry &entry)
{
    if (oc.writes)
        ++*oc.writes;
    return !noteAlert(
        ctrl->issue(Command::wr(entry.addr.bg, entry.addr.ba,
                                entry.addr.col << Geometry::burstBits),
                    entry.burst));
}

std::optional<BitVec>
ProtectionStack::reissueRead(const MtbAddress &addr)
{
    if (oc.reads)
        ++*oc.reads;
    const auto res = ctrl->issue(
        Command::rd(addr.bg, addr.ba, addr.col << Geometry::burstBits));
    if (noteAlert(res) || !res.readBurst)
        return std::nullopt;
    if (!codec)
        return res.readBurst->data();
    // Decode quietly: the episode's original detection is already
    // logged, and a still-broken reissue is an attempt failure, not a
    // fresh event.
    if (obs::CostAccountant *cost = costAcct())
        cost->onEccDecode();
    const EccResult ecc =
        codec->decode(*res.readBurst, addr.pack(cfg.geom));
    if (ecc.status == EccStatus::Uncorrectable || ecc.addressError)
        return std::nullopt;
    return ecc.data;
}

bool
ProtectionStack::reissue(const Command &cmd)
{
    return !noteAlert(ctrl->issue(cmd));
}

void
ProtectionStack::issueChecked(const Command &cmd,
                              const std::optional<ReplayEntry> &wrEntry)
{
    const IssueResult res = ctrl->issue(
        cmd, wrEntry ? std::optional<Burst>(wrEntry->burst) : std::nullopt);
    if (!noteAlert(res) || !rec || inRecovery)
        return;
    RecoveryCause cause = RecoveryCause::CaParity;
    switch (res.exec.alert->kind) {
      case AlertKind::CaParity:
        cause = RecoveryCause::CaParity;
        break;
      case AlertKind::Wcrc:
        cause = RecoveryCause::Wcrc;
        break;
      case AlertKind::Cstc:
        cause = RecoveryCause::Cstc;
        break;
    }
    unsigned flatBank = 0;
    if (cmd.type == CmdType::Act || cmd.type == CmdType::Wr ||
        cmd.type == CmdType::Rd || cmd.type == CmdType::Pre)
        flatBank = cmd.bg * cfg.geom.banksPerGroup() + cmd.ba;
    else if (lastAlertBank)
        flatBank = *lastAlertBank;
    inRecovery = true;
    rec->onAlert(cause, cmd, flatBank, wrEntry, *this);
    inRecovery = false;
}

void
ProtectionStack::tickPatrol()
{
    if (!rec || !cfg.recovery.patrolPeriod || inRecovery || inPatrol)
        return;
    if (++accessesSincePatrol < cfg.recovery.patrolPeriod)
        return;
    accessesSincePatrol = 0;
    const auto addrs = rankModel->storedAddresses();
    if (addrs.empty())
        return;
    patrolCursor %= addrs.size();
    const MtbAddress addr = addrs[patrolCursor++];
    inPatrol = true;
    {
        // Patrol traffic exists only for protection: bill the whole
        // sweep (read and any write-back) to the recovery level.
        obs::ScopedRecoveryCost billPatrol(costAcct());
        const ReadOutcome out = read(addr);
        bool scrubbed = false;
        if (out.corrected && !out.due) {
            // scrubOnCorrection already wrote the block back inside
            // the read; otherwise the patrol performs the write-back
            // itself.
            if (!cfg.scrubOnCorrection)
                write(addr, out.data);
            scrubbed = true;
        }
        inPatrol = false;
        rec->notePatrol(addr, scrubbed, ctrl->now());
    }
}

Burst
ProtectionStack::encodeWrite(const MtbAddress &addr,
                             const BitVec &data) const
{
    AIECC_ASSERT(data.size() == Burst::dataBits,
                 "write payload must be " << Burst::dataBits << " bits");
    if (codec) {
        if (obs::CostAccountant *cost = costAcct())
            cost->onEccEncode();
        return codec->encode(data, addr.pack(cfg.geom));
    }
    Burst raw;
    raw.setData(data);
    return raw;
}

void
ProtectionStack::issueAct(unsigned bg, unsigned ba, unsigned row)
{
    issueChecked(Command::act(bg, ba, row));
}

void
ProtectionStack::issueWr(const MtbAddress &addr, const BitVec &data)
{
    const Burst burst = encodeWrite(addr, data);
    if (oc.writes)
        ++*oc.writes;
    issueChecked(
        Command::wr(addr.bg, addr.ba, addr.col << Geometry::burstBits),
        ReplayEntry{addr, burst});
}

ReadOutcome
ProtectionStack::issueRd(const MtbAddress &addr)
{
    if (oc.reads)
        ++*oc.reads;
    const auto res = ctrl->issue(
        Command::rd(addr.bg, addr.ba, addr.col << Geometry::burstBits));
    const bool deviceAlert = noteAlert(res);

    ReadOutcome out;
    bool addressFault = false;
    if (!res.readBurst) {
        // The device blocked the read (parity/CSTC alert): the data
        // never arrived.
        out.detected = true;
        out.due = true;
    } else if (!codec) {
        out.data = res.readBurst->data();
    } else {
        if (obs::CostAccountant *cost = costAcct())
            cost->onEccDecode();
        const EccResult ecc =
            codec->decode(*res.readBurst, addr.pack(cfg.geom));
        out.data = ecc.data;
        if (ecc.detected()) {
            out.detected = true;
            out.corrected = ecc.status == EccStatus::Corrected;
            out.due = ecc.status == EccStatus::Uncorrectable;
            out.correctedChips = ecc.correctedChips;
            addressFault = ecc.addressError;

            noteDetection({.mech = codec->protectsAddress()
                                       ? Mechanism::EDecc
                                       : Mechanism::Decc,
                           .when = ctrl->now(),
                           .addressError = ecc.addressError,
                           .corrected = out.corrected,
                           .diagnosedAddress = ecc.recoveredAddress,
                           .accessAddress = addr.pack(cfg.geom),
                           .correctedChips = ecc.correctedChips,
                           .codec = codec->name()});

            if (cfg.observer && cfg.observer->tracing() &&
                ecc.addressError && ecc.recoveredAddress) {
                // Cross-check the eDECC diagnosis against the CA-pin
                // model: which command pins must have flipped for the
                // intended address to land where it did (§IV-F).
                obs::TraceEvent trace = diagnosisTrace(
                    addr.pack(cfg.geom), *ecc.recoveredAddress, cfg.geom);
                trace.cycle = ctrl->now();
                cfg.observer->emit(trace);
            }

            if (cfg.scrubOnCorrection && out.corrected &&
                !ecc.addressError) {
                // Redirect scrubbing (§V-D): write the corrected block
                // back so the transient flip cannot combine with a
                // later one into an uncorrectable pattern.  The
                // write-back is extra traffic the fault caused, so it
                // bills to the recovery cost level in full.
                obs::ScopedRecoveryCost billScrub(costAcct());
                issueWr(addr, out.data);
                ++scrubs;
                if (oc.scrubs)
                    ++*oc.scrubs;
                if (cfg.observer && cfg.observer->tracing()) {
                    cfg.observer->emit({.kind = obs::EventKind::Scrub,
                                        .detail = obs::Detail::ScrubBack,
                                        .cycle = ctrl->now(),
                                        .value = addr.pack(cfg.geom),
                                        .label = codec->name(),
                                        .addr = addr});
                }
            }
        }
    }

    // In-band recovery (§IV-G): a device alert on the RD edge, an
    // uncorrectable decode, or a corrected-but-wrong-address decode
    // all mean the delivered payload cannot be consumed as-is.  A
    // plain (non-address) correction needs no retry.
    if (rec && !inRecovery &&
        (deviceAlert || out.due || (out.corrected && addressFault))) {
        inRecovery = true;
        const RecoveryOutcome rr =
            rec->onReadDetection(addr, addr.flatBank(cfg.geom), *this);
        inRecovery = false;
        if (rr.recovered && rr.data) {
            out.data = *rr.data;
            out.detected = true;
            out.corrected = true;
            out.due = false;
        } else if (rr.attempted) {
            // The retry budget ran out: deliver a residual DUE.
            out.corrected = false;
            out.due = true;
        }
    }
    if (out.due && oc.dues)
        ++*oc.dues;
    return out;
}

void
ProtectionStack::issuePre(unsigned bg, unsigned ba)
{
    issueChecked(Command::pre(bg, ba));
}

void
ProtectionStack::issuePreAll()
{
    issueChecked(Command::preAll());
}

void
ProtectionStack::issueNop()
{
    issueChecked(Command::nop());
}

void
ProtectionStack::recover()
{
    if (oc.recoveries)
        ++*oc.recoveries;
    if (cfg.observer && cfg.observer->tracing())
        cfg.observer->emit({.kind = obs::EventKind::Recovery,
                            .detail = obs::Detail::Why,
                            .cycle = ctrl->now(),
                            .why = "resync WRT, drain read FIFO, PREA"});
    ctrl->resyncWrt();
    ctrl->resetReadFifo();
    issuePreAll();
    std::fill(hlOpenRow.begin(), hlOpenRow.end(), -1);
}

void
ProtectionStack::retireRow(unsigned flatBank, unsigned row,
                           unsigned spareRow)
{
    AIECC_ASSERT(flatBank < cfg.geom.numBanks(),
                 "retireRow: bad bank " << flatBank);
    // Re-retiring an already-remapped row just retargets the spare.
    for (RowRemap &r : rowRemaps) {
        if (r.bank == flatBank && r.row == row) {
            r.spare = spareRow;
            return;
        }
    }
    rowRemaps.push_back({flatBank, row, spareRow});
}

MtbAddress
ProtectionStack::openForAccess(const MtbAddress &requested)
{
    const unsigned bank = requested.flatBank(cfg.geom);
    MtbAddress addr = requested;
    if (!rowRemaps.empty())
        applyRowRemap(bank, addr);
    if (hlOpenRow[bank] != static_cast<int>(addr.row)) {
        // A failed recovery episode can drop the row cache while the
        // controller still believes the bank is open; precharge in
        // that case too so the ACT below stays legal.
        if (hlOpenRow[bank] >= 0 || ctrl->bankOpen(bank))
            issuePre(addr.bg, addr.ba);
        issueAct(addr.bg, addr.ba, addr.row);
        hlOpenRow[bank] = static_cast<int>(addr.row);
    }
    return addr;
}

void
ProtectionStack::write(const MtbAddress &addr, const BitVec &data)
{
    issueWr(openForAccess(addr), data);
    tickPatrol();
}

ReadOutcome
ProtectionStack::read(const MtbAddress &addr)
{
    const ReadOutcome out = issueRd(openForAccess(addr));
    tickPatrol();
    return out;
}

} // namespace aiecc
