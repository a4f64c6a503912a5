/**
 * @file
 * The memory-controller model.
 *
 * The controller issues pin-level commands with legal timing, drives
 * the CA-parity pin (plain CAP or eCAP with the write-toggle bit),
 * generates the per-chip write CRC (WCRC or eWCRC), and models the DDR
 * PHY read FIFO whose pop pointer skews when RD commands are lost or
 * spuriously created (Section IV-C of the AIECC paper).  Transmission
 * faults are injected through a pin-corruptor hook that mutates the
 * pin word of selected command edges in flight.
 */

#ifndef AIECC_CONTROLLER_CONTROLLER_HH
#define AIECC_CONTROLLER_CONTROLLER_HH

#include <functional>
#include <optional>
#include <vector>

#include "common/ring.hh"
#include "dram/rank.hh"
#include "obs/observer.hh"

namespace aiecc
{

/**
 * Mutates the pin word of command edge @p cmdIndex in flight.
 * Installed by the fault-injection engine.
 */
using PinCorruptor = std::function<void(uint64_t cmdIndex, PinWord &pins)>;

/**
 * One write retained for in-band recovery: the intended command, the
 * full burst that went with it, and the row the controller believed
 * open when it was issued (WR commands carry no row on the pins).
 */
struct BufferedWrite
{
    Command cmd;
    Burst burst;
    unsigned row = 0;
};

/** Everything that came back from one issued command. */
struct IssueResult
{
    Cycle when = 0;          ///< cycle the command edge occupied
    uint64_t cmdIndex = 0;   ///< running index of the command edge
    ExecResult exec;         ///< what the device did
    /**
     * For an intended RD: the burst the controller popped from the PHY
     * read FIFO (which is *not* necessarily what the device sent this
     * edge if the FIFO pointer skewed).
     */
    std::optional<Burst> readBurst;
};

/**
 * Open-page, explicitly-commanded memory controller for one rank.
 */
class MemController
{
  public:
    /**
     * @param config Shared protection configuration; the parity and
     *               WCRC modes must match the attached rank's.
     * @param rank The attached DRAM rank (not owned).
     */
    MemController(const RankConfig &config, DramRank *rank);

    /** Install (or clear, with nullptr-like empty) the fault hook. */
    void setPinCorruptor(PinCorruptor corruptor);

    /**
     * Attach the measurement hookup (nullptr detaches).  Counters are
     * resolved once here; with no observer the issue path pays only
     * null-pointer tests.
     */
    void setObserver(obs::Observer *observer);

    /**
     * Issue a logical command at the earliest legal cycle.
     *
     * For WR commands @p data must carry the 512-bit payload; the
     * controller encodes the burst check bits as given (the ECC layer
     * above prepares the full 576-bit burst) and generates WCRC.
     *
     * @param cmd The intended command.
     * @param data The full burst to write (WR only).
     * @return Timing, device response, and popped read data.
     */
    IssueResult issue(const Command &cmd,
                      const std::optional<Burst> &data = std::nullopt);

    /** Controller-side write-toggle bit (eCAP state). */
    bool wrtBit() const { return wrt; }

    /** The controller's own belief whether @p flatBank is open. */
    bool bankOpen(unsigned flatBank) const
    {
        return sched.bankOpen(flatBank);
    }

    /**
     * Device alerts observed so far, as a tally: no log is kept, each
     * alert reaches the caller in the IssueResult of its own edge.
     */
    struct AlertTally
    {
        uint64_t count = 0;
        bool empty() const { return count == 0; }
    };
    const AlertTally &alerts() const { return alertTally; }

    /** Number of command edges issued. */
    uint64_t commandsIssued() const { return cmdIndex; }

    /** Current cycle. */
    Cycle now() const { return cycle; }

    /**
     * Entries currently waiting in the PHY read FIFO.  A nonzero value
     * after all expected reads completed indicates pointer skew from
     * an extra RD.
     */
    size_t readFifoDepth() const { return phyFifo.size(); }

    /**
     * Error-recovery hook: re-synchronize the write-toggle bit with
     * the device (part of the alert handling that precedes a command
     * replay, Section IV-G).
     */
    void resyncWrt();

    /**
     * Error-recovery hook: drain the PHY read FIFO, clearing any
     * pointer skew left behind by extra/missing RD commands.
     */
    void resetReadFifo();

    /**
     * Let @p cycles pass with the command bus idle.  No edge is
     * driven, so nothing can be corrupted in flight; used as retry
     * backoff so the device leaves transient states (power-down exit
     * windows) before a command is replayed.
     */
    void idle(Cycle cycles) { cycle += cycles; }

    /**
     * Resize the bounded write-replay buffer (default 8 entries; 0
     * disables buffering).  The newest writes are kept.
     */
    void setReplayDepth(size_t depth);

    /** Newest buffered write, if any. */
    std::optional<BufferedWrite> newestWrite() const
    {
        if (replayBuffer.empty())
            return std::nullopt;
        return replayBuffer.back();
    }

  private:
    RankConfig cfg;
    DramRank *rank;
    Cstc sched;          ///< the controller's own timing tracker
    PinCorruptor corrupt;
    obs::Observer *obsHook = nullptr;
    struct CtrlCounters
    {
        obs::Counter *commands = nullptr;
        obs::Counter *pinCorruptions = nullptr;
        obs::Counter *alerts = nullptr;
        obs::Counter *fifoUnderflows = nullptr;
        obs::Counter *fifoSkewEvents = nullptr;
    };
    CtrlCounters oc;
    Cycle cycle = 0;
    uint64_t cmdIndex = 0;
    bool wrt = false;
    Rng staleRng;        ///< models reads of an empty PHY FIFO
    AlertTally alertTally;

    Ring<Burst> phyFifo;
    Burst lastPopped;    ///< stale entry re-read on FIFO underflow

    /** Bounded history of intended writes (in-band WR replay). */
    Ring<BufferedWrite> replayBuffer;
    size_t replayCap = 8;

    /** The controller's view of each bank's open row (eWCRC address). */
    std::vector<unsigned> openRows;
    unsigned intendedRow = 0;

    /** Advance `cycle` until @p cmd satisfies every timing check. */
    void advanceToLegalSlot(const Command &cmd);

    /** Build the per-chip WCRC for an outgoing write. */
    WriteData makeWriteData(const Command &cmd, const Burst &burst) const;
};

} // namespace aiecc

#endif // AIECC_CONTROLLER_CONTROLLER_HH
