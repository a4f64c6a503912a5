/**
 * @file
 * A behavioural model of one DDR4 ECC-DIMM rank (18 x4 chips).
 *
 * Beyond normal operation, the model implements the *erroneous-command
 * semantics* that make CCCA transmission errors dangerous (Sections
 * II-C and IV-C of the AIECC paper):
 *
 *  - a duplicate ACT copies the currently-open row over the newly
 *    activated one (Figure 3c);
 *  - a RD to an idle bank returns garbage without corrupting storage;
 *  - a WR to an idle bank is silently dropped (the intended update is
 *    lost, leaving stale data = memory data corruption);
 *  - an *extra* WR latches the undriven data bus and writes garbage
 *    into the open row;
 *  - an erroneous MRS corrupts the device configuration, after which
 *    all data movement is garbage.
 *
 * Device-side protections (CA parity / eCAP, WCRC / eWCRC, CSTC) gate
 * execution exactly as the corresponding DDR4/AIECC mechanisms would:
 * a failed check raises ALERT_n and blocks the command.
 */

#ifndef AIECC_DRAM_RANK_HH
#define AIECC_DRAM_RANK_HH

#include <array>
#include <functional>
#include <optional>
#include <vector>

#include "common/rng.hh"
#include "ddr4/burst.hh"
#include "dram/config.hh"
#include "dram/cstc.hh"
#include "dram/row_store.hh"
#include "obs/observer.hh"

namespace aiecc
{

/** Write burst and its per-chip CRC as driven by the controller. */
struct WriteData
{
    Burst burst;
    std::array<uint8_t, Burst::numChips> crc{};
    bool crcValid = false; ///< controller transmitted CRC beats
};

/**
 * The per-chip write CRC of @p burst: CRC-8 of each x4 chip's 32-bit
 * lane, extended under eWCRC by the packed MTB address @p packedAddr
 * as the upper 32 bits of a 64-bit word (§IV-B).  The controller
 * generates with this and the device checks with it, each from its
 * own view of the address.
 */
std::array<uint8_t, Burst::numChips> laneCrcs(const Burst &burst,
                                              WcrcMode mode,
                                              uint32_t packedAddr);

/** Everything the device did on one command edge. */
struct ExecResult
{
    DecodedCommand decoded;
    std::optional<Burst> readData;  ///< burst driven back on a RD
    /**
     * The device-side detection, if any: a failed check blocks the
     * command, so an edge raises at most one alert.
     */
    std::optional<Alert> alert;
    bool arrayMutated = false;      ///< storage changed this edge
    bool executed = false;          ///< command reached the array logic
};

/**
 * One DDR4 rank: banks, sparse MTB storage, device-side checkers.
 */
class DramRank
{
  public:
    explicit DramRank(const RankConfig &config);

    /**
     * Present one command edge to the device.
     *
     * @param now Current cycle.
     * @param pins CCCA pin levels (possibly corrupted in flight).
     * @param wrData Data/CRC the controller drives if it believes this
     *               edge is a write (nullopt otherwise).
     * @param dataCorrupt The data bus is disturbed this edge (e.g. an
     *               ODT error degraded signal integrity).
     * @param sent The pins the controller drove, passed only by a
     *               controller that proved the edge legal on its own
     *               timing state, drove its parity with its own WRT
     *               and computed its write CRC over its own open row.
     *               While every edge so far arrived as sent, the
     *               device skips the CA-parity, CSTC and write-CRC
     *               checks those proofs already imply; the first
     *               edge without @p sent, with other pins or with a
     *               disturbed data bus ends that for good.
     * @return Decode outcome, read data, and any alert raised.
     */
    ExecResult step(Cycle now, const PinWord &pins,
                    const std::optional<WriteData> &wrData = std::nullopt,
                    bool dataCorrupt = false,
                    const PinWord *sent = nullptr);

    /** Bank open/close state as held by the array itself. */
    bool bankOpen(unsigned bg, unsigned ba) const;
    /** Open row of a bank; only meaningful when bankOpen(). */
    unsigned openRow(unsigned bg, unsigned ba) const;

    /** Device-side write-toggle bit (eCAP state). */
    bool wrtBit() const { return wrt; }

    /** True once an erroneous MRS corrupted the device config. */
    bool modeCorrupted() const { return modeCorrupt; }

    /** True while a CKE glitch holds the device in power-down. */
    bool inPowerDown() const { return powerDown; }

    /**
     * The content of an MTB as the array holds it (stored value or the
     * deterministic never-written fill).  Bypasses all bus logic; used
     * for golden-state comparison and test setup.
     */
    Burst peek(const MtbAddress &addr) const;

    /** Backdoor store, bypassing the bus (test setup only). */
    void poke(const MtbAddress &addr, const Burst &burst);

    /** Addresses with explicitly stored (non-default) content. */
    std::vector<MtbAddress> storedAddresses() const;

    const RankConfig &config() const { return cfg; }

    /**
     * Attach the measurement hookup (nullptr detaches): device-side
     * alert and erroneous-command-semantics counters.
     */
    void setObserver(obs::Observer *observer);

    /**
     * Read-path disturbance model: called with the device's view of
     * the address and the burst it is about to drive for every RD
     * that reaches stored content.  Aging campaigns install one to
     * model wearing cells (weak rows, dying chips) whose errors
     * appear on every read without mutating the stored data.  Empty
     * clears the hook.
     */
    using ReadDisturb = std::function<void(const MtbAddress &, Burst &)>;
    void setReadDisturb(ReadDisturb fn) { disturb = std::move(fn); }

  private:
    RankConfig cfg;
    Cstc cstc;
    Rng garbage;
    struct RankCounters
    {
        obs::Counter *capAlerts = nullptr;
        obs::Counter *wcrcAlerts = nullptr;
        obs::Counter *cstcAlerts = nullptr;
        obs::Counter *garbageReads = nullptr;
        obs::Counter *droppedWrites = nullptr;
        obs::Counter *garbageBusWrites = nullptr;
        obs::Counter *rowCopyovers = nullptr;
        obs::Counter *modeCorruptions = nullptr;
    };
    RankCounters oc;

    struct Bank
    {
        bool open = false;
        unsigned row = 0;
    };
    std::vector<Bank> banks;
    ReadDisturb disturb; ///< aging read-path disturbance (may be empty)
    RowStore store; ///< packed MTB address -> content, row-chunked
    bool wrt = false;
    /**
     * Every edge so far arrived exactly as the controller sent it, so
     * the device's WRT, timing state and open rows equal the
     * controller's (see step()'s `sent`).
     */
    bool inSync = true;
    bool modeCorrupt = false;
    bool powerDown = false;  ///< CKE sampled low: fast power-down
    Cycle pdEntry = 0;       ///< cycle the power-down began

    Bank &bankOf(const Command &cmd);
    const Bank &bankOf(const Command &cmd) const;

    /** Deterministic fill for never-written locations. */
    static Burst defaultFill(uint32_t packedAddr);

    /** Load an MTB (stored or default fill). */
    Burst load(uint32_t packedAddr) const;

    /** The device's own view of the MTB address for a column command. */
    MtbAddress deviceAddress(const Command &cmd, const Bank &bank) const;

    /** Raise a CSTC alert for the decoded command, blocked for @p why. */
    void cstcAlert(Cycle now, ExecResult &result, const char *why);

    void doActivate(Cycle now, const Command &cmd, ExecResult &result);
    void doRead(Cycle now, const Command &cmd, bool dataCorrupt,
                ExecResult &result);
    void doWrite(Cycle now, const Command &cmd,
                 const std::optional<WriteData> &wrData, bool dataCorrupt,
                 bool checkCrc, ExecResult &result);
};

} // namespace aiecc

#endif // AIECC_DRAM_RANK_HH
