/**
 * @file
 * A GDDR5 channel (device + controller) with the AIECC adaptations of
 * Section VI: extended write EDC (address folded into the write CRC),
 * extended read EDC (address + WRT + last-command CA parity folded
 * into the read CRC over the same EDC pin), and the CSTC reused with
 * GDDR5 timing.
 */

#ifndef AIECC_GDDR5_SYSTEM_HH
#define AIECC_GDDR5_SYSTEM_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ddr4/timing.hh"
#include "dram/cstc.hh"
#include "gddr5/gddr5.hh"

namespace aiecc
{
namespace gddr5
{

/** Which protection features the channel runs with. */
struct Protection
{
    bool edc = false;           ///< baseline GDDR5 data EDC (rd + wr)
    bool extendWriteEdc = false; ///< eWCRC-G: fold the block address
    bool extendReadEdc = false;  ///< fold addr + WRT + CA parity
    bool cstc = false;           ///< protocol/timing checker

    std::string describe() const;

    static Protection none() { return {}; }
    static Protection baseline() { return {true, false, false, false}; }
    static Protection aiecc() { return {true, true, true, true}; }
};

/** A 32B-block address on the x32 channel. */
struct Address
{
    unsigned bank = 0; ///< 16 banks
    unsigned row = 0;  ///< 13 bits
    unsigned col = 0;  ///< block-granular (burst column / 8), 7 bits

    bool operator==(const Address &other) const = default;
    bool operator<(const Address &other) const
    {
        return pack() < other.pack();
    }

    uint32_t
    pack() const
    {
        return (static_cast<uint32_t>(bank) << 20) |
               (static_cast<uint32_t>(row) << 7) | col;
    }
    std::string toString() const;
};

/** Who detected an error. */
enum class Detector
{
    WriteEdc, ///< write-CRC mismatch reported over the EDC pin
    ReadEdc,  ///< read-CRC mismatch (data, address, WRT or parity)
    Cstc,     ///< protocol/timing violation
};

const char *detectorName(Detector detector);

/** One detection raised in the channel. */
struct Detection
{
    Detector by;
    Cycle when = 0;
    std::string detail;
};

/**
 * One GDDR5 device plus its controller, lock-stepped.
 */
class Gddr5System
{
  public:
    using Corruptor = std::function<void(uint64_t idx, PinWord &pins)>;

    explicit Gddr5System(const Protection &prot,
                         uint64_t seed = 0x6DD25);

    void setPinCorruptor(Corruptor corruptor);

    // Command interface (controller side).
    void act(unsigned bank, unsigned row);
    void wr(const Address &addr, const BitVec &data);
    /** Read 256 bits; detections are recorded on the way. */
    BitVec rd(const Address &addr);
    void pre(unsigned bank);
    void preAll();
    void nop();

    const std::vector<Detection> &detections() const { return events; }
    void clearDetections() { events.clear(); }

    /** Recovery hooks mirroring the DDR4 controller's. */
    void resyncWrt() { ctrlWrt = devWrt; ctrlLastParity = devLastParity; }

    // Golden-state access.
    Burst peek(const Address &addr) const;
    std::vector<Address> storedAddresses() const;
    bool modeCorrupted() const { return modeCorrupt; }
    uint64_t commandsIssued() const { return cmdIndex; }

    const Protection &protection() const { return prot; }

  private:
    Protection prot;
    Cstc cstc;       ///< reused DDR4 checker with GDDR5 timing
    Rng garbage;
    Corruptor corrupt;

    struct Bank
    {
        bool open = false;
        unsigned row = 0;
    };
    std::array<Bank, 16> banks{};
    std::map<uint32_t, Burst> store;

    Cycle cycle = 1000;
    uint64_t cmdIndex = 0;
    bool ctrlWrt = false, devWrt = false;
    bool ctrlLastParity = false, devLastParity = false;
    bool modeCorrupt = false;
    std::vector<Detection> events;

    /** Fold word for the extended read EDC. */
    static uint32_t
    readFold(uint32_t packedAddr, bool wrt, bool lastParity)
    {
        return packedAddr ^ (wrt ? 0x80000000u : 0) ^
               (lastParity ? 0x40000000u : 0);
    }

    Burst load(uint32_t packed) const;
    static Burst defaultFill(uint32_t packed);

    /** Transmit one edge; returns what the device latched. */
    Decoded transmit(const Command &cmd);

    /** Execute a latched command against bank state and storage. */
    void execute(const Decoded &dec, const Burst *wrBurst,
                 const EdcWord *wrEdc, Burst *rdBurst,
                 EdcWord *rdEdc);

    /** Map to the DDR4 command type for CSTC reuse. */
    static aiecc::Command toCstcCommand(const Command &cmd);
};

} // namespace gddr5
} // namespace aiecc

#endif // AIECC_GDDR5_SYSTEM_HH
