/**
 * @file
 * The Command State and Timing Checker (CSTC), Section IV-C of the
 * AIECC paper.
 *
 * A CSTC instance sits inside the DRAM device beside each bank and
 * validates every received command against the bank-state machine and
 * the JEDEC timing constraints of Table I.  Commands that break the
 * protocol (an ACT to an open bank, a RD to an idle bank, an MRS while
 * banks are open, a reserved encoding, or any timing violation) raise
 * an alert and are not executed.
 */

#ifndef AIECC_DRAM_CSTC_HH
#define AIECC_DRAM_CSTC_HH

#include <array>
#include <vector>

#include "ddr4/address.hh"
#include "ddr4/command.hh"
#include "ddr4/timing.hh"

namespace aiecc
{

/**
 * Protocol-tracking state machine for one DRAM rank.
 *
 * The checker mirrors bank open/closed state from the command stream
 * it observes (the same stream the array sees) and timestamps the
 * events each Table I constraint refers to.  checkFast() validates a
 * candidate command; commit() records an executed one.
 */
class Cstc
{
  public:
    Cstc(const Geometry &geom, const TimingParams &timing);

    /**
     * Validate a command against bank state and timing.
     *
     * This is the hot entry point: the controller probes it once per
     * candidate cycle while hunting for a legal slot, so violations
     * are reported as static strings and the call never allocates.
     *
     * @param now Current cycle.
     * @param cmd The decoded command.
     * @return A static violation description, or nullptr if the
     *         command is legal.
     */
    const char *checkFast(Cycle now, const Command &cmd) const;

    /**
     * The first cycle >= @p now at which every *timing* constraint on
     * @p cmd is satisfied, given the current history.  Each Table I
     * rule is a fixed threshold (event timestamp + limit), so legality
     * is monotone in time and the maximum violated threshold is
     * exactly the cycle a cycle-by-cycle scan would stop at.  Pure
     * state violations (ACT to an open bank, RD to an idle bank, ...)
     * never clear with time; for those this returns @p now and the
     * caller must treat the command as stuck.
     */
    Cycle earliestLegal(Cycle now, const Command &cmd) const;

    /**
     * Record an executed command, updating the state mirror and the
     * timing history.  Call only for commands that were executed.
     */
    void commit(Cycle now, const Command &cmd);

    /** True if the mirrored state says the bank is open. */
    bool bankOpen(unsigned flatBank) const { return open[flatBank]; }

    /** Number of banks tracked. */
    unsigned numBanks() const { return static_cast<unsigned>(open.size()); }

  private:
    Geometry geom;
    TimingParams tp;

    /** "Never happened" timestamp sentinel. */
    static constexpr Cycle longAgo = ~static_cast<Cycle>(0);

    std::vector<bool> open;
    std::vector<Cycle> lastAct;     ///< per bank
    std::vector<Cycle> lastPre;     ///< per bank
    std::vector<Cycle> lastRd;      ///< per bank
    std::vector<Cycle> lastWrEnd;   ///< per bank, end of write data
    Cycle lastActAny = longAgo;
    Cycle lastColCmd = longAgo;     ///< rank-wide tCCD reference
    Cycle lastWrEndAny = longAgo;   ///< rank-wide tWTR reference
    Cycle lastRef = longAgo;

    /**
     * The last four ACT timestamps for tFAW, as a circular buffer:
     * slot actCount % 4 always holds the oldest of the most recent
     * four once actCount >= 4.
     */
    std::array<Cycle, 4> actWindow{};
    size_t actCount = 0;

    /** now - then >= limit, treating the sentinel as "never". */
    static bool
    elapsed(Cycle now, Cycle then, unsigned limit)
    {
        return then == longAgo || now >= then + limit;
    }

    const char *
    checkColumn(Cycle now, const Command &cmd, bool isRead) const;

    const char *checkPre(Cycle now, unsigned flatBank) const;

    /** Raise @p t to the threshold then + limit (sentinel-aware). */
    static void
    atLeast(Cycle &t, Cycle then, unsigned limit)
    {
        if (then != longAgo && then + limit > t)
            t = then + limit;
    }

    Cycle earliestPre(Cycle now, unsigned flatBank) const;
};

} // namespace aiecc

#endif // AIECC_DRAM_CSTC_HH
