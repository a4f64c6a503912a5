/**
 * @file
 * The benches' own checkpoint state types (obs/state.hh): bench_e2e's
 * merged pass output and one column of table2's Table II grid.  They
 * live in a header so tests can parse the sections the benches write.
 */

#ifndef AIECC_BENCH_BENCH_STATE_HH
#define AIECC_BENCH_BENCH_STATE_HH

#include <map>
#include <string>

#include "ddr4/pins.hh"
#include "inject/campaign.hh"
#include "obs/state.hh"
#include "obs/stats.hh"
#include "recovery/recovery.hh"

namespace aiecc
{
namespace bench
{

/** One bench_e2e pass's output, merged across shards in shard order. */
struct PassResult
{
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t detections = 0;
    uint64_t dues = 0;
    uint64_t corrected = 0;
    double elapsedNs = 0.0;
    obs::Histogram latency{"ns_per_access"};
    RecoveryStats recovery;

    double
    accessesPerSec() const
    {
        const uint64_t n = reads + writes;
        return elapsedNs > 0.0 ? static_cast<double>(n) * 1e9 / elapsedNs
                               : 0.0;
    }

    /**
     * Checkpoint layout: the scalar counters on one line (elapsedNs
     * as whole nanoseconds — sub-ns precision is below clock
     * resolution and the field is timing-only), the latency
     * histogram state on the next.
     */
    template <class Self, class Archive>
    static void
    layout(Self &p, Archive &ar)
    {
        auto &r = p.recovery;
        uint64_t ns = static_cast<uint64_t>(p.elapsedNs);
        ar(p.reads, p.writes, p.detections, p.dues, p.corrected, ns,
           r.episodes, r.attempts, r.recovered, r.recoveredFirstTry,
           r.recoveredAfterRetries, r.exhausted, r.wrReplays, r.rdReissues,
           r.wrtResyncs, r.quarantines, r.rankDegrades, r.patrolReads,
           r.patrolScrubs)
            .endl();
        if constexpr (Archive::reading)
            p.elapsedNs = static_cast<double>(ns);
        obs::Histogram::layout(p.latency, ar);
        ar.endl();
    }
};

inline std::string
serializePass(const PassResult &p)
{
    return obs::writeState(p);
}

inline void
deserializePass(PassResult &p, const std::string &text)
{
    obs::restoreState(p, text);
}

/**
 * The display/artifact slice of one Table II cell — everything the
 * table, the JSON and a resumed process need, nothing more (the full
 * TrialResult carries decoded-command state that would be awkward to
 * round-trip through a checkpoint).
 */
struct GridCell
{
    Outcome outcome = Outcome::NoEffect;
    bool detected = false;
    std::string transition; ///< never contains spaces
};

using Grid = std::map<Pin, std::map<CommandPattern, GridCell>>;

/** table2's checkpoint unit: one pattern's column of the grid. */
template <class G>
struct GridColumn
{
    G &grid;
    CommandPattern pattern;

    /** One uncounted "pin outcome detected transition" line per cell. */
    template <class Self, class Archive>
    static void
    layout(Self &col, Archive &ar)
    {
        const auto cell = [&](auto &pin, auto &c) {
            const unsigned outcomes = unsigned(Outcome::SdcMdc) + 1;
            ar.below(pin, numCccaPins).below(c.outcome, outcomes);
            ar(c.detected).word(c.transition).endl();
        };
        if constexpr (Archive::reading) {
            while (ar.more()) {
                Pin pin{};
                GridCell c;
                cell(pin, c);
                col.grid[pin][col.pattern] = c;
            }
        } else {
            for (const auto &[pin, perPattern] : col.grid) {
                const auto it = perPattern.find(col.pattern);
                if (it != perPattern.end())
                    cell(pin, it->second);
            }
        }
    }
};

inline std::string
serializeGridColumn(const Grid &grid, CommandPattern pattern)
{
    return obs::writeState(GridColumn<const Grid>{grid, pattern});
}

inline void
deserializeGridColumn(Grid &grid, CommandPattern pattern,
                      const std::string &text)
{
    GridColumn<Grid> col{grid, pattern};
    obs::restoreState(col, text);
}

} // namespace bench
} // namespace aiecc

#endif // AIECC_BENCH_BENCH_STATE_HH
