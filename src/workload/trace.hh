/**
 * @file
 * Trace generation and replay: run a synthetic access trace through a
 * live protection stack while CCCA transmission noise fires at a
 * configurable rate, and account for what reaches the consumer — the
 * system-level view that connects the workload model to the
 * mechanism-level campaigns.
 */

#ifndef AIECC_WORKLOAD_TRACE_HH
#define AIECC_WORKLOAD_TRACE_HH

#include <map>
#include <vector>

#include "aiecc/stack.hh"
#include "workload/workload.hh"

namespace aiecc
{

/** One trace entry. */
struct TraceRecord
{
    bool write = false;
    MtbAddress addr;
};

/**
 * Generate an access trace with the same locality/mix model the
 * characterizer uses.
 *
 * @param params Workload knobs (readFrac / rowHitRate / seed used).
 * @param accesses Trace length.
 * @param geom Address geometry.
 */
std::vector<TraceRecord> generateTrace(const WorkloadParams &params,
                                       uint64_t accesses,
                                       const Geometry &geom = Geometry{});

/** Noise model for a replay. */
struct ReplayConfig
{
    /** Probability a command edge suffers a transmission error. */
    double edgeErrorRate = 0.0;
    /** Of erroneous edges: fraction with 2 flipped pins (rest 1). */
    double twoPinFrac = 0.3;
    uint64_t seed = 0x2E7A1;
};

/** What the consumer experienced during a replay. */
struct ReplayReport
{
    uint64_t accesses = 0;
    uint64_t commandEdges = 0;
    uint64_t injectedErrors = 0;
    uint64_t detections = 0;
    uint64_t retries = 0;       ///< accesses re-executed after a flag
    uint64_t flaggedReads = 0;  ///< DUEs delivered instead of bad data
    uint64_t corruptReads = 0;  ///< wrong data silently consumed (SDC)
    std::map<Mechanism, uint64_t> byMechanism;
};

/**
 * Replay @p trace through @p stack under transmission noise.
 *
 * Writes deposit deterministic, address+version-derived payloads;
 * every read of a previously-written block is checked against the
 * expected payload to count silent corruption.  Any detection triggers
 * one retry of the access (command-replay recovery, §IV-G).
 *
 * When the stack carries an observer, the replay mirrors its report
 * into the registry ("replay.accesses", "stack.retries",
 * "replay.flagged_reads", "replay.corrupt_reads") and emits one Retry
 * trace event per re-executed access, so counter totals cross-check
 * against the returned ReplayReport.
 */
ReplayReport replayTrace(ProtectionStack &stack,
                         const std::vector<TraceRecord> &trace,
                         const ReplayConfig &config);

} // namespace aiecc

#endif // AIECC_WORKLOAD_TRACE_HH
