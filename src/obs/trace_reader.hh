/**
 * @file
 * Offline consumption of recorded JSONL traces.
 *
 * JsonlTraceSink writes one flat JSON object per event; this module
 * is its inverse plus the analyses the `aiecc-trace` CLI exposes:
 * parse lines back into TraceEvents, summarize a run per event kind
 * (counts, cycle span, inter-event gap distribution), filter by
 * kind/label/cycle window, and export to the Chrome trace-event
 * format (chrome://tracing, Perfetto) with recovery episodes turned
 * into duration spans.  Everything is dependency-free: the parser
 * only understands the flat schema the sink emits, which is all a
 * trace file may legally contain.
 */

#ifndef AIECC_OBS_TRACE_READER_HH
#define AIECC_OBS_TRACE_READER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"

namespace aiecc
{
namespace obs
{

/**
 * Parse one JSONL trace line back into a TraceEvent.
 *
 * Accepts exactly the flat schema JsonlTraceSink writes (trace format
 * traceFormat), members in any order: "kind", "form", "symptom" and
 * "cmd" are names from their static tables; "pins" is "all" or pin
 * names joined by '+'; "label", "why", "first" and "recovery" are
 * strings; "ap"/"bc" are booleans; every other known member is an
 * unsigned integer that fits its field, "pin" a CCCA pin index.  The
 * "bg"/"ba"/"row"/"col" members fill the command when the line names
 * a "cmd", else the address (with "rank").  Unknown members are
 * ignored for forward compatibility.  Returns nullopt, with a
 * diagnostic in @p error when given, on malformed JSON, nested
 * values, a wrongly typed member, an unknown name, or the format-1
 * "detail" member.  Every fact — the RAS symptom fields included — is
 * read from its own member, never from text, and writeJson() of the
 * result gives the line back.  Strings are interned (internText()).
 */
std::optional<TraceEvent> parseTraceLine(std::string_view line,
                                         std::string *error = nullptr);

/** What reading one trace file produced. */
struct TraceFile
{
    bool opened = false;          ///< the file could be read at all
    std::vector<TraceEvent> events;
    uint64_t badLines = 0;        ///< lines that failed to parse
    std::string firstError;       ///< diagnostic for the first bad line
    /**
     * 1 when the file ends in an unterminated, unparseable record — a
     * writer killed mid-write, the expected way a live trace ends.
     * Such a tail is reported here instead of badLines/firstError so
     * it never masks genuine corruption diagnostics.
     */
    uint64_t truncatedTail = 0;
};

/**
 * Read a whole JSONL trace file (blank lines are skipped).  A final
 * line without a trailing newline still counts as an event when it
 * parses; when it does not, it is recorded as a truncated tail rather
 * than a bad line.
 */
TraceFile readTraceFile(const std::string &path);

/**
 * One parsed heartbeat record (obs/heartbeat.hh's JSONL schema).
 * Bench-specific payload members — live coverage, cost and alloc
 * counters — land in `extras`, typed as doubles.
 */
struct HeartbeatRecord
{
    uint64_t seq = 0;
    std::string campaign;
    std::string note;
    uint64_t shardsDone = 0;
    uint64_t shardsTotal = 0;
    uint64_t trialsDone = 0;
    uint64_t trialsTotal = 0;
    double elapsedS = 0.0;
    double trialsPerS = 0.0;
    double etaS = 0.0;
    bool forced = false; ///< emitted in response to SIGUSR1
    /** Every other numeric member, keyed by its JSON name. */
    std::map<std::string, double> extras;
};

/**
 * Parse one heartbeat JSONL line.  Accepts the flat schema
 * HeartbeatEmitter writes (and nothing nested); returns nullopt with
 * a diagnostic in @p error on malformed input or a missing/foreign
 * "type" member, so trace files and heartbeat files cannot be
 * confused for one another.
 */
std::optional<HeartbeatRecord>
parseHeartbeatLine(std::string_view line, std::string *error = nullptr);

/** What reading one heartbeat file produced (see TraceFile). */
struct HeartbeatFile
{
    bool opened = false;
    std::vector<HeartbeatRecord> records;
    uint64_t badLines = 0;
    std::string firstError;
    uint64_t truncatedTail = 0; ///< torn final record (live writer)
};

/**
 * Read a whole heartbeat JSONL file; line handling (blank lines,
 * truncated tails) matches readTraceFile.
 */
HeartbeatFile readHeartbeatFile(const std::string &path);

/** Diagnostics of one streamed pass over a trace file. */
struct StreamResult
{
    bool opened = false;   ///< the file could be read at all
    uint64_t events = 0;   ///< lines successfully parsed and delivered
    uint64_t badLines = 0; ///< lines that failed to parse
    std::string firstError;
    uint64_t truncatedTail = 0; ///< see TraceFile::truncatedTail
};

/**
 * Stream a JSONL trace file one event at a time: @p consume is called
 * for every parsed line in file order (the event is the consumer's to
 * modify) and nothing is retained, so
 * arbitrarily large traces process in constant memory.  Line handling
 * (blank lines, truncated tails) matches readTraceFile, which is a
 * collect-into-a-vector wrapper around this.
 */
StreamResult
streamTraceFile(const std::string &path,
                const std::function<void(TraceEvent &)> &consume);

/** Per-kind aggregate of one trace. */
struct KindSummary
{
    uint64_t count = 0;
    uint64_t firstCycle = 0;
    uint64_t lastCycle = 0;
    /** Distribution of cycle gaps between consecutive same-kind events. */
    Histogram gaps;
    /** Event count per label (mechanism, cause, outcome class...). */
    std::map<std::string, uint64_t> byLabel;
};

/** Whole-trace aggregate. */
struct TraceSummary
{
    uint64_t totalEvents = 0;
    uint64_t firstCycle = 0;
    uint64_t lastCycle = 0;
    std::map<EventKind, KindSummary> byKind;

    /** Events of @p kind per 1000 cycles of trace span (0 if empty). */
    double ratePerKiloCycle(EventKind kind) const;
};

/**
 * Summarize @p events (any order; they are processed in cycle order).
 */
TraceSummary summarizeTrace(std::vector<TraceEvent> events);

/** Predicate bundle for `aiecc-trace filter`. */
struct TraceFilter
{
    std::optional<EventKind> kind;
    std::optional<std::string> label;
    uint64_t cycleMin = 0;
    uint64_t cycleMax = UINT64_MAX;

    bool matches(const TraceEvent &event) const;
};

/** Events of @p events matching @p filter, in input order. */
std::vector<TraceEvent> filterEvents(const std::vector<TraceEvent> &events,
                                     const TraceFilter &filter);

/**
 * Write @p events as a Chrome trace-event JSON document into @p w
 * (which must be empty; the call leaves it complete()).
 *
 * Every event becomes an instant event ("ph":"i") on one timeline,
 * timestamped by controller cycle; in-band recovery episodes — a
 * Retry with attempt number 1 up to the matching Recovery event of
 * the same cause label — additionally become complete duration spans
 * ("ph":"X") so episode cost is visible at a glance in Perfetto or
 * chrome://tracing.
 *
 * @return the number of duration spans emitted.
 */
uint64_t writeChromeTrace(const std::vector<TraceEvent> &events,
                          JsonWriter &w);

/**
 * Per-fault timeline reconstructed from fault-stamped trace events
 * (the "fault" JSONL member; see obs/lineage.hh for the ID scheme).
 */
struct FaultTimeline
{
    uint64_t faultId = 0;
    /** This fault's events, in input (= emission) order. */
    std::vector<TraceEvent> events;
    bool injected = false; ///< a FaultInject event was seen
    bool resolved = false; ///< a FaultResolve event was seen
};

/**
 * All fault lineages of one trace, plus its integrity diagnostics.
 * A healthy campaign trace has every fault injected and resolved and
 * zero orphan events; anything else points at a producer that lost a
 * lineage edge.
 */
struct LineageView
{
    /** Timelines in order of each fault's first appearance. */
    std::vector<FaultTimeline> faults;
    /** Fault-stamped events whose fault has no FaultInject. */
    uint64_t orphanEvents = 0;
    /** Faults with a FaultInject but no FaultResolve. */
    uint64_t unresolved = 0;
    /** Faults resolved without ever being injected. */
    uint64_t resolveWithoutInject = 0;
};

/**
 * Incremental LineageView construction for streamed traces: feed
 * events in file order with add() (events with faultId 0 are skipped
 * for free), then call finish() once to compute the integrity
 * diagnostics and take the view.  Only fault-stamped events are
 * retained, so a mostly-faultless multi-gigabyte trace builds its
 * lineage view in memory proportional to the faults, not the file.
 */
class LineageBuilder
{
  public:
    void add(const TraceEvent &event);

    /** Diagnose and move out the view; the builder is spent after. */
    LineageView finish();

  private:
    LineageView view;
    std::map<uint64_t, size_t> index;
};

/** Group @p events by fault ID (events with faultId 0 are skipped). */
LineageView buildLineageView(const std::vector<TraceEvent> &events);

/**
 * Write @p view as a Chrome trace-event document: one duration span
 * ("ph":"X") per injected-and-resolved fault from its FaultInject to
 * its FaultResolve cycle, plus instant marks for the intermediate
 * observations.  Faults are grouped by injection site (the
 * FaultInject label): each distinct site becomes its own named Chrome
 * process, and every fault gets a dedicated tid lane within its
 * site's group — no global lane cap, and Perfetto's process tree
 * doubles as a per-site fault index.
 *
 * @return the number of lineage spans emitted.
 */
uint64_t writeLineageChromeTrace(const LineageView &view, JsonWriter &w);

} // namespace obs
} // namespace aiecc

#endif // AIECC_OBS_TRACE_READER_HH
