/**
 * @file
 * Structured event tracing for the protection stack.
 *
 * Producers emit flat TraceEvents (kind + cycle timestamp + the typed
 * facts of a small, schema-stable payload) through the TraceSink
 * interface.  An event is a plain value; its label and detail text
 * are rendered from those facts only when a line is written.  Two
 * sinks are provided: an unbounded in-memory vector for tests and
 * sharded capture, and a JSONL file sink that streams one JSON object
 * per line for offline analysis and trend tracking.
 */

#ifndef AIECC_OBS_TRACE_HH
#define AIECC_OBS_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/text_buf.hh"
#include "ddr4/command.hh"
#include "ddr4/pins.hh"
#include "obs/json.hh"

namespace aiecc
{
namespace obs
{

/**
 * The event-kind schema: one X-macro entry per kind, pairing the
 * enumerator with its JSONL "kind" string.  The enum, the count, and
 * both name mappings are generated from this single list, so adding a
 * kind here is the *only* edit needed — parsers that iterate
 * numEventKinds and the name round-trip can no longer drift.
 */
#define AIECC_EVENT_KINDS(X)                                              \
    /* a command edge left the controller */                              \
    X(CommandIssued, "command")                                           \
    /* an injected fault mutated the edge in flight */                    \
    X(PinCorruption, "pin_corruption")                                    \
    /* a mechanism fired (label = mechanism name) */                      \
    X(Detection, "detection")                                             \
    /* an access was re-executed after a flag */                          \
    X(Retry, "retry")                                                     \
    /* full error-recovery reset (resync/drain/PREA) */                   \
    X(Recovery, "recovery")                                               \
    /* corrected data written back (redirect scrub) */                    \
    X(Scrub, "scrub")                                                     \
    /* end-state classification (label = DUE/SDC/...) */                  \
    X(Classification, "classification")                                   \
    /* bank quarantine / rank-degraded transition */                      \
    X(Escalation, "escalation")                                           \
    /* background patrol corrected a stored block */                      \
    X(PatrolScrub, "patrol_scrub")                                        \
    /* lineage: a campaign injected a fault (label = site) */             \
    X(FaultInject, "fault_inject")                                        \
    /* lineage: fault reached its terminal state */                       \
    X(FaultResolve, "fault_resolve")                                      \
    /* eDECC pinpointed a wrong address (label = suspect pin) */          \
    X(Diagnosis, "diagnosis")                                             \
    /* RAS health-state transition (label = component) */                 \
    X(RasHealth, "ras_health")                                            \
    /* RAS recommended action (label = action name) */                    \
    X(RasAction, "ras_action")

/** What happened (the JSONL "kind" field). */
enum class EventKind
{
#define AIECC_EVENT_KIND_ENUM(kind, name) kind,
    AIECC_EVENT_KINDS(AIECC_EVENT_KIND_ENUM)
#undef AIECC_EVENT_KIND_ENUM
};

/** Number of EventKind enumerators (parsers iterate the schema). */
constexpr unsigned numEventKinds = []() consteval {
    unsigned n = 0;
#define AIECC_EVENT_KIND_COUNT(kind, name) ++n;
    AIECC_EVENT_KINDS(AIECC_EVENT_KIND_COUNT)
#undef AIECC_EVENT_KIND_COUNT
    return n;
}();

/** Printable event-kind name: a view of the static JSONL schema string. */
std::string_view eventKindNameView(EventKind kind);

/**
 * Inverse of eventKindNameView(): the kind whose schema string is
 * @p name, or nullopt for an unknown string.  Used by trace-file
 * parsers (tools/aiecc-trace) to round-trip recorded events.
 */
std::optional<EventKind> eventKindFromName(std::string_view name);

/**
 * What an event tells a RAS monitor, typed.  Producers set it from
 * facts they hold; it says no more than the event's label and detail
 * text do, and it is not written to JSONL (parseTraceLine() recovers
 * it from that text).
 */
enum class Symptom : uint8_t
{
    None,
    DataCe,     ///< Detection: corrected data-ECC error (value = address)
    DataUe,     ///< Detection: uncorrectable data-ECC error (ditto)
    Alert,      ///< Detection: device alert family (CAP/WCRC/CSTC)
    Exhausted,  ///< Recovery: the retry budget ran out
    Quarantine, ///< Escalation: bank quarantined (value = bank)
};

/**
 * The sentence an event's JSONL "detail" member is rendered from, and
 * which of the event's fields fill it.  `<why>`, `<mech>` and
 * `<recovery>` are the static strings of those fields; `<cmd>` and
 * `<addr>` print as Command::render() and MtbAddress::render().
 */
enum class Detail : uint8_t
{
    None,      ///< no "detail" member
    Why,       ///< <why>, verbatim
    CaParity,  ///< "parity mismatch on <cmd>"
    Wcrc,      ///< "write CRC mismatch at <addr>"
    Cstc,      ///< "<why> (<cmd>)"
    ReadCe,    ///< "<why> corrected read @<addr>[ chips=<hex chips>]"
    ReadDue,   ///< "<why> DUE on read @<addr>[ chips=<hex chips>]"
    Replay,    ///< "replay <cmd>"
    ReissueRd, ///< "reissue RD @<addr>"
    ScrubBack, ///< "scrub write-back @<addr>"
    Patrol,    ///< "patrol scrub @<addr>"
    Window,    ///< "window replay @<addr>"
    /**
     * "intended 0x<hi> observed 0x<lo>; faulty MTB bits {..}; suspect
     * pins {<pins, comma-separated>}" from value = intended << 32 |
     * observed, or "addresses agree".
     */
    Diagnosis,
    First,     ///< "first=<mech>"
    /**
     * "<why> / <pins>[x<edges>][ first=<mech>][ recovery=<recovery>
     * (<attempts>)]": the trial's command pattern, its injected pins
     * joined by '+' (or "all-pin"), the edges the fault persisted for
     * when more than one, and how the trial ended.
     */
    Trial,
    /** "recommend <label> bank=<value >> 32> row=<low 32 bits>" */
    Recommend,
};

/**
 * An ordered list of CCCA pins: a diagnosis's suspects, or the pins a
 * trial's fault flipped.
 */
struct PinList
{
    uint8_t size = 0;
    /** Every pin at once (a trial's all-pin noise); lists none. */
    bool all = false;
    Pin pins[numCccaPins];

    void
    push(Pin pin)
    {
        if (size < numCccaPins)
            pins[size++] = pin;
    }

    /** push() unless @p pin is already listed. */
    void
    add(Pin pin)
    {
        for (uint8_t i = 0; i < size; ++i)
            if (pins[i] == pin)
                return;
        push(pin);
    }
};

/**
 * One structured observation, timestamped in controller cycles.
 *
 * A plain value: producers fill in the facts they hold, and the text a
 * recorded trace carries is rendered from them only by writeJson().
 * Every string member points at static storage (a name table) or at
 * internText()'s process-wide table, so copying, storing and
 * re-emitting an event never allocates.
 */
struct TraceEvent
{
    EventKind kind = EventKind::CommandIssued;
    /** Typed RAS symptom (not serialized). */
    Symptom symptom = Symptom::None;
    /** Which sentence the "detail" member renders (Detail). */
    Detail detail = Detail::None;
    uint64_t cycle = 0;
    /** Kind-specific number: packed address, pin count, retry depth. */
    uint64_t value = 0;
    /**
     * Lineage fault ID this event is attributed to (obs/lineage.hh
     * derivation rule); 0 = no fault context, and the "fault" JSON
     * member is omitted so pre-lineage consumers see the old schema.
     */
    uint64_t faultId = 0;
    /**
     * The "label" member: mechanism, command mnemonic, recovery
     * cause, outcome class, injection site... (nullptr = none).
     */
    const char *label = nullptr;
    /**
     * Detail operand: CSTC or escalation reason, codec, a trial's
     * command pattern, a note.
     */
    const char *why = nullptr;
    /** Detail operand: the first mechanism that fired. */
    const char *mech = nullptr;
    /** Detail operand: a trial's recovery class. */
    const char *recovery = nullptr;
    /** Detail operand: a trial's recovery attempts. */
    uint64_t attempts = 0;
    /** Detail operand: command edges a trial's fault persisted for. */
    uint32_t edges = 0;
    /** DataCe/DataUe: chips whose symbols were corrected (bit = chip). */
    uint32_t chips = 0;
    /** Diagnosis: the suspect CCCA pin index, -1 when none is named. */
    int pin = -1;
    /** Detail operand: the decoded or replayed command. */
    Command cmd{};
    /** Detail operand: the access, device or scrubbed address. */
    MtbAddress addr{};
    /**
     * Detail operand: a Diagnosis's suspect pins in diagnosis order, or
     * a trial's injected pins.
     */
    PinList pins{};

    /** The label text ("" when there is none). */
    std::string_view labelText() const { return label ? label : ""; }

    /** Render the detail sentence ("" for Detail::None). */
    void renderDetail(TextBuf &out) const;
    /** The detail sentence as a string (readers and printers). */
    std::string detailText() const;

    /** Serialize as one self-contained JSON object value. */
    void writeJson(JsonWriter &w) const;
};

static_assert(std::is_trivially_copyable_v<TraceEvent> &&
                  std::is_trivially_destructible_v<TraceEvent>,
              "trace events are plain values: no member may own memory");

/**
 * A process-wide copy of @p text that lives until exit: the storage
 * for names that are not in a static table — injection sites, and
 * the labels and free text a trace reader finds.  Equal texts share
 * one copy, so only a new text allocates.  Thread-safe.
 */
const char *internText(std::string_view text);

/** Consumer interface; implementations must tolerate bursts. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void record(const TraceEvent &event) = 0;
    /** Push buffered output to its destination (default: nothing). */
    virtual void flush() {}
};

/**
 * An unbounded in-memory sink: keeps every event, in order.  Sharded
 * campaigns capture each worker's full event stream with one of
 * these and re-emit in shard order — lineage tracing makes the
 * per-trial event count variable, so the capture must be loss-free.
 */
class VectorTraceSink : public TraceSink
{
  public:
    void record(const TraceEvent &event) override { log.push_back(event); }

    /** Recorded events, oldest first. */
    const std::vector<TraceEvent> &events() const { return log; }

    size_t size() const { return log.size(); }
    void clear() { log.clear(); }
    /** Room for @p n events, so recording that many allocates nothing. */
    void reserve(size_t n) { log.reserve(n); }

    /** Move the recorded events out, leaving the sink empty. */
    std::vector<TraceEvent> take() { return std::exchange(log, {}); }

  private:
    std::vector<TraceEvent> log;
};

/**
 * Streams one compact JSON object per event to a file (JSONL).  The
 * file is created on construction; ok() reports open failure.  The
 * destructor flushes and closes.  Events that could not be written —
 * because the file never opened or a write failed — are counted, not
 * silently lost: dropped() is the number of record() calls that left
 * no complete line behind, ioErrors() the stream-level failures seen.
 * Each line renders into one reused, pre-sized writer, so record()
 * allocates nothing unless a line outgrows every earlier one.
 */
class JsonlTraceSink : public TraceSink
{
  public:
    explicit JsonlTraceSink(const std::string &path);
    ~JsonlTraceSink() override;

    JsonlTraceSink(const JsonlTraceSink &) = delete;
    JsonlTraceSink &operator=(const JsonlTraceSink &) = delete;

    bool ok() const { return file != nullptr; }

    /** Events fully written (a trailing flush may still fail). */
    uint64_t recorded() const { return lines; }

    /** record() calls that produced no complete line. */
    uint64_t dropped() const { return drops; }

    /** Write/flush errors observed on the stream. */
    uint64_t ioErrors() const { return errors; }

    void record(const TraceEvent &event) override;
    void flush() override;

  private:
    std::FILE *file = nullptr;
    JsonWriter line{0}; ///< compact: one line per event
    uint64_t lines = 0;
    uint64_t drops = 0;
    uint64_t errors = 0;
};

} // namespace obs
} // namespace aiecc

#endif // AIECC_OBS_TRACE_HH
