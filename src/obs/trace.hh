/**
 * @file
 * Structured event tracing for the protection stack.
 *
 * Producers emit flat TraceEvents (kind + cycle timestamp + the typed
 * facts of a small, schema-stable payload) through the TraceSink
 * interface.  An event is a plain value; its detail text is rendered
 * from those facts only for people (renderDetail()).  Two sinks are
 * provided: an unbounded in-memory vector for tests and sharded
 * capture, and a JSONL file sink that streams one flat JSON object per
 * line, each fact its own member, for offline analysis.
 */

#ifndef AIECC_OBS_TRACE_HH
#define AIECC_OBS_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <iterator>
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
 * The JSONL trace format writeJson() emits and parseTraceLine()
 * reads.  Format 2 writes each detail operand and RAS field as its
 * own member ("form", "why", "cmd", "chips", "symptom", ...; DESIGN.md
 * §6).  Format 1 rendered the operands into one "detail" sentence; a
 * line carrying "detail" is refused.  A format-1 line without
 * "detail" happens to be a valid format-2 line, and only the symptom
 * a format-1 reader inferred from its label is lost.  Lines carry no
 * version member.
 */
constexpr unsigned traceFormat = 2;

/**
 * The schema tables below are X-macros: each entry pairs an
 * enumerator with its JSONL name, and the enum and its name table are
 * generated from that single list, so adding an entry is the *only*
 * edit needed — writers, parsers and name round-trips cannot drift.
 */
#define AIECC_ENUMERATOR(enumerator, ...) enumerator,
#define AIECC_NAME_OF(enumerator, name, ...) name,

/** The event kinds (the JSONL "kind" member). */
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
    AIECC_EVENT_KINDS(AIECC_ENUMERATOR)
};

/** JSONL "kind" names, indexed by EventKind. */
inline constexpr std::string_view eventKindNames[] = {
    AIECC_EVENT_KINDS(AIECC_NAME_OF)};

/** Number of EventKind enumerators (parsers iterate the schema). */
constexpr unsigned numEventKinds = std::size(eventKindNames);

/**
 * What an event tells a RAS monitor, typed (the JSONL "symptom"
 * member).  Producers set it from facts they hold, and writeJson()
 * records it, so a replayed trace reads it back instead of guessing it
 * from text.
 */
#define AIECC_SYMPTOMS(X)                                                 \
    X(None, "none")                                                       \
    /* Detection: corrected data-ECC error (value = address) */          \
    X(DataCe, "data_ce")                                                  \
    /* Detection: uncorrectable data-ECC error (ditto) */                 \
    X(DataUe, "data_ue")                                                  \
    /* Detection: device alert family (CAP/WCRC/CSTC) */                  \
    X(Alert, "alert")                                                     \
    /* Recovery: the retry budget ran out */                              \
    X(Exhausted, "exhausted")                                             \
    /* Escalation: bank quarantined (value = bank) */                     \
    X(Quarantine, "quarantine")

enum class Symptom : uint8_t
{
    AIECC_SYMPTOMS(AIECC_ENUMERATOR)
};

/** JSONL "symptom" names, indexed by Symptom. */
inline constexpr std::string_view symptomNames[] = {
    AIECC_SYMPTOMS(AIECC_NAME_OF)};

/** The operands a detail form renders (bits of detailOperands). */
enum DetailOperand : uint8_t
{
    opWhy = 1,    ///< why
    opCmd = 2,    ///< cmd
    opAddr = 4,   ///< addr
    opPins = 8,   ///< pins
    opFirst = 16, ///< mech
    opTrial = 32, ///< edges, recovery and attempts
};

/**
 * The detail forms (the JSONL "form" member): the sentence an event's
 * detail text takes, as renderDetail() prints it, and the operands
 * that fill it.  `<why>`, `<mech>` and `<recovery>` are the static
 * strings of those fields; `<cmd>` and `<addr>` print as
 * Command::render() and MtbAddress::render().
 */
#define AIECC_DETAIL_FORMS(X)                                             \
    /* no detail text */                                                  \
    X(None, "none", 0)                                                    \
    /* <why>, verbatim */                                                 \
    X(Why, "why", opWhy)                                                  \
    /* "parity mismatch on <cmd>" */                                      \
    X(CaParity, "ca_parity", opCmd)                                       \
    /* "write CRC mismatch at <addr>" */                                  \
    X(Wcrc, "wcrc", opAddr)                                               \
    /* "<why> (<cmd>)" */                                                 \
    X(Cstc, "cstc", opWhy | opCmd)                                        \
    /* "<why> corrected read @<addr>[ chips=<hex chips>]" */              \
    X(ReadCe, "read_ce", opWhy | opAddr)                                  \
    /* "<why> DUE on read @<addr>[ chips=<hex chips>]" */                 \
    X(ReadDue, "read_due", opWhy | opAddr)                                \
    /* "replay <cmd>" */                                                  \
    X(Replay, "replay", opCmd)                                            \
    /* "reissue RD @<addr>" */                                            \
    X(ReissueRd, "reissue_rd", opAddr)                                    \
    /* "scrub write-back @<addr>" */                                      \
    X(ScrubBack, "scrub_back", opAddr)                                    \
    /* "patrol scrub @<addr>" */                                          \
    X(Patrol, "patrol", opAddr)                                           \
    /* "window replay @<addr>" */                                         \
    X(Window, "window", opAddr)                                           \
    /* "intended 0x<hi> observed 0x<lo>; faulty MTB bits {..}; suspect    \
       pins {<pins, comma-separated>}" from value = intended << 32 |      \
       observed, or "addresses agree" */                                  \
    X(Diagnosis, "diagnosis", opPins)                                     \
    /* "first=<mech>" */                                                  \
    X(First, "first", opFirst)                                            \
    /* "<why> / <pins>[x<edges>][ first=<mech>][ recovery=<recovery>      \
       (<attempts>)]": the trial's command pattern, its injected pins     \
       joined by '+' (or "all-pin"), the edges the fault persisted for    \
       when more than one, and how the trial ended */                     \
    X(Trial, "trial", opWhy | opPins | opFirst | opTrial)                 \
    /* "recommend <label> bank=<value >> 32> row=<low 32 bits>" */        \
    X(Recommend, "recommend", 0)

enum class Detail : uint8_t
{
    AIECC_DETAIL_FORMS(AIECC_ENUMERATOR)
};

/** JSONL "form" names, indexed by Detail. */
inline constexpr std::string_view detailFormNames[] = {
    AIECC_DETAIL_FORMS(AIECC_NAME_OF)};

/** Each form's DetailOperand bits, indexed by Detail. */
inline constexpr uint8_t detailOperands[] = {
#define AIECC_OPERANDS_OF(form, name, operands) operands,
    AIECC_DETAIL_FORMS(AIECC_OPERANDS_OF)
#undef AIECC_OPERANDS_OF
};

#undef AIECC_ENUMERATOR
#undef AIECC_NAME_OF

/** The enumerator named @p name in @p names; nullopt when unknown. */
template <class Enum, size_t N>
constexpr std::optional<Enum>
namedIn(const std::string_view (&names)[N], std::string_view name)
{
    for (size_t i = 0; i < N; ++i) {
        if (names[i] == name)
            return static_cast<Enum>(i);
    }
    return std::nullopt;
}

/** Printable event-kind name: a view of the static JSONL schema string. */
inline std::string_view
eventKindNameView(EventKind kind)
{
    return eventKindNames[static_cast<unsigned>(kind)];
}

/**
 * Inverse of eventKindNameView(): the kind whose schema string is
 * @p name, or nullopt for an unknown string.  Used by trace-file
 * parsers (tools/aiecc-trace) to round-trip recorded events.
 */
inline std::optional<EventKind>
eventKindFromName(std::string_view name)
{
    return namedIn<EventKind>(eventKindNames, name);
}

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
 * A plain value: producers fill in the facts they hold; writeJson()
 * records each as its own member, and the detail text is rendered
 * from them only for people.
 * Every string member points at static storage (a name table) or at
 * internText()'s process-wide table, so copying, storing and
 * re-emitting an event never allocates.
 */
struct TraceEvent
{
    EventKind kind = EventKind::CommandIssued;
    /** Typed RAS symptom (the "symptom" member). */
    Symptom symptom = Symptom::None;
    /** Which sentence the detail text renders, and so its operands. */
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

    /**
     * Serialize as one flat JSON object: kind, cycle, label, value,
     * the form and each operand it renders, the RAS fields (symptom,
     * chips, pin) and the fault ID, every one omitted when unset.
     */
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
