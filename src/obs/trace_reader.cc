#include "obs/trace_reader.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <type_traits>

namespace aiecc
{
namespace obs
{

namespace
{

void
skipSpace(std::string_view s, size_t &i)
{
    while (i < s.size() &&
           (s[i] == ' ' || s[i] == '\t' || s[i] == '\r' || s[i] == '\n'))
        ++i;
}

bool
fail(std::string *error, std::string message)
{
    if (error)
        *error = std::move(message);
    return false;
}

/** One parsed member value of the flat schema. */
struct FlatValue
{
    bool isString = false;
    std::string str;      ///< string payload
    uint64_t num = 0;     ///< integer payload
    bool numExact = false; ///< num holds the full value (plain digits)
    double dbl = 0.0;      ///< numeric payload as a double
    bool isNumber = false; ///< a number token was parsed
    bool isBool = false;   ///< true or false was parsed
    bool flag = false;     ///< the boolean's value
};

bool
parseHex4(std::string_view s, size_t &i, unsigned &out)
{
    out = 0;
    for (int k = 0; k < 4; ++k) {
        if (i >= s.size())
            return false;
        const char c = s[i++];
        unsigned digit;
        if (c >= '0' && c <= '9')
            digit = static_cast<unsigned>(c - '0');
        else if (c >= 'a' && c <= 'f')
            digit = static_cast<unsigned>(c - 'a') + 10;
        else if (c >= 'A' && c <= 'F')
            digit = static_cast<unsigned>(c - 'A') + 10;
        else
            return false;
        out = (out << 4) | digit;
    }
    return true;
}

bool
parseString(std::string_view s, size_t &i, std::string &out,
            std::string *error)
{
    if (i >= s.size() || s[i] != '"')
        return fail(error, "expected '\"'");
    ++i;
    out.clear();
    while (i < s.size()) {
        const char c = s[i++];
        if (c == '"')
            return true;
        if (c != '\\') {
            out += c;
            continue;
        }
        if (i >= s.size())
            break;
        const char esc = s[i++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            unsigned cp;
            if (!parseHex4(s, i, cp))
                return fail(error, "bad \\u escape");
            // The sink only emits \u00XX (control characters), but
            // accept any BMP code point and encode it as UTF-8.
            if (cp < 0x80) {
                out += static_cast<char>(cp);
            } else if (cp < 0x800) {
                out += static_cast<char>(0xC0 | (cp >> 6));
                out += static_cast<char>(0x80 | (cp & 0x3F));
            } else {
                out += static_cast<char>(0xE0 | (cp >> 12));
                out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
                out += static_cast<char>(0x80 | (cp & 0x3F));
            }
            break;
          }
          default:
            return fail(error, "bad escape character");
        }
    }
    return fail(error, "unterminated string");
}

bool
parseValue(std::string_view s, size_t &i, FlatValue &out,
           std::string *error)
{
    skipSpace(s, i);
    if (i >= s.size())
        return fail(error, "expected a value");
    const char c = s[i];
    if (c == '"') {
        out.isString = true;
        return parseString(s, i, out.str, error);
    }
    if (c == '{' || c == '[')
        return fail(error, "nested values are not part of the schema");
    if (s.compare(i, 4, "true") == 0) {
        i += 4;
        out.isBool = out.flag = true;
        return true;
    }
    if (s.compare(i, 5, "false") == 0) {
        i += 5;
        out.isBool = true;
        return true;
    }
    if (s.compare(i, 4, "null") == 0) {
        i += 4;
        return true;
    }
    // A number: plain digit runs (what the sink writes) keep exact
    // uint64 precision; signs, fractions and exponents are consumed
    // but only tolerated for unknown members.
    const size_t start = i;
    if (c == '-')
        ++i;
    uint64_t magnitude = 0;
    bool digits = false, overflow = false;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
        digits = true;
        const uint64_t digit = static_cast<uint64_t>(s[i] - '0');
        if (magnitude > (UINT64_MAX - digit) / 10)
            overflow = true;
        else
            magnitude = magnitude * 10 + digit;
        ++i;
    }
    bool fractional = false;
    if (i < s.size() && s[i] == '.') {
        fractional = true;
        ++i;
        while (i < s.size() && s[i] >= '0' && s[i] <= '9')
            ++i;
    }
    if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
        fractional = true;
        ++i;
        if (i < s.size() && (s[i] == '+' || s[i] == '-'))
            ++i;
        while (i < s.size() && s[i] >= '0' && s[i] <= '9')
            ++i;
    }
    if (!digits)
        return fail(error, "malformed number at offset " +
                               std::to_string(start));
    out.num = magnitude;
    out.numExact = !fractional && c != '-' && !overflow;
    out.isNumber = true;
    // Heartbeat records carry fractional members (rates, ETAs); the
    // double view loses nothing the flat schema promises exactly.
    out.dbl = std::strtod(std::string(s.substr(start, i - start)).c_str(),
                          nullptr);
    return true;
}

/**
 * The flat-object walk parseTraceLine() and parseHeartbeatLine()
 * share: one `{"key": value, ...}` line, surrounding whitespace
 * allowed, nothing after the object.  @p member(key, value) sees each
 * member in order and returns false, having set @p error, to reject
 * the line.
 */
template <class Member>
bool
walkFlatObject(std::string_view line, std::string *error, Member member)
{
    size_t i = 0;
    skipSpace(line, i);
    if (i >= line.size() || line[i] != '{')
        return fail(error, "expected '{'");
    ++i;
    skipSpace(line, i);
    if (i < line.size() && line[i] == '}') {
        ++i;
    } else {
        while (true) {
            skipSpace(line, i);
            std::string key;
            if (!parseString(line, i, key, error))
                return false;
            skipSpace(line, i);
            if (i >= line.size() || line[i] != ':')
                return fail(error, "expected ':' after \"" + key + "\"");
            ++i;
            FlatValue value;
            if (!parseValue(line, i, value, error) || !member(key, value))
                return false;
            skipSpace(line, i);
            if (i < line.size() && line[i] == ',') {
                ++i;
                continue;
            }
            if (i < line.size() && line[i] == '}') {
                ++i;
                break;
            }
            return fail(error, "expected ',' or '}'");
        }
    }
    skipSpace(line, i);
    if (i != line.size())
        return fail(error, "trailing content after the object");
    return true;
}

/**
 * Feed every non-blank line of @p path to @p parse(line, error) and
 * count its rejections into @p out.  std::getline cannot tell "last
 * line ended in '\n'" from "writer was killed mid-record", so the
 * terminator is tracked explicitly: a rejected unterminated final line
 * is a torn tail, not corruption.
 */
template <class Result, class Parse>
void
readLines(const std::string &path, Result &out, Parse parse)
{
    std::ifstream in(path);
    if (!in)
        return;
    out.opened = true;
    std::string line;
    while (std::getline(in, line)) {
        // getline only sets eofbit while still succeeding when it ran
        // into EOF before the delimiter, i.e. the file's last byte
        // was not '\n'.
        const bool terminated = !in.eof();
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        std::string error;
        if (parse(line, error))
            continue;
        if (!terminated) {
            ++out.truncatedTail;
        } else {
            ++out.badLines;
            if (out.firstError.empty())
                out.firstError = error;
        }
    }
}

/**
 * One Chrome instant event for @p event: name = kind[:label], args =
 * [fault,] value[, detail].
 */
void
writeInstant(JsonWriter &w, const TraceEvent &event, std::string_view cat,
             uint64_t pid, uint64_t tid, const char *faultHex)
{
    std::string name(eventKindNameView(event.kind));
    if (!event.labelText().empty())
        name.append(":").append(event.labelText());
    w.beginObject()
        .kv("name", name)
        .kv("cat", cat)
        .kv("ph", "i")
        .kv("ts", event.cycle)
        .kv("pid", pid)
        .kv("tid", tid)
        .kv("s", "t");
    w.key("args").beginObject();
    if (faultHex)
        w.kv("fault", std::string_view(faultHex));
    w.kv("value", event.value);
    if (const std::string detail = event.detailText(); !detail.empty())
        w.kv("detail", detail);
    w.endObject().endObject();
}

/** The pin whose name is @p name, if any. */
std::optional<Pin>
pinNamed(std::string_view name)
{
    for (unsigned p = 0; p < numCccaPins; ++p) {
        if (name == pinName(static_cast<Pin>(p)))
            return static_cast<Pin>(p);
    }
    return std::nullopt;
}

/** The command type whose mnemonic is @p name, if any. */
std::optional<CmdType>
cmdNamed(std::string_view name)
{
    for (unsigned t = 0; t <= static_cast<unsigned>(CmdType::Rfu); ++t) {
        if (name == cmdName(static_cast<CmdType>(t)))
            return static_cast<CmdType>(t);
    }
    return std::nullopt;
}

/** Read a "pins" member: "all", or pin names joined by '+'. */
bool
readPins(std::string_view list, PinList &pins)
{
    if (list == "all") {
        pins.all = true;
        return true;
    }
    while (true) {
        const size_t plus = list.find('+');
        const auto pin = pinNamed(list.substr(0, plus));
        if (!pin || pins.size == numCccaPins)
            return false;
        pins.push(*pin);
        if (plus == std::string_view::npos)
            return true;
        list.remove_prefix(plus + 1);
    }
}

} // namespace

std::optional<TraceEvent>
parseTraceLine(std::string_view line, std::string *error)
{
    TraceEvent event;
    bool sawKind = false;
    // The bank, row and column members are the command's when the
    // line names one, else the address's.
    MtbAddress at;
    bool cmd = false, ap = false, bc = false;
    const auto member = [&](const std::string &key, FlatValue &value) {
        const auto bad = [&](const char *what) {
            return fail(error, "\"" + key + "\" must be " + what);
        };
        const auto number = [&](auto &field) {
            using Field = std::remove_reference_t<decltype(field)>;
            if (!value.isNumber || !value.numExact ||
                value.num > std::numeric_limits<Field>::max())
                return bad("an unsigned integer in range");
            field = static_cast<Field>(value.num);
            return true;
        };
        // No name is empty, so a non-string (str "") is never found.
        const auto name = [&](auto &field, auto found) {
            if (!found)
                return bad("a known name");
            field = *found;
            return true;
        };
        uint64_t *const wide = key == "cycle"      ? &event.cycle
                               : key == "value"    ? &event.value
                               : key == "fault"    ? &event.faultId
                               : key == "attempts" ? &event.attempts
                                                   : nullptr;
        unsigned *const narrow = key == "edges"   ? &event.edges
                                 : key == "chips" ? &event.chips
                                 : key == "rank"  ? &at.rank
                                 : key == "bg"    ? &at.bg
                                 : key == "ba"    ? &at.ba
                                 : key == "row"   ? &at.row
                                 : key == "col"   ? &at.col
                                                  : nullptr;
        const char **const text = key == "label"      ? &event.label
                                  : key == "why"      ? &event.why
                                  : key == "first"    ? &event.mech
                                  : key == "recovery" ? &event.recovery
                                                      : nullptr;
        bool *const flag = key == "ap" ? &ap : key == "bc" ? &bc : nullptr;
        if (wide)
            return number(*wide);
        if (narrow)
            return number(*narrow);
        if (text) {
            if (!value.isString)
                return bad("a string");
            *text = internText(value.str);
        } else if (flag) {
            if (!value.isBool)
                return bad("true or false");
            *flag = value.flag;
        } else if (key == "kind") {
            return sawKind = name(event.kind, eventKindFromName(value.str));
        } else if (key == "form") {
            return name(event.detail,
                        namedIn<Detail>(detailFormNames, value.str));
        } else if (key == "symptom") {
            return name(event.symptom,
                        namedIn<Symptom>(symptomNames, value.str));
        } else if (key == "cmd") {
            return cmd = name(event.cmd.type, cmdNamed(value.str));
        } else if (key == "pin") {
            unsigned pin = numCccaPins;
            if (!number(pin) || pin >= numCccaPins)
                return bad("a CCCA pin index");
            event.pin = static_cast<int>(pin);
        } else if (key == "pins") {
            if (!readPins(value.str, event.pins))
                return bad("\"all\" or pin names joined by '+'");
        } else if (key == "detail") {
            return fail(error, "\"detail\" is a trace format 1 member; "
                               "this reader reads format " +
                                   std::to_string(traceFormat));
        }
        // Unknown members parsed and dropped (forward compat).
        return true;
    };
    if (!walkFlatObject(line, error, member))
        return std::nullopt;
    if (!sawKind) {
        fail(error, "missing \"kind\"");
        return std::nullopt;
    }
    if (cmd ? at.rank != 0 : ap || bc) {
        fail(error, "\"rank\" belongs to an address, \"ap\" and \"bc\" "
                    "to a \"cmd\"");
        return std::nullopt;
    }
    if (cmd)
        event.cmd = {event.cmd.type, at.bg, at.ba, at.row, at.col, ap, bc};
    else
        event.addr = at;
    return event;
}

std::optional<HeartbeatRecord>
parseHeartbeatLine(std::string_view line, std::string *error)
{
    HeartbeatRecord record;
    bool sawType = false;
    const auto member = [&](const std::string &key, FlatValue &value) {
        if (key == "type") {
            if (!value.isString || value.str != "heartbeat")
                return fail(error, "\"type\" must be \"heartbeat\"");
            sawType = true;
        } else if (key == "campaign" || key == "note") {
            if (!value.isString)
                return fail(error, "\"" + key + "\" must be a string");
            (key == "campaign" ? record.campaign : record.note) =
                std::move(value.str);
        } else if (key == "seq" || key == "shards_done" ||
                   key == "shards_total" || key == "trials_done" ||
                   key == "trials_total") {
            if (value.isString || !value.numExact)
                return fail(error,
                            "\"" + key + "\" must be an unsigned integer");
            (key == "seq"            ? record.seq
             : key == "shards_done"  ? record.shardsDone
             : key == "shards_total" ? record.shardsTotal
             : key == "trials_done"  ? record.trialsDone
                                     : record.trialsTotal) = value.num;
        } else if (key == "elapsed_s" || key == "trials_per_s" ||
                   key == "eta_s") {
            if (value.isString || !value.isNumber)
                return fail(error, "\"" + key + "\" must be a number");
            (key == "elapsed_s"      ? record.elapsedS
             : key == "trials_per_s" ? record.trialsPerS
                                     : record.etaS) = value.dbl;
        } else if (key == "forced") {
            if (!value.isBool)
                return fail(error, "\"forced\" must be true or false");
            record.forced = value.flag;
        } else if (value.isNumber) {
            // Payload members (live coverage/cost/alloc counters) are
            // bench-specific: keep them all, typed as double.
            record.extras[key] = value.dbl;
        }
        // Unknown strings parsed and dropped (forward compat).
        return true;
    };
    if (!walkFlatObject(line, error, member))
        return std::nullopt;
    if (!sawType) {
        fail(error, "missing \"type\": \"heartbeat\"");
        return std::nullopt;
    }
    return record;
}

HeartbeatFile
readHeartbeatFile(const std::string &path)
{
    HeartbeatFile out;
    readLines(path, out, [&](const std::string &line, std::string &error) {
        auto record = parseHeartbeatLine(line, &error);
        if (record)
            out.records.push_back(std::move(*record));
        return record.has_value();
    });
    return out;
}

StreamResult
streamTraceFile(const std::string &path,
                const std::function<void(TraceEvent &)> &consume)
{
    StreamResult out;
    readLines(path, out, [&](const std::string &line, std::string &error) {
        auto event = parseTraceLine(line, &error);
        if (event) {
            ++out.events;
            consume(*event);
        }
        return event.has_value();
    });
    return out;
}

TraceFile
readTraceFile(const std::string &path)
{
    TraceFile out;
    const StreamResult sr = streamTraceFile(
        path,
        [&](const TraceEvent &event) { out.events.push_back(event); });
    out.opened = sr.opened;
    out.badLines = sr.badLines;
    out.firstError = sr.firstError;
    out.truncatedTail = sr.truncatedTail;
    return out;
}

double
TraceSummary::ratePerKiloCycle(EventKind kind) const
{
    const auto it = byKind.find(kind);
    if (it == byKind.end() || !totalEvents)
        return 0.0;
    const double span = static_cast<double>(lastCycle - firstCycle + 1);
    return static_cast<double>(it->second.count) * 1000.0 / span;
}

TraceSummary
summarizeTrace(std::vector<TraceEvent> events)
{
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.cycle < b.cycle;
                     });
    TraceSummary sum;
    std::map<EventKind, uint64_t> prevCycle;
    for (const TraceEvent &event : events) {
        if (!sum.totalEvents) {
            sum.firstCycle = event.cycle;
            sum.lastCycle = event.cycle;
        }
        sum.lastCycle = std::max(sum.lastCycle, event.cycle);
        ++sum.totalEvents;

        KindSummary &k = sum.byKind[event.kind];
        if (!k.count)
            k.firstCycle = event.cycle;
        else
            k.gaps.sample(event.cycle - prevCycle[event.kind]);
        k.lastCycle = event.cycle;
        ++k.count;
        if (!event.labelText().empty())
            ++k.byLabel[std::string(event.labelText())];
        prevCycle[event.kind] = event.cycle;
    }
    return sum;
}

bool
TraceFilter::matches(const TraceEvent &event) const
{
    if (kind && event.kind != *kind)
        return false;
    if (label && event.labelText() != *label)
        return false;
    return event.cycle >= cycleMin && event.cycle <= cycleMax;
}

std::vector<TraceEvent>
filterEvents(const std::vector<TraceEvent> &events,
             const TraceFilter &filter)
{
    std::vector<TraceEvent> out;
    for (const TraceEvent &event : events) {
        if (filter.matches(event))
            out.push_back(event);
    }
    return out;
}

uint64_t
writeChromeTrace(const std::vector<TraceEvent> &events, JsonWriter &w)
{
    std::vector<TraceEvent> sorted = events;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.cycle < b.cycle;
                     });

    w.beginObject();
    w.key("traceEvents").beginArray();

    // Instant events: one per trace event, cycle as timestamp.
    for (const TraceEvent &event : sorted)
        writeInstant(w, event, eventKindNameView(event.kind), 0, 0, nullptr);

    // Duration spans: a recovery episode opens at its first Retry
    // (attempt number 1) and closes at the next Recovery event
    // carrying the same cause label.  Retries from other sources
    // (e.g. the replay harness's "wr"/"rd") never see a matching
    // Recovery and emit no span.
    uint64_t spans = 0;
    struct Pending
    {
        uint64_t startCycle = 0;
        bool open = false;
    };
    std::map<std::string, Pending, std::less<>> pending;
    for (const TraceEvent &event : sorted) {
        if (event.kind == EventKind::Retry && event.value == 1) {
            pending[std::string(event.labelText())] = {event.cycle, true};
        } else if (event.kind == EventKind::Recovery &&
                   !event.labelText().empty()) {
            auto it = pending.find(event.labelText());
            if (it == pending.end() || !it->second.open)
                continue;
            const uint64_t start = it->second.startCycle;
            const uint64_t dur =
                event.cycle > start ? event.cycle - start : 1;
            w.beginObject()
                .kv("name", "episode:" + std::string(event.labelText()))
                .kv("cat", "recovery")
                .kv("ph", "X")
                .kv("ts", start)
                .kv("dur", dur)
                .kv("pid", 0)
                .kv("tid", 1);
            w.key("args")
                .beginObject()
                .kv("attempts", event.value)
                .kv("outcome", event.detailText())
                .endObject();
            w.endObject();
            it->second.open = false;
            ++spans;
        }
    }

    w.endArray();
    w.kv("displayTimeUnit", "ns");
    w.key("otherData")
        .beginObject()
        .kv("source", "aiecc-trace")
        .kv("timestamp_unit", "controller cycles")
        .endObject();
    w.endObject();
    return spans;
}

void
LineageBuilder::add(const TraceEvent &event)
{
    if (!event.faultId)
        return;
    auto it = index.find(event.faultId);
    if (it == index.end()) {
        it = index.emplace(event.faultId, view.faults.size()).first;
        view.faults.push_back({});
        view.faults.back().faultId = event.faultId;
    }
    FaultTimeline &fault = view.faults[it->second];
    if (event.kind == EventKind::FaultInject)
        fault.injected = true;
    else if (event.kind == EventKind::FaultResolve)
        fault.resolved = true;
    fault.events.push_back(event);
}

LineageView
LineageBuilder::finish()
{
    view.orphanEvents = 0;
    view.unresolved = 0;
    view.resolveWithoutInject = 0;
    for (const FaultTimeline &fault : view.faults) {
        if (!fault.injected) {
            view.orphanEvents += fault.events.size();
            if (fault.resolved)
                ++view.resolveWithoutInject;
        } else if (!fault.resolved) {
            ++view.unresolved;
        }
    }
    return std::move(view);
}

LineageView
buildLineageView(const std::vector<TraceEvent> &events)
{
    LineageBuilder builder;
    for (const TraceEvent &event : events)
        builder.add(event);
    return builder.finish();
}

namespace
{

/**
 * The Chrome process a fault's lane belongs to: its injection site
 * (the FaultInject label).  Orphans (no inject) group together so
 * damaged lineage stands out as its own process in the viewer.
 */
std::string
faultSite(const FaultTimeline &fault)
{
    for (const TraceEvent &event : fault.events) {
        if (event.kind == EventKind::FaultInject)
            return event.labelText().empty()
                       ? "(unlabeled)"
                       : std::string(event.labelText());
    }
    return "(orphan)";
}

} // namespace

uint64_t
writeLineageChromeTrace(const LineageView &view, JsonWriter &w)
{
    w.beginObject();
    w.key("traceEvents").beginArray();

    // Group faults by injection site: one Chrome process per site,
    // one tid lane per fault within it.  Grouping replaces the old
    // flat modulo-64 lane assignment — every fault keeps a private
    // lane no matter how many the trace holds.
    struct SiteGroup
    {
        uint64_t pid = 0;
        uint64_t nextLane = 0;
    };
    std::map<std::string, SiteGroup> sites;
    for (const FaultTimeline &fault : view.faults) {
        const std::string site = faultSite(fault);
        if (sites.emplace(site, SiteGroup{}).second) {
            const uint64_t pid = sites.size();
            sites[site].pid = pid;
            w.beginObject()
                .kv("name", "process_name")
                .kv("ph", "M")
                .kv("pid", pid)
                .kv("tid", 0);
            w.key("args")
                .beginObject()
                .kv("name", "site: " + site)
                .endObject();
            w.endObject();
        }
    }

    uint64_t spans = 0;
    char idHex[32];
    for (const FaultTimeline &fault : view.faults) {
        std::snprintf(idHex, sizeof(idHex), "%016llx",
                      static_cast<unsigned long long>(fault.faultId));
        SiteGroup &group = sites[faultSite(fault)];
        const uint64_t pid = group.pid;
        const uint64_t tid = group.nextLane++;

        // The lineage span proper: inject cycle to resolve cycle.
        if (fault.injected && fault.resolved) {
            const uint64_t start = fault.events.front().cycle;
            uint64_t end = start;
            std::string terminal;
            for (const TraceEvent &event : fault.events) {
                if (event.kind == EventKind::FaultResolve) {
                    end = event.cycle;
                    terminal = event.labelText();
                }
            }
            w.beginObject()
                .kv("name", "fault:" + std::string(idHex))
                .kv("cat", "lineage")
                .kv("ph", "X")
                .kv("ts", start)
                .kv("dur", end > start ? end - start : 1)
                .kv("pid", pid)
                .kv("tid", tid);
            w.key("args")
                .beginObject()
                .kv("terminal", terminal)
                .kv("events", static_cast<uint64_t>(fault.events.size()))
                .endObject();
            w.endObject();
            ++spans;
        }

        // Observation marks inside (or orphaned outside) the span.
        for (const TraceEvent &event : fault.events)
            writeInstant(w, event, fault.injected ? "lineage" : "orphan",
                         pid, tid, idHex);
    }

    w.endArray();
    w.kv("displayTimeUnit", "ns");
    w.key("otherData")
        .beginObject()
        .kv("source", "aiecc-trace lineage")
        .kv("timestamp_unit", "controller cycles")
        .kv("faults", static_cast<uint64_t>(view.faults.size()))
        .kv("sites", static_cast<uint64_t>(sites.size()))
        .kv("orphan_events", view.orphanEvents)
        .kv("unresolved", view.unresolved)
        .endObject();
    w.endObject();
    return spans;
}

} // namespace obs
} // namespace aiecc
