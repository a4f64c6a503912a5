#include "obs/trace_reader.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

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
        out.num = 1;
        return true;
    }
    if (s.compare(i, 5, "false") == 0) {
        i += 5;
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

/** A forward reader over one detail sentence. */
struct Scan
{
    std::string_view s;
    size_t i = 0;

    bool
    lit(std::string_view text)
    {
        if (s.substr(i, text.size()) != text)
            return false;
        i += text.size();
        return true;
    }

    /** At most 16 digits: never overflows, in base 10 or 16. */
    bool
    num(uint64_t &out, unsigned base)
    {
        const size_t start = i;
        out = 0;
        while (i < s.size() && i - start < 16) {
            const char c = s[i];
            unsigned d;
            if (c >= '0' && c <= '9')
                d = static_cast<unsigned>(c - '0');
            else if (base == 16 && c >= 'a' && c <= 'f')
                d = static_cast<unsigned>(c - 'a') + 10;
            else
                break;
            out = out * base + d;
            ++i;
        }
        return i > start;
    }

    bool
    num(unsigned &out, unsigned base)
    {
        uint64_t v;
        if (!num(v, base) || v > UINT32_MAX)
            return false;
        out = static_cast<unsigned>(v);
        return true;
    }

    std::string_view rest() const { return s.substr(i); }
    bool done() const { return i == s.size(); }
};

bool
scanCommand(Scan &sc, Command &cmd)
{
    // The longest mnemonic that matches, so "PREA" is not read as
    // "PRE" (Rfu is the last CmdType).
    bool named = false;
    size_t best = 0;
    for (unsigned t = 0; t <= static_cast<unsigned>(CmdType::Rfu); ++t) {
        const std::string_view name = cmdName(static_cast<CmdType>(t));
        if (name.size() > best && sc.rest().substr(0, name.size()) == name) {
            cmd.type = static_cast<CmdType>(t);
            best = name.size();
            named = true;
        }
    }
    if (!named)
        return false;
    sc.i += best;
    const auto bank = [&] {
        return sc.lit(" bg") && sc.num(cmd.bg, 10) && sc.lit(".ba") &&
               sc.num(cmd.ba, 10);
    };
    switch (cmd.type) {
      case CmdType::Act:
        return bank() && sc.lit(" row0x") && sc.num(cmd.row, 16);
      case CmdType::Rd:
      case CmdType::Wr:
        if (!bank() || !sc.lit(" col0x") || !sc.num(cmd.col, 16))
            return false;
        cmd.autoPrecharge = sc.lit(" AP");
        cmd.burstChop = sc.lit(" BC");
        return true;
      case CmdType::Pre:
        return bank();
      default:
        return true;
    }
}

bool
scanAddress(Scan &sc, MtbAddress &addr)
{
    return sc.lit("rank") && sc.num(addr.rank, 10) && sc.lit(".bg") &&
           sc.num(addr.bg, 10) && sc.lit(".ba") && sc.num(addr.ba, 10) &&
           sc.lit(".row0x") && sc.num(addr.row, 16) && sc.lit(".col0x") &&
           sc.num(addr.col, 16);
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

/**
 * Read @p text into @p event's Detail form and operands.  False when
 * no form's grammar matches; a match is only kept by the caller if it
 * renders back to @p text.
 */
bool
scanDetail(std::string_view text, TraceEvent &event)
{
    Scan sc{text};
    const auto addrForm = [&](Detail form) {
        event.detail = form;
        return scanAddress(sc, event.addr) && sc.done();
    };
    if (event.kind == EventKind::Classification) {
        // "<why> / <pins>[x<edges>][ first=<mech>][ recovery=
        // <recovery>(<attempts>)]", the suffixes read from the end.
        event.detail = Detail::Trial;
        std::string_view head = text;
        if (head.ends_with(')')) {
            const size_t at = head.rfind(" recovery=");
            const size_t open = head.rfind('(');
            Scan n{head.substr(0, head.size() - 1)};
            n.i = open == std::string_view::npos ? n.s.size() : open + 1;
            if (at != std::string_view::npos && open > at &&
                n.num(event.attempts, 10) && n.done()) {
                event.recovery = internText(
                    head.substr(at + 10, open - (at + 10)));
                head = head.substr(0, at);
            }
        }
        if (const size_t at = head.rfind(" first=");
            at != std::string_view::npos) {
            event.mech = internText(head.substr(at + 7));
            head = head.substr(0, at);
        }
        const size_t slash = head.find(" / ");
        if (slash == std::string_view::npos)
            return false;
        event.why = internText(head.substr(0, slash));
        std::string_view error = head.substr(slash + 3);
        event.edges = 1; // a transient fault unless "x<edges>" says so
        if (const size_t x = error.rfind('x'); x != std::string_view::npos) {
            Scan e{error, x + 1};
            if (e.num(event.edges, 10) && e.done())
                error = error.substr(0, x);
        }
        if (error == "all-pin") {
            event.pins.all = true;
            return true;
        }
        while (!error.empty()) {
            const size_t plus = error.find('+');
            const auto pin = pinNamed(error.substr(0, plus));
            if (!pin)
                return false;
            event.pins.push(*pin);
            error = plus == std::string_view::npos ? std::string_view{}
                                                   : error.substr(plus + 1);
        }
        return true;
    }
    if (sc.lit("parity mismatch on ")) {
        event.detail = Detail::CaParity;
        return scanCommand(sc, event.cmd) && sc.done();
    }
    if (sc.lit("replay ")) {
        event.detail = Detail::Replay;
        return scanCommand(sc, event.cmd) && sc.done();
    }
    if (sc.lit("write CRC mismatch at "))
        return addrForm(Detail::Wcrc);
    if (sc.lit("reissue RD @"))
        return addrForm(Detail::ReissueRd);
    if (sc.lit("scrub write-back @"))
        return addrForm(Detail::ScrubBack);
    if (sc.lit("patrol scrub @"))
        return addrForm(Detail::Patrol);
    if (sc.lit("window replay @"))
        return addrForm(Detail::Window);
    if (sc.lit("first=")) {
        event.detail = Detail::First;
        event.mech = internText(sc.rest());
        return true;
    }
    if (sc.lit("recommend ")) {
        event.detail = Detail::Recommend;
        return true; // label and value carry it all
    }
    if (text == "addresses agree" || sc.lit("intended 0x")) {
        // The addresses live in value; the suspects are read here.
        event.detail = Detail::Diagnosis;
        const size_t at = text.find("suspect pins {");
        if (at == std::string_view::npos)
            return text == "addresses agree";
        std::string_view list = text.substr(at + 14);
        if (!list.ends_with('}'))
            return false;
        list.remove_suffix(1);
        while (!list.empty()) {
            const size_t comma = list.find(',');
            const auto pin = pinNamed(list.substr(0, comma));
            if (!pin)
                return false;
            event.pins.push(*pin);
            list = comma == std::string_view::npos
                       ? std::string_view{}
                       : list.substr(comma + 1);
        }
        return true;
    }
    for (const Detail form : {Detail::ReadCe, Detail::ReadDue}) {
        const std::string_view mid = form == Detail::ReadCe
                                         ? " corrected read @"
                                         : " DUE on read @";
        const size_t at = text.find(mid);
        if (at == std::string_view::npos)
            continue;
        event.detail = form;
        event.why = internText(text.substr(0, at));
        Scan a{text, at + mid.size()};
        if (!scanAddress(a, event.addr))
            return false;
        if (a.lit(" chips=") && !a.num(event.chips, 16))
            return false;
        return a.done();
    }
    if (text.ends_with(')')) {
        const size_t at = text.rfind(" (");
        if (at == std::string_view::npos)
            return false;
        event.detail = Detail::Cstc;
        event.why = internText(text.substr(0, at));
        Scan c{text.substr(0, text.size() - 1), at + 2};
        return scanCommand(c, event.cmd) && c.done();
    }
    return false;
}

/** Set event's label and detail from the recorded text (see header). */
void
readText(TraceEvent &event, std::string_view label, std::string_view detail)
{
    if (!label.empty())
        event.label = internText(label);
    if (detail.empty())
        return;
    TraceEvent typed = event;
    if (scanDetail(detail, typed)) {
        TextBuf back;
        typed.renderDetail(back);
        if (!back.truncated() && back.view() == detail) {
            event = typed;
            return;
        }
    }
    event.detail = Detail::Why;
    event.why = internText(detail);
}

/**
 * Recover the typed RAS symptom fields from the recorded label and
 * detail text — the fields a live producer sets from its own facts.
 */
void
readSymptoms(TraceEvent &event, std::string_view label,
             std::string_view detail)
{
    const auto says = [&](std::string_view text) {
        return detail.find(text) != std::string_view::npos;
    };
    switch (event.kind) {
      case EventKind::Detection:
        // label = mechanism name.  DECC/eDECC are data-path symptoms
        // with address evidence; standalone data-codec engines (the
        // Table III Monte-Carlo) tag theirs "data-ecc" in the detail;
        // the rest are alert families.
        if (label != "DECC" && label != "eDECC" && !says("data-ecc")) {
            event.symptom = Symptom::Alert;
            break;
        }
        event.symptom = says(" DUE") ? Symptom::DataUe : Symptom::DataCe;
        // The corrected chips, as the " chips=<hex>" suffix.
        if (const size_t at = detail.find(" chips=");
            at != std::string_view::npos) {
            Scan sc{detail, at + 7};
            sc.num(event.chips, 16);
        }
        break;

      case EventKind::Diagnosis:
        // label = the suspect CA pin's name.
        if (const auto pin = pinNamed(label))
            event.pin = static_cast<int>(*pin);
        break;

      case EventKind::Recovery:
        if (says("exhausted"))
            event.symptom = Symptom::Exhausted;
        break;

      case EventKind::Escalation:
        if (label == "quarantine")
            event.symptom = Symptom::Quarantine;
        break;

      default:
        break;
    }
}

} // namespace

std::optional<TraceEvent>
parseTraceLine(std::string_view line, std::string *error)
{
    TraceEvent event;
    bool sawKind = false;
    std::string label, detail;
    const auto member = [&](const std::string &key, FlatValue &value) {
        if (key == "kind") {
            if (!value.isString)
                return fail(error, "\"kind\" must be a string");
            const auto kind = eventKindFromName(value.str);
            if (!kind)
                return fail(error,
                            "unknown event kind \"" + value.str + "\"");
            event.kind = *kind;
            sawKind = true;
        } else if (key == "cycle" || key == "value" || key == "fault") {
            if (value.isString || !value.numExact)
                return fail(error,
                            "\"" + key + "\" must be an unsigned integer");
            (key == "cycle"   ? event.cycle
             : key == "value" ? event.value
                              : event.faultId) = value.num;
        } else if (key == "label" || key == "detail") {
            if (!value.isString)
                return fail(error, "\"" + key + "\" must be a string");
            (key == "label" ? label : detail) = std::move(value.str);
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
    readText(event, label, detail);
    readSymptoms(event, label, detail);
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
            record.forced = value.num != 0;
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
