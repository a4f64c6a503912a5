/**
 * @file
 * One layout per checkpoint state type (DESIGN.md §12).
 *
 * Each piece of mergeable state that crosses a kill -> resume boundary
 * names its fields once, in a static `layout(self, archive)` template,
 * and both directions run it: StateWriter appends each field's text
 * (self is const), StateReader parses the same fields back in the same
 * order.  serializeState()/deserializeState() wrap writeState() and
 * restoreState(), so the directions cannot drift apart.  merge() is not
 * a layout: its rule differs per field (add, min/max, worse state,
 * sketch fold, capped append), so each type keeps it by hand.
 *
 * The text form is the one the hand-written pairs produced before:
 * tokens on a line are one space apart, lines end where the layout
 * says endl(), bools are 0/1 and doubles are their IEEE-754 bits in
 * hex, so every round trip is exact.
 *
 * StateReader is the only place that judges input.  A missing tag, a
 * truncated or overflowing number, an out-of-range enum or index, a
 * count the remaining input could not hold, a name the owner rejects:
 * each ends in an error message, never an abort, and every later field
 * is skipped.  The object it filled holds partial state; discard it.
 */

#ifndef AIECC_OBS_STATE_HH
#define AIECC_OBS_STATE_HH

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

#include "common/logging.hh"

namespace aiecc
{
namespace obs
{

/** Appends the text form of the fields a layout names. */
class StateWriter
{
  public:
    static constexpr bool reading = false;

    const std::string &str() const { return out; }

    /** A literal keyword. */
    StateWriter &tag(std::string_view t) { return token(t); }
    /** Integer, bool and double fields, in order. */
    template <class... T>
    StateWriter &
    operator()(const T &...v)
    {
        (number(v), ...);
        return *this;
    }
    /** An enum or index the reader checks against a limit. */
    template <class T>
    StateWriter &below(const T &v, uint64_t) { return number(uint64_t(v)); }
    /** An element count (the reader bounds it by the input left). */
    StateWriter &count(const uint64_t &n) { return number(n); }
    /** A whitespace-free token. */
    StateWriter &word(const std::string &w) { return token(w); }
    /** A whole raw line; spaces allowed. */
    StateWriter &line(const std::string &l) { return token(l).endl(); }
    StateWriter &
    endl()
    {
        out += '\n';
        lineStart = true;
        return *this;
    }
    /** Reader-side consistency check; written state passes. */
    void check(bool, std::string_view) {}

    /** The elements of @p seq, each laid out by @p fn. */
    template <class Seq, class Fn>
    void
    items(const Seq &seq, uint64_t, Fn fn)
    {
        for (const auto &e : seq)
            fn(e);
    }

    /**
     * A "tag N" line, then one line per map entry: @p key lays out its
     * key, @p value its (dereferenced) value.  @p slot is the reader's
     * find-or-create.
     */
    template <class Map, class Key, class Slot, class Value>
    void
    entries(std::string_view t, const Map &map, Key key, Slot, Value value)
    {
        tag(t).count(map.size()).endl();
        for (const auto &[k, v] : map) {
            key(k);
            if constexpr (requires { *v; })
                value(std::as_const(*v));
            else
                value(v);
            endl();
        }
    }

  private:
    std::string out;
    bool lineStart = true;

    StateWriter &
    token(std::string_view t)
    {
        if (!lineStart)
            out += ' ';
        out += t;
        lineStart = false;
        return *this;
    }
    StateWriter &number(const bool &b) { return token(b ? "1" : "0"); }
    StateWriter &
    number(const double &v)
    {
        uint64_t raw;
        std::memcpy(&raw, &v, sizeof raw);
        char buf[16];
        return token({buf, std::to_chars(buf, buf + 16, raw, 16).ptr});
    }
    template <class T>
    StateWriter &
    number(const T &v)
    {
        char buf[24];
        return token({buf, std::to_chars(buf, buf + 24, v).ptr});
    }
};

/** Parses what StateWriter wrote; see the file comment for errors. */
class StateReader
{
  public:
    static constexpr bool reading = true;

    explicit StateReader(std::string_view text) : in(text) {}

    /** Why parsing stopped ("" while everything parsed). */
    const std::string &error() const { return err; }
    /** True while input remains (uncounted row lists). */
    bool more() const { return err.empty() && pos < in.size(); }

    /** Record the first error; every later field is skipped. */
    void
    check(bool ok, std::string_view why)
    {
        if (!ok && err.empty())
            err = "at byte " + std::to_string(pos) + ": " + std::string(why);
    }
    void finish() { check(pos == in.size(), "trailing bytes"); }

    StateReader &
    tag(std::string_view want)
    {
        if (token() != want && err.empty())
            check(false, "expected '" + std::string(want) + "'");
        return *this;
    }
    template <class... T>
    StateReader &
    operator()(T &...v)
    {
        (number(v), ...);
        return *this;
    }
    template <class T>
    StateReader &
    below(T &v, uint64_t limit)
    {
        uint64_t n = 0;
        if (number(n) && n >= limit)
            check(false, std::to_string(n) + " out of range");
        if (err.empty())
            v = static_cast<T>(n);
        return *this;
    }
    StateReader &
    count(uint64_t &n)
    {
        // Every element takes at least one byte, so a damaged count
        // cannot drive a huge allocation.
        if (number(n))
            check(n <= in.size() - pos, "count exceeds the input");
        return *this;
    }
    StateReader &
    word(std::string &w)
    {
        w = token();
        return *this;
    }
    StateReader &
    line(std::string &l)
    {
        const size_t eol = in.find('\n', pos);
        check(eol != std::string_view::npos, "truncated line");
        if (err.empty()) {
            l = in.substr(pos, eol - pos);
            pos = eol + 1;
        }
        return *this;
    }
    StateReader &
    endl()
    {
        check(pos < in.size() && in[pos] == '\n', "expected end of line");
        pos += err.empty();
        return *this;
    }

    template <class Seq, class Fn>
    void
    items(Seq &seq, uint64_t n, Fn fn)
    {
        seq.clear();
        for (uint64_t i = 0; i < n && err.empty(); ++i)
            fn(seq.emplace_back());
    }

    /** @p slot(key) finds or creates the value; nullptr rejects it. */
    template <class Map, class Key, class Slot, class Value>
    void
    entries(std::string_view t, Map &map, Key key, Slot slot, Value value)
    {
        uint64_t n = 0;
        tag(t).count(n).endl();
        map.clear();
        for (uint64_t i = 0; i < n && err.empty(); ++i) {
            typename Map::key_type k{};
            key(k);
            auto *v = err.empty() ? slot(k) : nullptr;
            check(v != nullptr, "rejected entry");
            if (v)
                value(*v);
            endl();
        }
    }

  private:
    std::string_view in;
    size_t pos = 0;
    std::string err;

    std::string_view
    token()
    {
        const size_t end = std::min(in.find_first_of(" \n", pos), in.size());
        check(end > pos, pos < in.size() ? "missing field" : "truncated");
        if (!err.empty())
            return {};
        const std::string_view t = in.substr(pos, end - pos);
        pos = end + (end < in.size() && in[end] == ' ');
        return t;
    }
    /** Parse all of the next token as a number in @p base. */
    template <class T>
    bool
    number(T &v, int base = 10)
    {
        const std::string_view t = token();
        const char *end = t.data() + t.size();
        const auto [stop, ec] = std::from_chars(t.data(), end, v, base);
        check(!err.empty() || (ec == std::errc() && stop == end),
              "bad number");
        return err.empty();
    }
    bool
    number(double &v)
    {
        uint64_t raw = 0;
        if (number(raw, 16))
            std::memcpy(&v, &raw, sizeof v);
        return err.empty();
    }
    bool
    number(bool &b)
    {
        uint64_t n = 0;
        below(n, 2);
        b = n != 0;
        return err.empty();
    }
};

/** @p obj's checkpoint form. */
template <class T>
std::string
writeState(const T &obj)
{
    StateWriter w;
    T::layout(obj, w);
    return w.str();
}

/** Parse @p text into @p obj: the reader's error, "" on success. */
template <class T>
std::string
readState(T &obj, std::string_view text)
{
    StateReader r(text);
    T::layout(obj, r);
    r.finish();
    return r.error();
}

/** The deserializeState() contract: parse, or panic with the reason. */
template <class T>
void
restoreState(T &obj, std::string_view text)
{
    const std::string why = readState(obj, text);
    if (!why.empty())
        AIECC_PANIC("bad checkpoint state: " << why);
}

} // namespace obs
} // namespace aiecc

#endif // AIECC_OBS_STATE_HH
