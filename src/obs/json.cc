#include "obs/json.hh"

#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "common/logging.hh"

namespace aiecc
{
namespace obs
{

namespace
{

/**
 * A NaN/Inf reaching the writer is almost always an upstream bug
 * (0/0 rate, uninitialized scalar) that would otherwise vanish into a
 * silent null; warn the first time so it is diagnosable without
 * flooding a campaign that serializes millions of doubles.
 */
std::atomic<bool> warnedNonFinite{false};

} // namespace

void
JsonWriter::resetNonFiniteWarning()
{
    warnedNonFinite.store(false, std::memory_order_relaxed);
}

std::string
JsonWriter::escape(std::string_view text)
{
    JsonWriter w;
    w.appendEscaped(text);
    return w.out;
}

void
JsonWriter::appendEscaped(std::string_view text)
{
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

void
JsonWriter::newline()
{
    if (indentWidth <= 0)
        return;
    out += '\n';
    out.append(stack.size() * static_cast<size_t>(indentWidth), ' ');
}

void
JsonWriter::beforeValue()
{
    if (stack.empty()) {
        AIECC_ASSERT(!started, "JSON document already complete");
        started = true;
        return;
    }
    Level &level = stack.back();
    if (level.scope == Scope::Object) {
        AIECC_ASSERT(keyPending, "JSON object member needs a key()");
        keyPending = false;
        return;
    }
    if (level.members++)
        out += ',';
    newline();
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    AIECC_ASSERT(!stack.empty() && stack.back().scope == Scope::Object,
                 "key() outside of an object");
    AIECC_ASSERT(!keyPending, "key() already pending");
    if (stack.back().members++)
        out += ',';
    newline();
    out += '"';
    appendEscaped(name);
    out += indentWidth > 0 ? "\": " : "\":";
    keyPending = true;
    return *this;
}

JsonWriter &
JsonWriter::beginObject()
{
    beforeValue();
    out += '{';
    stack.push_back({Scope::Object, 0});
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    AIECC_ASSERT(!stack.empty() && stack.back().scope == Scope::Object,
                 "endObject() without matching beginObject()");
    AIECC_ASSERT(!keyPending, "dangling key() at endObject()");
    const bool hadMembers = stack.back().members > 0;
    stack.pop_back();
    if (hadMembers)
        newline();
    out += '}';
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    beforeValue();
    out += '[';
    stack.push_back({Scope::Array, 0});
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    AIECC_ASSERT(!stack.empty() && stack.back().scope == Scope::Array,
                 "endArray() without matching beginArray()");
    const bool hadMembers = stack.back().members > 0;
    stack.pop_back();
    if (hadMembers)
        newline();
    out += ']';
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view text)
{
    beforeValue();
    out += '"';
    appendEscaped(text);
    out += '"';
    return *this;
}

JsonWriter &
JsonWriter::value(double number)
{
    if (!std::isfinite(number)) {
        if (!warnedNonFinite.exchange(true, std::memory_order_relaxed)) {
            AIECC_WARN("non-finite double serialized as null "
                       "(further occurrences not reported)");
        }
        return null(); // JSON has no NaN/Inf
    }
    beforeValue();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", number);
    // Trim to the shortest representation that round-trips.
    for (int prec = 1; prec < 17; ++prec) {
        char probe[32];
        std::snprintf(probe, sizeof(probe), "%.*g", prec, number);
        double back;
        std::sscanf(probe, "%lf", &back);
        if (back == number) {
            out += probe;
            return *this;
        }
    }
    out += buf;
    return *this;
}

JsonWriter &
JsonWriter::value(uint64_t number)
{
    beforeValue();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, number);
    out += buf;
    return *this;
}

JsonWriter &
JsonWriter::value(int64_t number)
{
    beforeValue();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRId64, number);
    out += buf;
    return *this;
}

JsonWriter &
JsonWriter::value(bool flag)
{
    beforeValue();
    out += flag ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    beforeValue();
    out += "null";
    return *this;
}

const std::string &
JsonWriter::str() const
{
    AIECC_ASSERT(complete(), "JSON document has unbalanced begin/end");
    return out;
}

void
JsonWriter::reserve(size_t bytes, size_t depth)
{
    out.reserve(bytes);
    stack.reserve(depth);
}

void
JsonWriter::clear()
{
    out.clear();
    stack.clear();
    keyPending = false;
    started = false;
}

bool
JsonWriter::writeFile(const std::string &path) const
{
    const std::string &doc = str();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const bool ok =
        std::fwrite(doc.data(), 1, doc.size(), f) == doc.size() &&
        std::fputc('\n', f) != EOF;
    return std::fclose(f) == 0 && ok;
}

} // namespace obs
} // namespace aiecc
