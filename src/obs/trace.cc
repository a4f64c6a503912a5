#include "obs/trace.hh"

#include <mutex>
#include <set>

namespace aiecc
{
namespace obs
{

std::string_view
eventKindNameView(EventKind kind)
{
    switch (kind) {
#define AIECC_EVENT_KIND_NAME(k, n)                                       \
      case EventKind::k: return n;
      AIECC_EVENT_KINDS(AIECC_EVENT_KIND_NAME)
#undef AIECC_EVENT_KIND_NAME
    }
    return "?";
}

std::optional<EventKind>
eventKindFromName(std::string_view name)
{
    for (unsigned k = 0; k < numEventKinds; ++k) {
        const EventKind kind = static_cast<EventKind>(k);
        if (eventKindNameView(kind) == name)
            return kind;
    }
    return std::nullopt;
}

void
TraceEvent::renderDetail(TextBuf &out) const
{
    const auto text = [](const char *s) {
        return std::string_view(s ? s : "");
    };
    switch (detail) {
      case Detail::None:
        break;
      case Detail::Why:
        out.add(text(why));
        break;
      case Detail::CaParity:
        out.add("parity mismatch on ");
        cmd.render(out);
        break;
      case Detail::Wcrc:
        out.add("write CRC mismatch at ");
        addr.render(out);
        break;
      case Detail::Cstc:
        out.add(text(why)).add(" (");
        cmd.render(out);
        out.add(')');
        break;
      case Detail::ReadCe:
      case Detail::ReadDue:
        out.add(text(why)).add(detail == Detail::ReadCe
                                   ? " corrected read @"
                                   : " DUE on read @");
        addr.render(out);
        if (chips)
            out.add(" chips=").hex(chips);
        break;
      case Detail::Replay:
        out.add("replay ");
        cmd.render(out);
        break;
      case Detail::ReissueRd:
      case Detail::ScrubBack:
      case Detail::Patrol:
      case Detail::Window:
        out.add(detail == Detail::ReissueRd   ? "reissue RD @"
                : detail == Detail::ScrubBack ? "scrub write-back @"
                : detail == Detail::Patrol    ? "patrol scrub @"
                                              : "window replay @");
        addr.render(out);
        break;
      case Detail::Diagnosis: {
        const uint64_t intended = value >> 32;
        const uint64_t observed = value & 0xFFFFFFFFu;
        if (intended == observed) {
            out.add("addresses agree");
            break;
        }
        out.add("intended 0x").hex(intended).add(" observed 0x");
        out.hex(observed).add("; faulty MTB bits {");
        const char *sep = "";
        for (unsigned bit = 0; bit < 32; ++bit) {
            if ((intended ^ observed) >> bit & 1) {
                out.add(sep).dec(bit);
                sep = ",";
            }
        }
        out.add("}; suspect pins {");
        for (uint8_t i = 0; i < pins.size; ++i)
            out.add(i ? "," : "").add(pinName(pins.pins[i]));
        out.add('}');
        break;
      }
      case Detail::First:
        out.add("first=").add(text(mech));
        break;
      case Detail::Trial:
        out.add(text(why)).add(" / ");
        if (pins.all)
            out.add("all-pin");
        for (uint8_t i = 0; i < pins.size; ++i)
            out.add(i ? "+" : "").add(pinName(pins.pins[i]));
        if (edges > 1)
            out.add('x').dec(edges);
        if (mech)
            out.add(" first=").add(mech);
        if (recovery)
            out.add(" recovery=").add(recovery).add('(').dec(attempts).add(
                ')');
        break;
      case Detail::Recommend:
        out.add("recommend ").add(labelText()).add(" bank=");
        out.dec(value >> 32).add(" row=").dec(value & 0xFFFFFFFFu);
        break;
    }
}

std::string
TraceEvent::detailText() const
{
    if (detail == Detail::Why)
        return why ? why : "";
    TextBuf out;
    renderDetail(out);
    return out.str();
}

void
TraceEvent::writeJson(JsonWriter &w) const
{
    w.beginObject()
        .kv("kind", eventKindNameView(kind))
        .kv("cycle", cycle);
    if (label && *label)
        w.kv("label", label);
    if (value)
        w.kv("value", value);
    if (detail == Detail::Why) {
        // Kept text may outgrow the render buffer: write it as is.
        if (why && *why)
            w.kv("detail", why);
    } else if (detail != Detail::None) {
        TextBuf text;
        renderDetail(text);
        if (!text.empty())
            w.kv("detail", text.view());
    }
    if (faultId)
        w.kv("fault", faultId);
    w.endObject();
}

const char *
internText(std::string_view text)
{
    // Nodes never move, so a stored string's characters stay put; the
    // table is never destroyed, so no exit-time destructor can leave
    // an event pointing at freed text.
    static std::mutex lock;
    static auto *table = new std::set<std::string, std::less<>>;
    const std::lock_guard<std::mutex> hold(lock);
    auto it = table->find(text);
    if (it == table->end())
        it = table->emplace(text).first;
    return it->c_str();
}

JsonlTraceSink::JsonlTraceSink(const std::string &path)
    : file(std::fopen(path.c_str(), "w"))
{
    // Sized up front so that lines recorded later, inside an access,
    // never grow it: an event is one flat object, and few lines come
    // near 1 KiB.
    line.reserve(1024, 1);
}

JsonlTraceSink::~JsonlTraceSink()
{
    if (!file)
        return;
    if (std::fflush(file) != 0)
        ++errors;
    std::fclose(file);
}

void
JsonlTraceSink::record(const TraceEvent &event)
{
    if (!file) {
        ++drops;
        return;
    }
    line.clear();
    event.writeJson(line);
    const std::string &text = line.str();
    const size_t wrote = std::fwrite(text.data(), 1, text.size(), file);
    if (wrote != text.size() || std::fputc('\n', file) == EOF) {
        ++drops;
        ++errors;
        return;
    }
    ++lines;
}

void
JsonlTraceSink::flush()
{
    if (file && std::fflush(file) != 0)
        ++errors;
}

} // namespace obs
} // namespace aiecc
