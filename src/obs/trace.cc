#include "obs/trace.hh"

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
TraceEvent::writeJson(JsonWriter &w) const
{
    w.beginObject()
        .kv("kind", eventKindNameView(kind))
        .kv("cycle", cycle);
    if (!label.empty())
        w.kv("label", label);
    if (value)
        w.kv("value", value);
    if (!detail.empty())
        w.kv("detail", detail);
    if (faultId)
        w.kv("fault", faultId);
    w.endObject();
}

JsonlTraceSink::JsonlTraceSink(const std::string &path)
    : file(std::fopen(path.c_str(), "w"))
{
    // Sized up front so that lines recorded later, inside profiling
    // scopes, never grow it: an event is one flat object, and few
    // lines come near 1 KiB.
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
