#include "obs/trace.hh"

#include <mutex>
#include <set>

namespace aiecc
{
namespace obs
{

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
    // The form and the operands it renders, no more.
    const unsigned ops = detailOperands[static_cast<unsigned>(detail)];
    if (detail != Detail::None)
        w.kv("form", detailFormNames[static_cast<unsigned>(detail)]);
    if (ops & opWhy && why && *why)
        w.kv("why", why);
    if (ops & opCmd) {
        // The fields Command::render() prints for this type.
        const CmdType t = cmd.type;
        const bool rw = t == CmdType::Rd || t == CmdType::Wr;
        w.kv("cmd", cmdName(t));
        if (rw || t == CmdType::Act || t == CmdType::Pre)
            w.kv("bg", cmd.bg).kv("ba", cmd.ba);
        if (t == CmdType::Act)
            w.kv("row", cmd.row);
        if (rw)
            w.kv("col", cmd.col);
        if (rw && cmd.autoPrecharge)
            w.kv("ap", true);
        if (rw && cmd.burstChop)
            w.kv("bc", true);
    }
    if (ops & opAddr) {
        w.kv("rank", addr.rank).kv("bg", addr.bg).kv("ba", addr.ba);
        w.kv("row", addr.row).kv("col", addr.col);
    }
    if (ops & opPins && pins.all) {
        w.kv("pins", "all");
    } else if (ops & opPins && pins.size) {
        TextBuf list;
        for (uint8_t i = 0; i < pins.size; ++i)
            list.add(i ? "+" : "").add(pinName(pins.pins[i]));
        w.kv("pins", list.view());
    }
    if (ops & opFirst && mech)
        w.kv("first", mech);
    if (ops & opTrial && edges)
        w.kv("edges", edges);
    if (ops & opTrial && recovery)
        w.kv("recovery", recovery).kv("attempts", attempts);
    // The RAS fields.
    if (symptom != Symptom::None)
        w.kv("symptom", symptomNames[static_cast<unsigned>(symptom)]);
    if (chips)
        w.kv("chips", chips);
    if (pin >= 0)
        w.kv("pin", pin);
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
