/**
 * @file
 * Figure 2 + Table I reproduction: the DDR4 CCCA pin interface and
 * the per-command bank-state / timing constraints the CSTC enforces,
 * cross-checked against the live Cstc implementation.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/table.hh"
#include "ddr4/pins.hh"
#include "ddr4/timing.hh"
#include "dram/cstc.hh"

using namespace aiecc;

namespace
{

std::string
groupName(PinGroup g)
{
    switch (g) {
      case PinGroup::CmdAdd: return "CMD/ADD";
      case PinGroup::Par: return "PAR";
      case PinGroup::Ctrl: return "CTRL";
      case PinGroup::Clock: return "CK";
    }
    return "?";
}

/** Demonstrate one Table I row with the live checker. */
void
liveRow(TextTable &t, const std::string &cmd, const std::string &state,
        const std::string &timing, bool checkerAgrees)
{
    t.row({cmd, state, timing, checkerAgrees ? "yes" : "NO"});
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = bench::parse(argc, argv);

    bench::banner("Figure 2: the DDR4 CCCA signal interface (28 pins)");
    TextTable pinsTable;
    pinsTable.header({"pin#", "signal", "group"});
    for (unsigned i = numCccaPins; i-- > 0;) {
        const Pin p = static_cast<Pin>(i);
        pinsTable.row({std::to_string(i), pinName(p),
                       groupName(pinGroup(p))});
    }
    std::printf("%s\n", pinsTable.str().c_str());

    bench::banner("Table I: commands, allowed bank state, timing "
                  "constraints");

    const Geometry geom;
    const TimingParams tp = TimingParams::ddr4_2400();

    // Validate each row against the implementation: the state column
    // is checked by probing the live CSTC.
    TextTable t;
    t.header({"command", "bank state", "timing parameters",
              "CSTC agrees"});

    {
        Cstc cstc(geom, tp);
        const bool idleOk =
            !cstc.checkFast(10000, Command::act(0, 0, 1));
        cstc.commit(10000, Command::act(0, 0, 1));
        const bool openBad =
            cstc.checkFast(20000, Command::act(0, 0, 2)) != nullptr;
        liveRow(t, "ACT", "Idle", "tRC, tRRD, tFAW, tRP, tRFC",
                idleOk && openBad);
    }
    {
        Cstc cstc(geom, tp);
        const bool idleOk =
            !cstc.checkFast(10000, Command::ref());
        cstc.commit(10000, Command::act(0, 0, 1));
        const bool openBad =
            cstc.checkFast(20000, Command::ref()) != nullptr;
        liveRow(t, "REF", "Idle", "tRRD, tFAW, tRP, tRFC",
                idleOk && openBad);
    }
    {
        Cstc cstc(geom, tp);
        const bool idleBad =
            cstc.checkFast(10000, Command::rd(0, 0, 0)) != nullptr;
        cstc.commit(10000, Command::act(0, 0, 1));
        const bool openOk =
            !cstc.checkFast(20000, Command::rd(0, 0, 0));
        liveRow(t, "RD", "Open", "tRCD, tCCD, tWTR", idleBad && openOk);
    }
    {
        Cstc cstc(geom, tp);
        const bool idleBad =
            cstc.checkFast(10000, Command::wr(0, 0, 0)) != nullptr;
        cstc.commit(10000, Command::act(0, 0, 1));
        const bool openOk =
            !cstc.checkFast(20000, Command::wr(0, 0, 0));
        liveRow(t, "WR", "Open", "tRCD, tCCD", idleBad && openOk);
    }
    {
        Cstc cstc(geom, tp);
        cstc.commit(10000, Command::act(0, 0, 1));
        const bool openOk =
            !cstc.checkFast(20000, Command::pre(0, 0));
        liveRow(t, "PRE", "Open", "tRAS, tRTP, tWR", openOk);
    }
    {
        Cstc cstc(geom, tp);
        const bool anyOk =
            !cstc.checkFast(10000, Command::nop());
        liveRow(t, "NOP", "Any", "-", anyOk);
    }
    std::printf("%s\n", t.str().c_str());

    TextTable tim;
    tim.header({"parameter", "cycles (DDR4-2400 bin)"});
    tim.row({"tRC", std::to_string(tp.tRC)});
    tim.row({"tRRD", std::to_string(tp.tRRD)});
    tim.row({"tFAW", std::to_string(tp.tFAW)});
    tim.row({"tRP", std::to_string(tp.tRP)});
    tim.row({"tRFC", std::to_string(tp.tRFC)});
    tim.row({"tRCD", std::to_string(tp.tRCD)});
    tim.row({"tCCD", std::to_string(tp.tCCD)});
    tim.row({"tWTR", std::to_string(tp.tWTR)});
    tim.row({"tRAS", std::to_string(tp.tRAS)});
    tim.row({"tRTP", std::to_string(tp.tRTP)});
    tim.row({"tWR", std::to_string(tp.tWR)});
    std::printf("%s\n", tim.str().c_str());

    bench::writeJsonArtifact(
        opt, "table1_protocol", [&](obs::JsonWriter &w) {
            w.beginObject();
            w.key("pins");
            w.beginArray();
            for (unsigned i = numCccaPins; i-- > 0;) {
                const Pin p = static_cast<Pin>(i);
                w.beginObject();
                w.kv("index", i);
                w.kv("signal", pinName(p));
                w.kv("group", groupName(pinGroup(p)));
                w.endObject();
            }
            w.endArray();
            w.key("timing_cycles");
            w.beginObject();
            w.kv("tRC", tp.tRC);
            w.kv("tRRD", tp.tRRD);
            w.kv("tFAW", tp.tFAW);
            w.kv("tRP", tp.tRP);
            w.kv("tRFC", tp.tRFC);
            w.kv("tRCD", tp.tRCD);
            w.kv("tCCD", tp.tCCD);
            w.kv("tWTR", tp.tWTR);
            w.kv("tRAS", tp.tRAS);
            w.kv("tRTP", tp.tRTP);
            w.kv("tWR", tp.tWR);
            w.endObject();
            w.endObject();
        });
    return 0;
}
