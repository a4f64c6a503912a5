/**
 * @file
 * Tests for the checkpoint state layouts (obs/state.hh).
 *
 * Golden fixtures: five crash checkpoints written by the benches
 * before the state types shared one layout each.  Every section must
 * parse into its type and serialize back to the same bytes, so any
 * change to a layout's byte form fails here.  The fixtures were cut
 * with AIECC_CHECKPOINT_BATCH_SHARDS=1 and AIECC_CRASH_AFTER_SHARD=N:
 *
 *   checkpoint_table2.ckpt  N=2  bench_table2_impact --health --jobs 4
 *   checkpoint_table3.ckpt  N=2  bench_table3_data --quick --health
 *                                --jobs 4 --trials 40
 *   checkpoint_gddr5.ckpt   N=2  bench_gddr5_extension --health --jobs 4
 *   checkpoint_fig7.ckpt    N=5  bench_fig7_coverage --quick --health
 *                                --jobs 4
 *   checkpoint_e2e.ckpt     N=4  bench_e2e_throughput --trials 50000
 *                                --fault-rate 0.0005 --jobs 4
 *
 * Together they carry all twelve state types (Histogram inside the
 * stats, profile and pass sections, SlidingWindow inside ras).  The
 * e2e pass:N and profile sections hold wall-clock figures: a fresh
 * run writes other numbers in the same form.
 *
 * Mutations: seeded truncations, dropped, duplicated and replaced
 * tokens of every fixture section must end in a reader error or a
 * successful parse — never an abort.
 */

#include <functional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench_state.hh"
#include "common/checkpoint.hh"
#include "gddr5/campaign.hh"
#include "inject/campaign.hh"
#include "inject/montecarlo.hh"
#include "obs/cost.hh"
#include "obs/lineage.hh"
#include "obs/profile.hh"
#include "obs/state.hh"
#include "obs/stats.hh"
#include "obs/timeseries.hh"
#include "ras/health.hh"

namespace aiecc
{
namespace
{

using Text = std::function<std::string(const std::string &)>;

/** One state type's two entry points over a section payload. */
struct Codec
{
    /** deserializeState() then serializeState() (panics when bad). */
    Text roundTrip;
    /** The bare reader: "" on success, else its error. */
    Text parse;
};

template <class T, class Write, class Read>
Codec
codec(Write write, Read read)
{
    return {[=](const std::string &text) {
                T obj;
                read(obj, text);
                return write(obj);
            },
            [](const std::string &text) {
                T obj;
                return obs::readState(obj, text);
            }};
}

template <class T>
Codec
codec()
{
    return codec<T>([](const T &obj) { return obj.serializeState(); },
                    [](T &obj, const std::string &text) {
                        obj.deserializeState(text);
                    });
}

Codec
gridCodec()
{
    const CommandPattern pattern = CommandPattern::ActWr;
    return {[=](const std::string &text) {
                bench::Grid grid;
                bench::deserializeGridColumn(grid, pattern, text);
                return bench::serializeGridColumn(grid, pattern);
            },
            [=](const std::string &text) {
                bench::Grid grid;
                bench::GridColumn<bench::Grid> col{grid, pattern};
                return obs::readState(col, text);
            }};
}

struct Fixture
{
    const char *file;
    std::vector<std::pair<std::string, Codec>> sections;
};

std::vector<Fixture>
fixtures()
{
    const Codec campaign = codec<CampaignStats>();
    const Codec cell = codec<MonteCarloCell>();
    const Codec gddr5 = codec<gddr5::Gddr5Stats>();
    const Codec lineage = codec<obs::LineageLedger>();
    const Codec health = codec<ras::HealthMonitor>();
    const Codec stats = codec<obs::StatsRegistry>();
    const Codec profile = codec<obs::ProfileRegistry>();
    const Codec cost = codec<obs::CostAccountant>(
        [](const obs::CostAccountant &c) { return c.serialize(); },
        [](obs::CostAccountant &c, const std::string &text) {
            c.deserializeState(text);
        });
    const Codec pass = codec<bench::PassResult>(
        [](const bench::PassResult &p) { return bench::serializePass(p); },
        [](bench::PassResult &p, const std::string &text) {
            bench::deserializePass(p, text);
        });
    const Codec grid = gridCodec();
    return {
        {"checkpoint_table2.ckpt",
         {{"cost:aiecc", cost},
          {"cost:none", cost},
          {"grid:0", grid},
          {"grid:1", grid},
          {"grid:2", grid},
          {"grid:3", grid},
          {"grid:4", grid},
          {"lineage", lineage},
          {"ras", health},
          {"stats:none", campaign}}},
        {"checkpoint_table3.ckpt",
         {{"cell:0", cell},
          {"cost:0", cost},
          {"cost:1", cost},
          {"cost:2", cost},
          {"cost:3", cost},
          {"lineage", lineage},
          {"ras", health}}},
        {"checkpoint_gddr5.ckpt", {{"ras", health}, {"stats:0", gddr5}}},
        {"checkpoint_fig7.ckpt",
         {{"cell:0", campaign},
          {"cost:0", cost},
          {"cost:1", cost},
          {"cost:2", cost},
          {"cost:3", cost},
          {"ras", health}}},
        {"checkpoint_e2e.ckpt",
         {{"cost", cost},
          {"lineage", lineage},
          {"pass:0", pass},
          {"pass:1", pass},
          {"profile", profile},
          {"ras", health},
          {"stats", stats}}},
    };
}

CampaignCheckpoint
loadFixture(const char *file)
{
    CampaignCheckpoint ckpt;
    const auto load =
        ckpt.loadFile(std::string(AIECC_TEST_DATA_DIR) + "/" + file);
    EXPECT_TRUE(load.ok) << file << ": " << load.error;
    return ckpt;
}

TEST(StateGolden, EverySectionRoundTripsToTheFixtureBytes)
{
    for (const Fixture &fx : fixtures()) {
        const CampaignCheckpoint ckpt = loadFixture(fx.file);
        // Every section but the bench's "cursor" is listed.
        EXPECT_EQ(ckpt.sectionCount(), fx.sections.size() + 1) << fx.file;
        for (const auto &[name, codec] : fx.sections) {
            ASSERT_TRUE(ckpt.has(name)) << fx.file << ": " << name;
            const std::string &text = ckpt.get(name);
            EXPECT_EQ(codec.roundTrip(text), text)
                << fx.file << ": section " << name;
        }
    }
}

/** Tokens of @p text with the separator that follows each. */
std::vector<std::pair<std::string, char>>
tokenize(const std::string &text)
{
    std::vector<std::pair<std::string, char>> out;
    std::string cur;
    for (const char c : text) {
        if (c == ' ' || c == '\n') {
            out.emplace_back(cur, c);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        out.emplace_back(cur, '\0');
    return out;
}

std::string
join(const std::vector<std::pair<std::string, char>> &tokens)
{
    std::string out;
    for (const auto &[tok, sep] : tokens) {
        out += tok;
        if (sep)
            out += sep;
    }
    return out;
}

/** One seeded mutation of @p text. */
std::string
mutate(const std::string &text, std::mt19937_64 &rng)
{
    static const char *garbage[] = {
        "",   "-1", "18446744073709551616", "99999999999999999999999",
        "zz", "1e3", "0x10", "4294967296", "7", "3", "counts", "a..b",
        "stack", "ffffffffffffffffff", "+1", "2147483648"};
    auto tokens = tokenize(text);
    if (tokens.empty())
        return "x";
    const size_t at = rng() % tokens.size();
    switch (rng() % 5) {
    case 0:
        return text.substr(0, rng() % (text.size() + 1));
    case 1:
        tokens.erase(tokens.begin() + at);
        break;
    case 2:
        tokens.insert(tokens.begin() + at, {tokens[at].first, ' '});
        break;
    case 3:
        tokens[at].first = garbage[rng() % std::size(garbage)];
        break;
    default:
        if (!tokens[at].first.empty())
            tokens[at].first[rng() % tokens[at].first.size()] ^=
                static_cast<char>(1u << (rng() % 7));
        break;
    }
    return join(tokens);
}

TEST(StateMutation, DamagedSectionsEndInReaderErrorsNotAborts)
{
    std::mt19937_64 rng(0x5747e);
    uint64_t rejected = 0, accepted = 0;
    for (const Fixture &fx : fixtures()) {
        const CampaignCheckpoint ckpt = loadFixture(fx.file);
        for (const auto &[name, codec] : fx.sections) {
            ASSERT_EQ(codec.parse(ckpt.get(name)), "")
                << fx.file << ": " << name;
            for (unsigned i = 0; i < 200; ++i) {
                const std::string damaged = mutate(ckpt.get(name), rng);
                if (!codec.parse(damaged).empty()) {
                    ++rejected;
                    continue;
                }
                // What the reader accepts, the writer re-emits in a
                // form the reader accepts again.
                ++accepted;
                EXPECT_EQ(codec.parse(codec.roundTrip(damaged)), "")
                    << fx.file << ": " << name << " <- " << damaged;
            }
        }
    }
    EXPECT_GT(rejected, accepted);
}

// ---- the archive pair ------------------------------------------------

TEST(StateWriter, SpacesTokensAndEndsLinesWhereTheLayoutSays)
{
    obs::StateWriter w;
    w.tag("head")(uint64_t{1}, 2u, int64_t{-3}).endl();
    w.line("a site name");
    w(0.5, true).below(CommandPattern::Pre, 5);
    EXPECT_EQ(w.str(), "head 1 2 -3\na site name\n3fe0000000000000 1 4");
}

TEST(StateReader, ParsesWhatTheWriterWrote)
{
    obs::StateReader r("head 1 2 -3\na site name\n3fe0000000000000 1 4");
    uint64_t a = 0;
    unsigned b = 0;
    int64_t c = 0;
    std::string line;
    double d = 0.0;
    bool f = false;
    CommandPattern pattern = CommandPattern::ActWr;
    r.tag("head")(a, b, c).endl();
    r.line(line);
    r(d, f).below(pattern, 5);
    r.finish();
    EXPECT_EQ(r.error(), "");
    EXPECT_EQ(a, 1u);
    EXPECT_EQ(b, 2u);
    EXPECT_EQ(c, -3);
    EXPECT_EQ(line, "a site name");
    EXPECT_EQ(d, 0.5);
    EXPECT_TRUE(f);
    EXPECT_EQ(pattern, CommandPattern::Pre);
}

std::string
campaignError(const std::string &text)
{
    CampaignStats s;
    return obs::readState(s, text);
}

TEST(StateReader, NamesWhatIsWrongWithTheInput)
{
    const std::string good = "counts 1 1 0 1 0 0 0 0\n"
                             "recovery 0 0 0 0 0\n"
                             "detectors 1\n6 1\n";
    EXPECT_EQ(campaignError(good), "");
    EXPECT_NE(campaignError("count 1 1 0 1 0 0 0 0\n")
                  .find("expected 'counts'"),
              std::string::npos);
    EXPECT_NE(campaignError("counts 1 1 0 1 0 0 0\n")
                  .find("missing field"),
              std::string::npos);
    EXPECT_NE(campaignError("counts 4294967296 1 0 1 0 0 0 0\n")
                  .find("bad number"),
              std::string::npos);
    EXPECT_NE(campaignError("counts 1 1 0 1 0 0 0 0\nrecovery 0 0 0 0 0\n"
                            "detectors 1\n7 1\n")
                  .find("out of range"),
              std::string::npos);
    EXPECT_NE(campaignError(good.substr(0, good.size() - 3))
                  .find("truncated"),
              std::string::npos);
    EXPECT_NE(campaignError(good + "x").find("trailing bytes"),
              std::string::npos);

    obs::Histogram h;
    EXPECT_NE(obs::readState(h, "1 xyz 0 0").find("bad number"),
              std::string::npos);
}

TEST(StateReader, HugeCountFailsBeforeAllocating)
{
    obs::LineageLedger ledger;
    EXPECT_NE(obs::readState(ledger, "sites 99999999999999\nA0\n")
                  .find("exceeds the input"),
              std::string::npos);
    ras::HealthMonitor mon;
    std::string form = mon.serializeState();
    const size_t at = form.find("log 0");
    ASSERT_NE(at, std::string::npos);
    form.replace(at, 5, "log 1000000000000");
    EXPECT_NE(obs::readState(mon, form).find("exceeds the input"),
              std::string::npos);
}

TEST(StateReader, RejectsStatNamesBeforeRegistration)
{
    const auto statsError = [](const std::string &counters,
                               const std::string &scalars) {
        obs::StatsRegistry reg;
        return obs::readState(reg, counters + scalars + "histograms 0\n");
    };
    EXPECT_EQ(statsError("counters 1\na.b 1\n", "scalars 0\n"), "");
    EXPECT_NE(statsError("counters 1\na..b 1\n", "scalars 0\n")
                  .find("empty component"),
              std::string::npos);
    EXPECT_NE(statsError("counters 1\na/b 1\n", "scalars 0\n")
                  .find("invalid character"),
              std::string::npos);
    EXPECT_NE(statsError("counters 2\nstack 1\nstack.x 1\n", "scalars 0\n")
                  .find("already names a leaf"),
              std::string::npos);
    EXPECT_NE(statsError("counters 1\na 1\n", "scalars 1\na 0\n")
                  .find("different kind"),
              std::string::npos);
}

TEST(StateReader, ChecksGeometryAgainstTheConfiguration)
{
    ras::HealthConfig narrow;
    narrow.bucketCycles = 1024;
    ras::HealthMonitor mon(narrow);
    const std::string form = ras::HealthMonitor().serializeState();
    EXPECT_NE(obs::readState(mon, form).find("geometry/config mismatch"),
              std::string::npos);
}

TEST(StateReaderDeathTest, DeserializeStatePanicsWithTheReaderMessage)
{
    obs::StatsRegistry reg;
    EXPECT_DEATH(reg.deserializeState("counters 1\na..b 1\n"),
                 "bad checkpoint state: at byte [0-9]+: empty component");
}

} // namespace
} // namespace aiecc
