/**
 * @file
 * google-benchmark microbenchmarks for the coding substrates: RS
 * encode/decode at the chipkill geometries, eDECC encode/decode, CRC
 * generation, burst marshaling, the pin-level command codec and the
 * never-written fill.
 * Supports the §V-D claim that eDECC adds no meaningful latency to the
 * decode path.
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "aiecc/edecc.hh"
#include "aiecc/stack.hh"
#include "common/rng.hh"
#include "ddr4/command.hh"
#include "dram/rank.hh"
#include "ecc/amd.hh"
#include "ecc/qpc.hh"
#include "rs/rs_code.hh"

namespace aiecc
{
namespace
{

BitVec
randomData(Rng &rng)
{
    BitVec d(Burst::dataBits);
    for (size_t i = 0; i < d.size(); i += 64)
        d.setField(i, 64, rng.next());
    return d;
}

void
BM_RsEncode(benchmark::State &state)
{
    const unsigned n = static_cast<unsigned>(state.range(0));
    const unsigned k = static_cast<unsigned>(state.range(1));
    RsCodec rs(n, k);
    Rng rng(1);
    std::vector<GfElem> msg(k);
    for (auto &s : msg)
        s = static_cast<GfElem>(rng.below(256));
    for (auto _ : state) {
        benchmark::DoNotOptimize(rs.encode(msg));
    }
}
BENCHMARK(BM_RsEncode)->Args({18, 16})->Args({19, 17})
    ->Args({72, 64})->Args({76, 68});

void
BM_RsEncodeInto(benchmark::State &state)
{
    // The allocation-free hot path the ECC organizations actually run.
    const unsigned n = static_cast<unsigned>(state.range(0));
    const unsigned k = static_cast<unsigned>(state.range(1));
    RsCodec rs(n, k);
    Rng rng(1);
    std::vector<GfElem> msg(k);
    for (auto &s : msg)
        s = static_cast<GfElem>(rng.below(256));
    GfElem cw[255];
    for (auto _ : state) {
        rs.encodeInto(msg.data(), cw);
        benchmark::DoNotOptimize(cw[n - 1]);
    }
}
BENCHMARK(BM_RsEncodeInto)->Args({18, 16})->Args({19, 17})
    ->Args({72, 64})->Args({76, 68});

void
BM_RsParityBatch(benchmark::State &state)
{
    // All four MTB codewords in one interleaved call (AMD geometries).
    const unsigned n = static_cast<unsigned>(state.range(0));
    const unsigned k = static_cast<unsigned>(state.range(1));
    RsCodec rs(n, k);
    Rng rng(1);
    const unsigned lanes = RsCodec::maxLanes;
    std::vector<GfElem> msgs(k * lanes);
    for (auto &s : msgs)
        s = static_cast<GfElem>(rng.below(256));
    std::vector<GfElem> parities((n - k) * lanes);
    for (auto _ : state) {
        rs.parityBatch(msgs.data(), parities.data(), lanes);
        benchmark::DoNotOptimize(parities.data());
    }
}
BENCHMARK(BM_RsParityBatch)->Args({18, 16})->Args({19, 17});

void
BM_RsDecodeClean(benchmark::State &state)
{
    const unsigned n = static_cast<unsigned>(state.range(0));
    const unsigned k = static_cast<unsigned>(state.range(1));
    RsCodec rs(n, k);
    Rng rng(2);
    std::vector<GfElem> msg(k);
    for (auto &s : msg)
        s = static_cast<GfElem>(rng.below(256));
    const auto cw = rs.encode(msg);
    for (auto _ : state) {
        benchmark::DoNotOptimize(rs.decode(cw));
    }
}
BENCHMARK(BM_RsDecodeClean)->Args({18, 16})->Args({19, 17})
    ->Args({72, 64})->Args({76, 68});

void
BM_RsDecodeInto(benchmark::State &state)
{
    const unsigned n = static_cast<unsigned>(state.range(0));
    const unsigned k = static_cast<unsigned>(state.range(1));
    const unsigned nerr = static_cast<unsigned>(state.range(2));
    RsCodec rs(n, k);
    Rng rng(2);
    std::vector<GfElem> msg(k);
    for (auto &s : msg)
        s = static_cast<GfElem>(rng.below(256));
    auto cw = rs.encode(msg);
    for (unsigned p : rng.sample(n, nerr))
        cw[p] ^= static_cast<GfElem>(rng.range(1, 255));
    RsWorkspace ws;
    GfElem buf[255];
    uint8_t positions[8];
    for (auto _ : state) {
        std::memcpy(buf, cw.data(), n);
        unsigned numPositions = 0;
        benchmark::DoNotOptimize(
            rs.decodeInto(buf, ws, positions, numPositions));
    }
}
BENCHMARK(BM_RsDecodeInto)->Args({18, 16, 0})->Args({19, 17, 0})
    ->Args({72, 64, 0})->Args({76, 68, 0})->Args({72, 64, 4})
    ->Args({76, 68, 4});

void
BM_RsDecodeDirty(benchmark::State &state)
{
    // The dirty path as the ECC organizations run it: decodeInto() on
    // a reused workspace, cycling through a fixed pool of codewords
    // with 1..t symbol errors and fully random words (mostly
    // uncorrectable), each restored before its decode.
    const unsigned n = static_cast<unsigned>(state.range(0));
    const unsigned k = static_cast<unsigned>(state.range(1));
    RsCodec rs(n, k);
    Rng rng(11);
    constexpr unsigned poolSize = 64;
    std::vector<std::vector<GfElem>> pool(poolSize);
    for (unsigned i = 0; i < poolSize; ++i) {
        std::vector<GfElem> msg(k);
        for (auto &s : msg)
            s = static_cast<GfElem>(rng.below(256));
        auto &w = pool[i] = rs.encode(msg);
        const unsigned nerr = 1 + i % (rs.t() + 1);
        if (nerr > rs.t()) {
            for (auto &s : w)
                s = static_cast<GfElem>(rng.below(256));
        } else {
            for (unsigned p : rng.sample(n, nerr))
                w[p] ^= static_cast<GfElem>(rng.range(1, 255));
        }
    }
    RsWorkspace ws;
    GfElem buf[255];
    uint8_t positions[8];
    unsigned i = 0;
    for (auto _ : state) {
        std::memcpy(buf, pool[i].data(), n);
        i = (i + 1) % poolSize;
        unsigned numPositions = 0;
        benchmark::DoNotOptimize(
            rs.decodeInto(buf, ws, positions, numPositions));
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_RsDecodeDirty)->Args({72, 64})->Args({76, 68});

void
BM_RsDecodeBatch(benchmark::State &state)
{
    const unsigned n = static_cast<unsigned>(state.range(0));
    const unsigned k = static_cast<unsigned>(state.range(1));
    const unsigned nerr = static_cast<unsigned>(state.range(2));
    RsCodec rs(n, k);
    Rng rng(2);
    const unsigned lanes = RsCodec::maxLanes;
    std::vector<GfElem> interleaved(n * lanes);
    for (unsigned c = 0; c < lanes; ++c) {
        std::vector<GfElem> msg(k);
        for (auto &s : msg)
            s = static_cast<GfElem>(rng.below(256));
        auto cw = rs.encode(msg);
        for (unsigned p : rng.sample(n, nerr))
            cw[p] ^= static_cast<GfElem>(rng.range(1, 255));
        for (unsigned i = 0; i < n; ++i)
            interleaved[i * lanes + c] = cw[i];
    }
    std::vector<GfElem> buf(n * lanes);
    RsWorkspace ws;
    RsCodec::LaneResult results[RsCodec::maxLanes];
    for (auto _ : state) {
        std::memcpy(buf.data(), interleaved.data(), n * lanes);
        rs.decodeBatch(buf.data(), lanes, results, ws);
        benchmark::DoNotOptimize(results[0].status);
    }
}
BENCHMARK(BM_RsDecodeBatch)->Args({18, 16, 0})->Args({19, 17, 0})
    ->Args({18, 16, 1})->Args({19, 17, 1});

void
BM_RsDecodeErrors(benchmark::State &state)
{
    const unsigned n = static_cast<unsigned>(state.range(0));
    const unsigned k = static_cast<unsigned>(state.range(1));
    const unsigned nerr = static_cast<unsigned>(state.range(2));
    RsCodec rs(n, k);
    Rng rng(3);
    std::vector<GfElem> msg(k);
    for (auto &s : msg)
        s = static_cast<GfElem>(rng.below(256));
    auto cw = rs.encode(msg);
    for (unsigned p : rng.sample(n, nerr))
        cw[p] ^= static_cast<GfElem>(rng.range(1, 255));
    for (auto _ : state) {
        benchmark::DoNotOptimize(rs.decode(cw));
    }
}
BENCHMARK(BM_RsDecodeErrors)->Args({72, 64, 4})->Args({76, 68, 4});

void
BM_QpcEncode(benchmark::State &state)
{
    QpcEcc qpc;
    Rng rng(4);
    const BitVec d = randomData(rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(qpc.encode(d, 0));
    }
}
BENCHMARK(BM_QpcEncode);

void
BM_EDeccQpcEncode(benchmark::State &state)
{
    EDeccQpc edecc;
    Rng rng(5);
    const BitVec d = randomData(rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(edecc.encode(d, 0xDEADBEEF));
    }
}
BENCHMARK(BM_EDeccQpcEncode);

void
BM_QpcDecodeClean(benchmark::State &state)
{
    QpcEcc qpc;
    Rng rng(6);
    const Burst b = qpc.encode(randomData(rng), 0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(qpc.decode(b, 0));
    }
}
BENCHMARK(BM_QpcDecodeClean);

void
BM_EDeccQpcDecodeClean(benchmark::State &state)
{
    // The §V-D latency claim: eDECC decode tracks QPC decode.
    EDeccQpc edecc;
    Rng rng(7);
    const Burst b = edecc.encode(randomData(rng), 0xDEADBEEF);
    for (auto _ : state) {
        benchmark::DoNotOptimize(edecc.decode(b, 0xDEADBEEF));
    }
}
BENCHMARK(BM_EDeccQpcDecodeClean);

void
BM_AmdDecodeClean(benchmark::State &state)
{
    AmdChipkillEcc amd;
    Rng rng(8);
    const Burst b = amd.encode(randomData(rng), 0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(amd.decode(b, 0));
    }
}
BENCHMARK(BM_AmdDecodeClean);

void
BM_Wcrc(benchmark::State &state)
{
    // The eWCRC of one write, as the controller generates it and the
    // device checks it: 18 chip lanes plus the shared address term.
    Rng rng(9);
    Burst b;
    b.randomize(rng);
    const uint32_t addr = static_cast<uint32_t>(rng.next());
    for (auto _ : state)
        benchmark::DoNotOptimize(laneCrcs(b, WcrcMode::DataAddress, addr));
}
BENCHMARK(BM_Wcrc);

void
BM_BurstData(benchmark::State &state)
{
    // Burst <-> payload marshaling: data() then setData() round trip.
    Rng rng(10);
    Burst b;
    b.randomize(rng);
    for (auto _ : state) {
        const BitVec d = b.data();
        b.setData(d);
        benchmark::DoNotOptimize(b);
    }
}
BENCHMARK(BM_BurstData);

void
BM_CommandCodec(benchmark::State &state)
{
    const auto cmd = Command::act(2, 3, 0x1ABCD);
    for (auto _ : state) {
        auto pins = encodeCommand(cmd);
        benchmark::DoNotOptimize(decodeCommand(pins));
    }
}
BENCHMARK(BM_CommandCodec);

void
BM_NeverWrittenFill(benchmark::State &state)
{
    // A never-written read's content on an AIECC stack: the fill's
    // payload laid straight into the burst, then the eDECC-c encode.
    StackConfig cfg;
    cfg.mech = Mechanisms::forLevel(ProtectionLevel::Aiecc);
    const ProtectionStack stack(cfg);
    const Geometry &geom = stack.geometry();
    uint32_t i = 0;
    for (auto _ : state) {
        const MtbAddress addr =
            MtbAddress::unpack(i++ * 0x9E3779B1u, geom);
        benchmark::DoNotOptimize(stack.rank().peek(addr));
    }
}
BENCHMARK(BM_NeverWrittenFill);

} // namespace
} // namespace aiecc

/**
 * Custom main: accept the suite-wide --json PATH flag by translating
 * it into google-benchmark's own JSON file output, and pass every
 * other argument through untouched.
 */
int
main(int argc, char **argv)
{
    std::vector<char *> args;
    std::vector<std::string> storage;
    args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
            storage.push_back(std::string("--benchmark_out=") +
                              argv[++i]);
            storage.push_back("--benchmark_out_format=json");
        } else {
            args.push_back(argv[i]);
        }
    }
    for (auto &s : storage)
        args.push_back(s.data());
    int count = static_cast<int>(args.size());
    benchmark::Initialize(&count, args.data());
    if (benchmark::ReportUnrecognizedArguments(count, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
