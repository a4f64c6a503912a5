/**
 * @file
 * Unit and property tests for the shortened Reed-Solomon codec,
 * parameterized over the three code geometries used by the chipkill
 * organizations in this repository.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <thread>

#include "common/rng.hh"
#include "gf/poly.hh"
#include "rs/rs_code.hh"

namespace aiecc
{
namespace
{

std::vector<GfElem>
randomMessage(Rng &rng, unsigned k)
{
    std::vector<GfElem> m(k);
    for (auto &s : m)
        s = static_cast<GfElem>(rng.below(256));
    return m;
}

TEST(RsCodec, EncodeProducesCodeword)
{
    RsCodec rs(72, 64);
    Rng rng(41);
    for (int i = 0; i < 50; ++i) {
        const auto cw = rs.encode(randomMessage(rng, 64));
        EXPECT_EQ(cw.size(), 72u);
        EXPECT_TRUE(rs.isCodeword(cw));
    }
}

TEST(RsCodec, EncodeIsSystematic)
{
    RsCodec rs(18, 16);
    Rng rng(42);
    const auto m = randomMessage(rng, 16);
    const auto cw = rs.encode(m);
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(cw[i], m[i]);
}

TEST(RsCodec, DecodeCleanWord)
{
    RsCodec rs(18, 16);
    Rng rng(43);
    const auto cw = rs.encode(randomMessage(rng, 16));
    const auto res = rs.decode(cw);
    EXPECT_EQ(res.status, RsCodec::Status::Ok);
    EXPECT_EQ(res.codeword, cw);
    EXPECT_TRUE(res.positions.empty());
}

/** Geometry parameter: (n, k). */
class RsGeometry : public ::testing::TestWithParam<std::pair<unsigned,
                                                             unsigned>>
{
};

TEST_P(RsGeometry, CorrectsUpToTErrors)
{
    const auto [n, k] = GetParam();
    RsCodec rs(n, k);
    Rng rng(44 + n);
    for (unsigned nerr = 1; nerr <= rs.t(); ++nerr) {
        for (int rep = 0; rep < 40; ++rep) {
            const auto cw = rs.encode(randomMessage(rng, k));
            auto rx = cw;
            const auto posns = rng.sample(n, nerr);
            for (unsigned p : posns)
                rx[p] ^= static_cast<GfElem>(rng.range(1, 255));
            const auto res = rs.decode(rx);
            ASSERT_EQ(res.status, RsCodec::Status::Corrected)
                << "n=" << n << " errors=" << nerr;
            EXPECT_EQ(res.codeword, cw);
            EXPECT_EQ(res.positions.size(), nerr);
        }
    }
}

TEST_P(RsGeometry, DetectsTPlus1Errors)
{
    // t+1 random errors must never be "corrected" into the original
    // word; they are either flagged uncorrectable or (rarely) alias.
    const auto [n, k] = GetParam();
    RsCodec rs(n, k);
    Rng rng(45 + n);
    int flagged = 0, aliased = 0;
    const int reps = 300;
    for (int rep = 0; rep < reps; ++rep) {
        const auto cw = rs.encode(randomMessage(rng, k));
        auto rx = cw;
        for (unsigned p : rng.sample(n, rs.t() + 1))
            rx[p] ^= static_cast<GfElem>(rng.range(1, 255));
        const auto res = rs.decode(rx);
        if (res.status == RsCodec::Status::Uncorrectable) {
            ++flagged;
        } else {
            // If decoded, it must be a valid codeword but cannot be
            // the transmitted one (distance argument).
            EXPECT_TRUE(rs.isCodeword(res.codeword));
            EXPECT_NE(res.codeword, cw);
            ++aliased;
        }
    }
    // Miscorrection of random (t+1)-error patterns is rare.
    EXPECT_GT(flagged, reps * 9 / 10);
    (void)aliased;
}

TEST_P(RsGeometry, CorrectsErasuresUpToNroots)
{
    const auto [n, k] = GetParam();
    RsCodec rs(n, k);
    Rng rng(46 + n);
    for (unsigned ners = 1; ners <= rs.nroots(); ++ners) {
        for (int rep = 0; rep < 20; ++rep) {
            const auto cw = rs.encode(randomMessage(rng, k));
            auto rx = cw;
            const auto posns = rng.sample(n, ners);
            for (unsigned p : posns)
                rx[p] ^= static_cast<GfElem>(rng.below(256)); // may be 0
            const auto res =
                rs.decode(rx, std::vector<unsigned>(posns.begin(),
                                                    posns.end()));
            ASSERT_NE(res.status, RsCodec::Status::Uncorrectable)
                << "n=" << n << " erasures=" << ners;
            EXPECT_EQ(res.codeword, cw);
        }
    }
}

TEST_P(RsGeometry, CorrectsMixedErrorsAndErasures)
{
    // 2 * errors + erasures <= nroots is correctable.
    const auto [n, k] = GetParam();
    RsCodec rs(n, k);
    Rng rng(47 + n);
    for (unsigned ners = 0; ners <= rs.nroots(); ++ners) {
        const unsigned maxErr = (rs.nroots() - ners) / 2;
        for (unsigned nerr = 0; nerr <= maxErr; ++nerr) {
            if (ners + nerr == 0 || ners + nerr > n)
                continue;
            const auto cw = rs.encode(randomMessage(rng, k));
            auto rx = cw;
            const auto posns = rng.sample(n, ners + nerr);
            std::vector<unsigned> erasures(posns.begin(),
                                           posns.begin() + ners);
            for (unsigned i = 0; i < posns.size(); ++i) {
                // Erasure positions may hold anything; error positions
                // must actually differ.
                const GfElem delta =
                    i < ners ? static_cast<GfElem>(rng.below(256))
                             : static_cast<GfElem>(rng.range(1, 255));
                rx[posns[i]] ^= delta;
            }
            const auto res = rs.decode(rx, erasures);
            ASSERT_NE(res.status, RsCodec::Status::Uncorrectable)
                << "n=" << n << " ers=" << ners << " err=" << nerr;
            EXPECT_EQ(res.codeword, cw);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    ChipkillGeometries, RsGeometry,
    ::testing::Values(std::pair<unsigned, unsigned>{18, 16},   // AMD
                      std::pair<unsigned, unsigned>{19, 17},   // AMD eDECC
                      std::pair<unsigned, unsigned>{72, 64},   // QPC Bamboo
                      std::pair<unsigned, unsigned>{76, 68},   // QPC eDECC
                      std::pair<unsigned, unsigned>{255, 247}));

TEST(RsCodec, ShorteningConsistency)
{
    // A shortened codeword zero-extended to full length must be a
    // codeword of the full-length code.
    RsCodec shortCode(72, 64);
    RsCodec fullCode(255, 247);
    Rng rng(48);
    const auto m = randomMessage(rng, 64);
    const auto cw = shortCode.encode(m);
    std::vector<GfElem> full(255 - 72, 0);
    full.insert(full.end(), cw.begin(), cw.end());
    EXPECT_TRUE(fullCode.isCodeword(full));
}

TEST(RsCodec, TooManyErasuresFlagged)
{
    RsCodec rs(18, 16);
    Rng rng(49);
    const auto cw = rs.encode(randomMessage(rng, 16));
    auto rx = cw;
    rx[0] ^= 1;
    std::vector<unsigned> erasures{0, 1, 2};  // nroots() == 2
    EXPECT_EQ(rs.decode(rx, erasures).status,
              RsCodec::Status::Uncorrectable);
}

TEST(RsCodec, SingleSymbolCodeDistance)
{
    // RS(18,16) has distance 3: every single-symbol error lands at
    // distance >= 2 from any other codeword, so correction is exact.
    RsCodec rs(18, 16);
    Rng rng(50);
    const auto cw = rs.encode(randomMessage(rng, 16));
    for (unsigned pos = 0; pos < 18; ++pos) {
        auto rx = cw;
        rx[pos] ^= 0x5A;
        const auto res = rs.decode(rx);
        ASSERT_EQ(res.status, RsCodec::Status::Corrected);
        EXPECT_EQ(res.codeword, cw);
        ASSERT_EQ(res.positions.size(), 1u);
        EXPECT_EQ(res.positions[0], pos);
    }
}

TEST(RsCodec, ReportsCorrectErrorPositions)
{
    RsCodec rs(76, 68);
    Rng rng(51);
    for (int rep = 0; rep < 50; ++rep) {
        const auto cw = rs.encode(randomMessage(rng, 68));
        auto rx = cw;
        auto posns = rng.sample(76, 4);
        for (unsigned p : posns)
            rx[p] ^= static_cast<GfElem>(rng.range(1, 255));
        auto res = rs.decode(rx);
        ASSERT_EQ(res.status, RsCodec::Status::Corrected);
        std::sort(posns.begin(), posns.end());
        auto got = res.positions;
        std::sort(got.begin(), got.end());
        EXPECT_EQ(std::vector<unsigned>(posns.begin(), posns.end()), got);
    }
}

// ---------------------------------------------------------------------
// Known-answer vectors: parity bytes for the fixed message
// m[i] = (7*i + 3) & 0xFF, cross-checked against an independent
// GF(2^8)/0x11D long-division implementation.  These pin the codec's
// conventions (alpha = 2, fcr = 1, message-first layout, position 0 =
// highest-degree coefficient) against silent drift.
// ---------------------------------------------------------------------

struct KatVector
{
    unsigned n;
    unsigned k;
    std::vector<GfElem> parity;
};

const KatVector katVectors[] = {
    {18, 16, {0x8B, 0xFA}},                                  // AMD
    {19, 17, {0xD0, 0x93}},                                  // AMD eDECC
    {72, 64, {0x14, 0x63, 0x1F, 0x5A, 0x65, 0xAE, 0x55, 0x8E}},
    {76, 68, {0xAB, 0xB9, 0x0B, 0xBA, 0xB2, 0x5A, 0xD3, 0x6A}},
};

std::vector<GfElem>
katMessage(unsigned k)
{
    std::vector<GfElem> m(k);
    for (unsigned i = 0; i < k; ++i)
        m[i] = static_cast<GfElem>((7 * i + 3) & 0xFF);
    return m;
}

TEST(RsCodecKat, ParityKnownAnswers)
{
    for (const KatVector &kat : katVectors) {
        RsCodec rs(kat.n, kat.k);
        const auto m = katMessage(kat.k);
        EXPECT_EQ(rs.parity(m), kat.parity)
            << "RS(" << kat.n << "," << kat.k << ")";

        // The allocation-free entry points must agree byte for byte.
        GfElem parity[8] = {};
        rs.parityInto(m.data(), parity);
        for (unsigned j = 0; j < rs.nroots(); ++j)
            EXPECT_EQ(parity[j], kat.parity[j]);

        GfElem codeword[76];
        rs.encodeInto(m.data(), codeword);
        for (unsigned i = 0; i < kat.k; ++i)
            EXPECT_EQ(codeword[i], m[i]);
        for (unsigned j = 0; j < rs.nroots(); ++j)
            EXPECT_EQ(codeword[kat.k + j], kat.parity[j]);
        EXPECT_TRUE(rs.isCodewordRaw(codeword));
    }
}

TEST(RsCodecKat, ParityBatchKnownAnswers)
{
    // Four interleaved lanes, each carrying the KAT message rotated by
    // the lane index; lane 0 must reproduce the known answer exactly.
    for (const KatVector &kat : katVectors) {
        RsCodec rs(kat.n, kat.k);
        const unsigned lanes = RsCodec::maxLanes;
        std::vector<GfElem> messages(kat.k * lanes);
        for (unsigned c = 0; c < lanes; ++c) {
            for (unsigned i = 0; i < kat.k; ++i) {
                messages[i * lanes + c] = static_cast<GfElem>(
                    (7 * ((i + c) % kat.k) + 3) & 0xFF);
            }
        }
        std::vector<GfElem> parities(rs.nroots() * lanes);
        rs.parityBatch(messages.data(), parities.data(), lanes);
        for (unsigned c = 0; c < lanes; ++c) {
            std::vector<GfElem> m(kat.k);
            for (unsigned i = 0; i < kat.k; ++i)
                m[i] = messages[i * lanes + c];
            const auto want = rs.parity(m);
            for (unsigned j = 0; j < rs.nroots(); ++j)
                EXPECT_EQ(parities[j * lanes + c], want[j])
                    << "RS(" << kat.n << "," << kat.k << ") lane " << c;
        }
        for (unsigned j = 0; j < rs.nroots(); ++j)
            EXPECT_EQ(parities[j * lanes], kat.parity[j]);
    }
}

// ---------------------------------------------------------------------
// Differential property tests: the std::vector API (the pre-rewrite
// call signature) against the workspace and batch entry points, over
// random error + erasure patterns including beyond-design-distance
// loads.  Status, corrected codeword, and reported positions must be
// bit-identical on every path.
// ---------------------------------------------------------------------

TEST_P(RsGeometry, DifferentialVectorVsWorkspace)
{
    const auto [n, k] = GetParam();
    RsCodec rs(n, k);
    Rng rng(52 + n);
    RsWorkspace ws;
    for (int rep = 0; rep < 300; ++rep) {
        const auto cw = rs.encode(randomMessage(rng, k));
        auto rx = cw;
        // 0..nroots+2 corruptions: spans clean, correctable, and
        // beyond-design-distance patterns; a prefix are erasures.
        const unsigned hits =
            static_cast<unsigned>(rng.below(rs.nroots() + 3));
        const auto posns = rng.sample(n, std::min(hits, n));
        const unsigned ners =
            static_cast<unsigned>(rng.below(posns.size() + 1));
        std::vector<unsigned> erasures(posns.begin(),
                                       posns.begin() + ners);
        for (unsigned i = 0; i < posns.size(); ++i) {
            const GfElem delta =
                i < ners ? static_cast<GfElem>(rng.below(256))
                         : static_cast<GfElem>(rng.range(1, 255));
            rx[posns[i]] ^= delta;
        }

        const auto ref = rs.decode(rx, erasures);

        std::vector<GfElem> raw = rx;
        uint8_t positions[8];
        unsigned numPositions = 0;
        const auto status = rs.decodeInto(
            raw.data(), ws, positions, numPositions, erasures.data(),
            static_cast<unsigned>(erasures.size()));

        ASSERT_EQ(status, ref.status) << "n=" << n << " rep=" << rep;
        if (status == RsCodec::Status::Uncorrectable) {
            // Rollback contract: the buffer holds the received word.
            EXPECT_EQ(raw, rx);
        } else {
            EXPECT_EQ(raw, ref.codeword);
        }
        ASSERT_EQ(numPositions, ref.positions.size());
        for (unsigned i = 0; i < numPositions; ++i)
            EXPECT_EQ(positions[i], ref.positions[i]);
    }
}

TEST_P(RsGeometry, DifferentialVectorVsBatch)
{
    const auto [n, k] = GetParam();
    RsCodec rs(n, k);
    Rng rng(53 + n);
    RsWorkspace ws;
    const unsigned lanes = RsCodec::maxLanes;
    for (int rep = 0; rep < 150; ++rep) {
        std::vector<std::vector<GfElem>> rx(lanes);
        std::vector<GfElem> interleaved(n * lanes);
        for (unsigned c = 0; c < lanes; ++c) {
            rx[c] = rs.encode(randomMessage(rng, k));
            const unsigned hits =
                static_cast<unsigned>(rng.below(rs.nroots() + 3));
            for (unsigned p : rng.sample(n, std::min(hits, n)))
                rx[c][p] ^= static_cast<GfElem>(rng.range(1, 255));
            for (unsigned i = 0; i < n; ++i)
                interleaved[i * lanes + c] = rx[c][i];
        }

        RsCodec::LaneResult lanesOut[RsCodec::maxLanes];
        rs.decodeBatch(interleaved.data(), lanes, lanesOut, ws);

        for (unsigned c = 0; c < lanes; ++c) {
            const auto ref = rs.decode(rx[c]);
            ASSERT_EQ(lanesOut[c].status, ref.status)
                << "n=" << n << " rep=" << rep << " lane=" << c;
            ASSERT_EQ(lanesOut[c].numPositions, ref.positions.size());
            for (unsigned i = 0; i < lanesOut[c].numPositions; ++i)
                EXPECT_EQ(lanesOut[c].positions[i], ref.positions[i]);
            for (unsigned i = 0; i < n; ++i) {
                const GfElem want =
                    ref.status == RsCodec::Status::Uncorrectable
                        ? rx[c][i]
                        : ref.codeword[i];
                EXPECT_EQ(interleaved[i * lanes + c], want);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Differential tests against plain reference arithmetic: syndromes by
// Horner evaluation at alpha^1 .. alpha^nroots and parity by the
// generator-division LFSR, both on Gf256::mul alone, so they share no
// table with the codec's linear maps.
// ---------------------------------------------------------------------

/** S_j = r(alpha^(1+j)), position 0 the highest-degree coefficient. */
std::vector<GfElem>
hornerSyndromes(const std::vector<GfElem> &word, unsigned nroots)
{
    std::vector<GfElem> synd(nroots);
    for (unsigned j = 0; j < nroots; ++j) {
        const GfElem x = Gf256::alphaPow(static_cast<int>(1 + j));
        GfElem acc = 0;
        for (GfElem s : word)
            acc = static_cast<GfElem>(Gf256::mul(acc, x) ^ s);
        synd[j] = acc;
    }
    return synd;
}

bool
hornerIsCodeword(const std::vector<GfElem> &word, unsigned nroots)
{
    const auto synd = hornerSyndromes(word, nroots);
    return std::all_of(synd.begin(), synd.end(),
                       [](GfElem s) { return s == 0; });
}

/** Remainder of m(x) x^nroots by g(x), highest degree first. */
std::vector<GfElem>
lfsrParity(const std::vector<GfElem> &message, unsigned nroots)
{
    const Gf256Poly gen = Gf256Poly::rsGenerator(nroots, 1);
    std::vector<GfElem> par(nroots, 0);
    for (GfElem m : message) {
        const GfElem fb = static_cast<GfElem>(m ^ par[0]);
        for (unsigned i = 0; i + 1 < nroots; ++i)
            par[i] = static_cast<GfElem>(
                par[i + 1] ^ Gf256::mul(fb, gen[nroots - 1 - i]));
        par[nroots - 1] = Gf256::mul(fb, gen[0]);
    }
    return par;
}

TEST_P(RsGeometry, DifferentialAgainstHornerReference)
{
    const auto [n, k] = GetParam();
    RsCodec rs(n, k);
    Rng rng(54 + n);
    RsWorkspace ws;
    for (int rep = 0; rep < 200; ++rep) {
        const auto msg = randomMessage(rng, k);
        const auto par = lfsrParity(msg, rs.nroots());
        std::vector<GfElem> got(rs.nroots());
        rs.parityInto(msg.data(), got.data());
        ASSERT_EQ(got, par) << "n=" << n << " rep=" << rep;

        auto cw = msg;
        cw.insert(cw.end(), par.begin(), par.end());
        ASSERT_TRUE(hornerIsCodeword(cw, rs.nroots()));

        // Clean on even reps, else 1..nroots+2 corrupted symbols.
        const unsigned hits =
            rep % 2 ? 1 + static_cast<unsigned>(
                              rng.below(rs.nroots() + 2))
                    : 0;
        auto rx = cw;
        auto posns = rng.sample(n, hits);
        for (unsigned p : posns)
            rx[p] ^= static_cast<GfElem>(rng.range(1, 255));
        std::sort(posns.begin(), posns.end());

        const bool clean = hornerIsCodeword(rx, rs.nroots());
        EXPECT_EQ(rs.isCodewordRaw(rx.data()), clean);

        auto buf = rx;
        uint8_t positions[rsMaxRoots];
        unsigned numPositions = 0;
        const auto status =
            rs.decodeInto(buf.data(), ws, positions, numPositions);
        const std::vector<unsigned> reported(positions,
                                             positions + numPositions);
        if (clean) {
            EXPECT_EQ(status, RsCodec::Status::Ok);
            EXPECT_TRUE(reported.empty());
        } else if (hits <= rs.t()) {
            // Within the design distance the answer is unique.
            ASSERT_EQ(status, RsCodec::Status::Corrected)
                << "n=" << n << " hits=" << hits;
            EXPECT_EQ(buf, cw);
            EXPECT_EQ(reported,
                      std::vector<unsigned>(posns.begin(), posns.end()));
        } else if (status == RsCodec::Status::Corrected) {
            // A miscorrection must still land on a reference codeword
            // within t symbols of the received word.
            EXPECT_TRUE(hornerIsCodeword(buf, rs.nroots()));
            EXPECT_LE(numPositions, rs.t());
            for (unsigned i = 0; i < n; ++i) {
                const bool moved = buf[i] != rx[i];
                EXPECT_EQ(moved, std::count(reported.begin(),
                                            reported.end(), i) == 1);
            }
        } else {
            EXPECT_EQ(status, RsCodec::Status::Uncorrectable);
            EXPECT_EQ(buf, rx);
            EXPECT_TRUE(reported.empty());
        }
    }
}

// ---------------------------------------------------------------------
// Reference dirty-path decoder: the codec's decoder as it stood before
// its word-level rewrite, on plain Gf256 arithmetic.  Horner
// syndromes, errors-and-erasures Berlekamp-Massey, a per-position
// Horner Chien search over every position, Forney by Horner, and a
// full re-syndrome screen.  The codec's Chien rows, table-driven
// Forney and incremental screen must reproduce it exactly.
// ---------------------------------------------------------------------

struct ReferenceDecode
{
    RsCodec::Status status = RsCodec::Status::Ok;
    std::vector<unsigned> positions;
    /** The corrected word, or the received word when uncorrectable. */
    std::vector<GfElem> word;
};

ReferenceDecode
referenceDecode(const std::vector<GfElem> &received, unsigned nr,
                const std::vector<unsigned> &erasures)
{
    const auto n = static_cast<unsigned>(received.size());
    ReferenceDecode out;
    out.word = received;
    const std::vector<GfElem> synd = hornerSyndromes(received, nr);
    if (std::all_of(synd.begin(), synd.end(),
                    [](GfElem s) { return s == 0; }))
        return out;
    out.status = RsCodec::Status::Uncorrectable;
    const auto numErasures = static_cast<unsigned>(erasures.size());
    if (numErasures > nr)
        return out;

    std::vector<GfElem> lambda(nr + 1, 0);
    lambda[0] = 1;
    for (unsigned pos : erasures) {
        const GfElem xl = Gf256::alphaPow(static_cast<int>(n - 1 - pos));
        for (unsigned i = nr; i >= 1; --i)
            lambda[i] ^= Gf256::mul(lambda[i - 1], xl);
    }

    std::vector<GfElem> b = lambda;
    std::vector<GfElem> t(nr + 1);
    unsigned el = numErasures;
    for (unsigned r = numErasures + 1; r <= nr; ++r) {
        GfElem discr = 0;
        for (unsigned i = 0; i < r; ++i)
            discr ^= Gf256::mul(lambda[i], synd[r - i - 1]);
        if (discr == 0) {
            b.insert(b.begin(), 0);
            b.pop_back();
            continue;
        }
        t[0] = lambda[0];
        for (unsigned i = 0; i < nr; ++i)
            t[i + 1] = lambda[i + 1] ^ Gf256::mul(discr, b[i]);
        if (2 * el <= r + numErasures - 1) {
            el = r + numErasures - el;
            for (unsigned i = 0; i <= nr; ++i)
                b[i] = Gf256::div(lambda[i], discr);
        } else {
            b.insert(b.begin(), 0);
            b.pop_back();
        }
        lambda = t;
    }

    unsigned deg = nr;
    while (deg > 0 && lambda[deg] == 0)
        --deg;
    if (deg == 0)
        return out;

    std::vector<unsigned> roots;
    for (unsigned pos = 0; pos < n; ++pos) {
        const GfElem xinv =
            Gf256::alphaPow(-static_cast<int>(n - 1 - pos));
        GfElem acc = lambda[deg];
        for (unsigned j = deg; j-- > 0;)
            acc = Gf256::mul(acc, xinv) ^ lambda[j];
        if (acc == 0)
            roots.push_back(pos);
    }
    if (roots.size() != deg)
        return out;

    std::vector<GfElem> omega(nr, 0);
    for (unsigned i = 0; i < nr; ++i)
        for (unsigned j = 0; j <= std::min(i, deg); ++j)
            omega[i] ^= Gf256::mul(lambda[j], synd[i - j]);

    std::vector<GfElem> word = received;
    std::vector<unsigned> positions;
    for (unsigned pos : roots) {
        const GfElem xinv =
            Gf256::alphaPow(-static_cast<int>(n - 1 - pos));
        const GfElem x2 = Gf256::mul(xinv, xinv);
        GfElem den = 0;
        GfElem xp = 1;
        for (unsigned j = 1; j <= deg; j += 2) {
            den ^= Gf256::mul(lambda[j], xp);
            xp = Gf256::mul(xp, x2);
        }
        if (den == 0)
            return out;
        GfElem num = omega[nr - 1];
        for (unsigned j = nr - 1; j-- > 0;)
            num = Gf256::mul(num, xinv) ^ omega[j];
        const GfElem magnitude = Gf256::div(num, den);
        word[pos] ^= magnitude;
        if (magnitude != 0)
            positions.push_back(pos);
    }
    if (!hornerIsCodeword(word, nr))
        return out;
    out.status = RsCodec::Status::Corrected;
    out.positions = positions;
    out.word = word;
    return out;
}

TEST_P(RsGeometry, DirtyDecodeMatchesReference)
{
    const auto [n, k] = GetParam();
    RsCodec rs(n, k);
    const unsigned nr = rs.nroots();
    Rng rng(55 + n);
    RsWorkspace ws;
    unsigned checked = 0;
    const auto check = [&](const std::vector<GfElem> &rx,
                           const std::vector<unsigned> &erasures) {
        const ReferenceDecode ref = referenceDecode(rx, nr, erasures);
        std::vector<GfElem> buf = rx;
        uint8_t positions[rsMaxRoots];
        unsigned numPositions = 0;
        const auto status = rs.decodeInto(
            buf.data(), ws, positions, numPositions, erasures.data(),
            static_cast<unsigned>(erasures.size()));
        ASSERT_EQ(status, ref.status)
            << "n=" << n << " case " << checked << " erasures "
            << erasures.size();
        ASSERT_EQ(numPositions, ref.positions.size());
        EXPECT_TRUE(std::equal(ref.positions.begin(), ref.positions.end(),
                               positions));
        EXPECT_EQ(buf, ref.word);
        ++checked;
    };
    // Corrupt @p count positions of a fresh codeword, the first
    // @p ners of them erased (their deltas may be 0).
    const auto corrupt = [&](unsigned count, unsigned ners) {
        auto rx = rs.encode(randomMessage(rng, k));
        const auto posns = rng.sample(n, count);
        for (unsigned i = 0; i < count; ++i)
            rx[posns[i]] ^= i < ners
                                ? static_cast<GfElem>(rng.below(256))
                                : static_cast<GfElem>(rng.range(1, 255));
        check(rx, std::vector<unsigned>(posns.begin(), posns.begin() + ners));
    };

    // Symbol errors up to two past the parity count.
    for (unsigned nerr = 1; nerr <= nr + 2; ++nerr)
        for (int rep = 0; rep < 40; ++rep)
            corrupt(nerr, 0);
    // Fully random words.
    for (int rep = 0; rep < 200; ++rep) {
        std::vector<GfElem> rx(n);
        for (GfElem &s : rx)
            s = static_cast<GfElem>(rng.below(256));
        check(rx, {});
    }
    // Erasures alone, then erasures plus errors up to two past the
    // correctable split.
    for (unsigned ners = 1; ners <= nr; ++ners) {
        for (int rep = 0; rep < 20; ++rep)
            corrupt(ners, ners);
        for (unsigned nerr = 1; nerr <= (nr - ners) / 2 + 2; ++nerr)
            for (int rep = 0; rep < 10; ++rep)
                corrupt(std::min(ners + nerr, n), ners);
    }
    // Table III's error shapes (DataMonteCarlo), each alone and with
    // one more symbol error outside it:
    //  0. Chip1: one x4 chip's four adjacent pin symbols overwritten
    //     with random values (an aligned 4-symbol block);
    //  1. the eDECC-t address-bit mask: 16 consecutive symbols XORed
    //     by one byte;
    //  2. an address error: random deltas on the four symbols just
    //     below k, which in RS(76, 68) are the address symbols 64..67.
    const auto shaped = [&](unsigned shape, bool plusOne) {
        auto rx = rs.encode(randomMessage(rng, k));
        std::vector<bool> hit(n, false);
        const auto touch = [&](unsigned first, unsigned count) {
            for (unsigned i = first; i < first + count; ++i)
                hit[i] = true;
        };
        switch (shape) {
          case 0: {
            const auto first = static_cast<unsigned>(4 * rng.below(n / 4));
            for (unsigned i = first; i < first + 4; ++i)
                rx[i] = static_cast<GfElem>(rng.below(256));
            touch(first, 4);
            break;
          }
          case 1: {
            const auto first = static_cast<unsigned>(rng.below(n - 15));
            const auto mask = static_cast<GfElem>(rng.range(1, 255));
            for (unsigned i = first; i < first + 16; ++i)
                rx[i] ^= mask;
            touch(first, 16);
            break;
          }
          default: {
            const auto delta =
                static_cast<uint32_t>(rng.range(1, 0xFFFFFFFFULL));
            for (unsigned i = 0; i < 4; ++i)
                rx[k - 4 + i] ^= static_cast<GfElem>(delta >> (8 * i));
            touch(k - 4, 4);
            break;
          }
        }
        if (plusOne) {
            unsigned pos;
            do {
                pos = static_cast<unsigned>(rng.below(n));
            } while (hit[pos]);
            rx[pos] ^= static_cast<GfElem>(rng.range(1, 255));
        }
        check(rx, {});
    };
    for (unsigned shape = 0; shape < 3; ++shape)
        for (const bool plusOne : {false, true})
            for (int rep = 0; rep < 100; ++rep)
                shaped(shape, plusOne);
    EXPECT_GT(checked, 0u);
}

TEST(RsCodecThreads, ConcurrentFirstUseMatchesKat)
{
    // Run as its own process so the shared tables are still unbuilt
    // when the threads start; under TSan this checks the first-use
    // construction is race-free.
    constexpr unsigned numThreads = 4;
    const KatVector *kats[] = {&katVectors[0], &katVectors[2],
                               &katVectors[3]};
    std::latch start(numThreads);
    bool matched[numThreads][3] = {};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < numThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            for (unsigned i = 0; i < 3; ++i) {
                // Rotate the order so threads race on different
                // geometries first.
                const KatVector &kat = *kats[(i + t) % 3];
                const RsCodec rs(kat.n, kat.k);
                const auto message = katMessage(kat.k);
                GfElem parity[rsMaxRoots] = {};
                rs.parityInto(message.data(), parity);
                // A dirty decode reads the shared Chien rows too.
                std::vector<GfElem> word = message;
                word.insert(word.end(), kat.parity.begin(),
                            kat.parity.end());
                std::vector<GfElem> rx = word;
                rx[(i + t) % kat.n] ^= 0x5A;
                RsWorkspace ws;
                uint8_t positions[rsMaxRoots];
                unsigned numPositions = 0;
                const auto status = rs.decodeInto(rx.data(), ws, positions,
                                                  numPositions);
                matched[t][(i + t) % 3] =
                    std::equal(kat.parity.begin(), kat.parity.end(),
                               parity) &&
                    status == RsCodec::Status::Corrected && rx == word;
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    for (unsigned t = 0; t < numThreads; ++t)
        for (unsigned i = 0; i < 3; ++i)
            EXPECT_TRUE(matched[t][i])
                << "thread " << t << " RS(" << kats[i]->n << ","
                << kats[i]->k << ")";
}

} // namespace
} // namespace aiecc
