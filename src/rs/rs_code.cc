#include "rs/rs_code.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <mutex>
#include <optional>

#include "common/logging.hh"
#include "gf/poly.hh"

namespace aiecc
{

namespace
{

/** Table entries per degree: 16 low-nibble and 16 high-nibble columns. */
constexpr unsigned rowLen = 32;

/** XOR of the columns of @p count strided symbols, highest degree first. */
uint64_t
applyMap(const uint64_t *rows, unsigned topDegree, const GfElem *sym,
         unsigned count, size_t stride)
{
    const uint64_t *row = rows + static_cast<size_t>(topDegree) * rowLen;
    uint64_t acc = 0;
    // The loop is front-end bound: unrolling and a size_t index (so
    // the +16 folds into the load's displacement) cut its uops.
#pragma GCC unroll 4
    for (unsigned i = 0; i < count; ++i, row -= rowLen, sym += stride) {
        const size_t v = *sym;
        acc ^= row[v & 15] ^ row[16 + (v >> 4)];
    }
    return acc;
}

/** v's column in the row of degree @p degree: v * column(degree, 1). */
uint64_t
column(const uint64_t *rows, unsigned degree, GfElem v)
{
    const uint64_t *row = rows + static_cast<size_t>(degree) * rowLen;
    return row[v & 15] ^ row[16 + (v >> 4)];
}

static_assert(std::endian::native == std::endian::little,
              "Chien rows are read as little-endian words");

/** The 8 bytes at @p p as one word, byte 0 least significant. */
uint64_t
loadWord(const uint8_t *p)
{
    uint64_t w;
    std::memcpy(&w, p, sizeof w);
    return w;
}

/** 0x80 in each zero byte of @p w, 0 elsewhere (exact, no borrows). */
uint64_t
zeroBytes(uint64_t w)
{
    constexpr uint64_t low7 = 0x7F7F7F7F7F7F7F7FULL;
    return ~(((w & low7) + low7) | w | low7);
}

/** Scatter the low @p count bytes of @p packed to out[0], out[stride].. */
void
unpack(uint64_t packed, GfElem *out, unsigned count, size_t stride)
{
    for (unsigned j = 0; j < count; ++j, packed >>= 8)
        out[j * stride] = static_cast<GfElem>(packed);
}

} // namespace

/**
 * A symbol v at codeword degree d adds v * alpha^((1+j) d) to syndrome
 * j and v * (x^d mod g) to the parity.  Row d holds those columns for
 * the 16 low-nibble and 16 high-nibble values of v; multiplication is
 * linear over XOR, so the two entries XOR to v's column.
 */
struct RsCodec::LinearMap
{
    std::array<uint64_t, Gf256::groupOrder * rowLen> synd;
    std::array<uint64_t, Gf256::groupOrder * rowLen> parity;

    explicit LinearMap(unsigned nr)
    {
        // g(x) = prod (x - alpha^(1+j)), low-degree-first.  rem holds
        // x^d mod g highest-degree-first, the parity symbol order.
        const Gf256Poly gen = Gf256Poly::rsGenerator(nr, 1);
        GfElem rem[rsMaxRoots] = {};
        rem[nr - 1] = 1;
        GfElem pw[rsMaxRoots];
        for (unsigned d = 0; d < Gf256::groupOrder; ++d) {
            for (unsigned j = 0; j < nr; ++j)
                pw[j] = Gf256::alphaPow(static_cast<int>((1 + j) * d));
            fillRow(&synd[d * rowLen], pw, nr);
            fillRow(&parity[d * rowLen], rem, nr);

            // rem = x * rem mod g: one LFSR step with zero input.
            const GfElem top = rem[0];
            for (unsigned m = 0; m + 1 < nr; ++m)
                rem[m] = static_cast<GfElem>(
                    rem[m + 1] ^ Gf256::mul(top, gen[nr - 1 - m]));
            rem[nr - 1] = Gf256::mul(top, gen[0]);
        }
    }

    /** row[v & 15] ^ row[16 + (v >> 4)] packs v * coef[j] in byte j. */
    static void
    fillRow(uint64_t *row, const GfElem *coef, unsigned nr)
    {
        for (unsigned e = 0; e < rowLen; ++e) {
            const auto v = static_cast<GfElem>(e < 16 ? e : (e - 16) << 4);
            uint64_t packed = 0;
            for (unsigned j = 0; j < nr; ++j)
                packed |= uint64_t{Gf256::mul(v, coef[j])} << (8 * j);
            row[e] = packed;
        }
    }
};

/**
 * Lambda(X^-1) = sum_j lambda_j alpha^(-j d) at codeword degree d is
 * linear in each coefficient.  Row (j, e) holds v * alpha^(-j d) for
 * e's nibble value v (as in LinearMap) at byte 254 - d, so an RS(n, k)
 * reads its n positions, in order, from bytes [255 - n, 255).  Rows
 * serve every geometry; lambda_0 needs none.
 */
struct RsCodec::ChienMap
{
    /** 255 degrees plus padding: a word read from byte 255 - n up to
     *  position n - 1 stays inside the row for every n. */
    static constexpr unsigned rowBytes = 264;

    std::array<std::array<uint8_t, rowBytes>, rsMaxRoots * rowLen> rows{};

    ChienMap()
    {
        for (unsigned j = 1; j <= rsMaxRoots; ++j) {
            for (unsigned e = 0; e < rowLen; ++e) {
                const auto v =
                    static_cast<GfElem>(e < 16 ? e : (e - 16) << 4);
                uint8_t *r = rows[(j - 1) * rowLen + e].data();
                for (unsigned d = 0; d < Gf256::groupOrder; ++d)
                    r[Gf256::groupOrder - 1 - d] = Gf256::mul(
                        v, Gf256::alphaPow(-static_cast<int>(j * d)));
            }
        }
    }

    /** Row of coefficient @p j (1..rsMaxRoots), nibble entry @p e. */
    const uint8_t *
    row(unsigned j, unsigned e) const
    {
        return rows[(j - 1) * rowLen + e].data();
    }
};

RsCodec::RsCodec(unsigned n, unsigned k) : nLen(n), kLen(k)
{
    AIECC_ASSERT(k < n && n <= Gf256::groupOrder,
                 "invalid RS parameters n=" << n << " k=" << k);
    AIECC_ASSERT(nroots() <= rsMaxRoots,
                 "RS: more than " << rsMaxRoots << " check symbols");

    // One table set per nroots for the whole process.  The storage is
    // static (zero pages until first touched); call_once makes the
    // first construction from concurrent threads safe.
    static std::array<std::once_flag, rsMaxRoots> built;
    static std::array<std::optional<LinearMap>, rsMaxRoots> maps;
    const unsigned slot = nroots() - 1;
    std::call_once(built[slot], [slot] { maps[slot].emplace(slot + 1); });
    map = &*maps[slot];

    static std::once_flag chienBuilt;
    static std::optional<ChienMap> chienMap;
    std::call_once(chienBuilt, [] { chienMap.emplace(); });
    chien = &*chienMap;
}

uint64_t
RsCodec::syndromeWord(const GfElem *word, size_t stride) const
{
    return applyMap(map->synd.data(), nLen - 1, word, nLen, stride);
}

uint64_t
RsCodec::parityWord(const GfElem *message, size_t stride) const
{
    return applyMap(map->parity.data(), nLen - 1, message, kLen, stride);
}

void
RsCodec::parityInto(const GfElem *message, GfElem *parity) const
{
    unpack(parityWord(message, 1), parity, nroots(), 1);
}

void
RsCodec::encodeInto(const GfElem *message, GfElem *codeword) const
{
    std::copy(message, message + kLen, codeword);
    parityInto(message, codeword + kLen);
}

bool
RsCodec::isCodewordRaw(const GfElem *word) const
{
    return syndromeWord(word, 1) == 0;
}

RsCodec::Status
RsCodec::decodeInto(GfElem *received, RsWorkspace &ws,
                    uint8_t *positions, unsigned &numPositions,
                    const unsigned *erasures,
                    unsigned numErasures) const
{
    numPositions = 0;
    const uint64_t packed = syndromeWord(received, 1);
    if (packed == 0)
        return Status::Ok;
    return decodeDirty(received, packed, ws, positions, numPositions,
                       erasures, numErasures);
}

RsCodec::Status
RsCodec::decodeDirty(GfElem *received, uint64_t packed, RsWorkspace &ws,
                     uint8_t *positions, unsigned &numPositions,
                     const unsigned *erasures,
                     unsigned numErasures) const
{
    const unsigned nr = nroots();
    unpack(packed, ws.synd.data(), nr, 1);

    if (numErasures > nr)
        return Status::Uncorrectable;

    // The zero-absorbing tables make exp[lg[a] + lg[b]] exact for
    // every a and b, and exp[lg[a] + 255 - lg[b]] exact for b != 0.
    const GfElem *exp = Gf256::expTable();
    const uint16_t *lg = Gf256::logTable();
    const auto gmul = [exp, lg](GfElem a, GfElem b) -> GfElem {
        return exp[lg[a] + lg[b]];
    };

    GfElem *synd = ws.synd.data();
    GfElem *lambda = ws.lambda.data();

    // Erasure locator Gamma(x) = prod (1 + X_l x), X_l = alpha^(n-1-pos).
    std::fill(lambda, lambda + nr + 1, 0);
    lambda[0] = 1;
    for (unsigned e = 0; e < numErasures; ++e) {
        const unsigned pos = erasures[e];
        AIECC_ASSERT(pos < nLen, "RS decode: erasure out of range");
        const GfElem xl = exp[nLen - 1 - pos];
        for (unsigned i = e + 1; i >= 1; --i)
            lambda[i] =
                static_cast<GfElem>(lambda[i] ^ gmul(lambda[i - 1], xl));
    }

    // Errors-and-erasures Berlekamp-Massey (libfec-style formulation),
    // every loop bounded by the degree of what it reads: lambda[i] is
    // 0 past degL, and the correction polynomial is kept as
    // b(x) = x^shift * bq(x) with bq[i] 0 past degB, so a
    // zero-discrepancy round is just ++shift.  Lambda stays truncated
    // mod x^(nr + 1), as the full-width loops left it: a term that
    // would land past degree nr is dropped.  The syndromes are kept as
    // logs, so a discrepancy term costs one log read, not two.
    uint16_t slog[rsMaxRoots];
    for (unsigned j = 0; j < nr; ++j)
        slog[j] = lg[synd[j]];
    GfElem *bq = ws.bpoly.data();
    GfElem *t = ws.tpoly.data();
    std::copy(lambda, lambda + numErasures + 1, bq);
    unsigned degL = numErasures;
    unsigned degB = numErasures;
    unsigned shift = 0;
    unsigned el = numErasures;
    for (unsigned r = numErasures + 1; r <= nr; ++r) {
        GfElem discr = 0;
        const unsigned top = std::min(degL, r - 1);
        for (unsigned i = 0; i <= top; ++i)
            discr = static_cast<GfElem>(
                discr ^ exp[lg[lambda[i]] + slog[r - 1 - i]]);
        if (discr == 0) {
            ++shift;
            continue;
        }
        const unsigned ld = lg[discr];
        const bool lengthen = 2 * el <= r + numErasures - 1;
        const unsigned oldDegL = degL;
        if (lengthen) {
            // The next b is this round's lambda / discr: save it first.
            const unsigned linv = Gf256::groupOrder - ld;
            for (unsigned i = 0; i <= oldDegL; ++i)
                t[i] = exp[lg[lambda[i]] + linv];
        }
        // lambda -= discr * x * b: bq[i] lands at degree shift + 1 + i.
        const unsigned lo = shift + 1;
        if (lo <= nr) {
            const unsigned hi = std::min(lo + degB, nr);
            for (unsigned i = lo; i <= hi; ++i)
                lambda[i] =
                    static_cast<GfElem>(lambda[i] ^ exp[ld + lg[bq[i - lo]]]);
            degL = std::max(degL, hi);
        }
        if (lengthen) {
            el = r + numErasures - el;
            std::swap(bq, t);
            degB = oldDegL;
            shift = 0;
        } else {
            ++shift;
        }
    }

    // Degree of Lambda.
    unsigned deg = degL;
    while (deg > 0 && lambda[deg] == 0)
        --deg;
    if (deg == 0) {
        // Nonzero syndromes but no locatable error.
        return Status::Uncorrectable;
    }

    // Chien search: Lambda at the n positions, eight per word, is
    // lambda_0 in every byte XOR two Chien rows per nonzero lambda_j.
    // A degree-deg polynomial has at most deg roots, so the scan stops
    // at the deg-th; roots come out in ascending position order.
    const size_t base = Gf256::groupOrder - nLen;
    const uint8_t *terms[2 * rsMaxRoots];
    unsigned numTerms = 0;
    for (unsigned j = 1; j <= deg; ++j) {
        if (const GfElem l = lambda[j]) {
            terms[numTerms++] = chien->row(j, l & 15) + base;
            terms[numTerms++] = chien->row(j, 16 + (l >> 4)) + base;
        }
    }
    const unsigned numWords = (nLen + 7) / 8;
    const uint64_t tailMask = ~uint64_t{0} >> (8 * (8 * numWords - nLen));
    unsigned found = 0;
    for (unsigned w = 0; w < numWords && found < deg; ++w) {
        uint64_t acc = lambda[0] * 0x0101010101010101ULL;
        for (unsigned i = 0; i < numTerms; ++i)
            acc ^= loadWord(terms[i] + 8 * w);
        uint64_t roots = zeroBytes(acc);
        if (w + 1 == numWords)
            roots &= tailMask;
        for (; roots != 0 && found < deg; roots &= roots - 1) {
            const unsigned pos =
                8 * w + static_cast<unsigned>(std::countr_zero(roots)) / 8;
            ws.chien[found++] = static_cast<uint8_t>(pos);
        }
    }
    if (found != deg) {
        // Lambda has roots outside the shortened support or repeated
        // roots: a decoding failure.
        return Status::Uncorrectable;
    }

    // Omega(x) = S(x) * Lambda(x) mod x^nroots.
    GfElem *omega = ws.omega.data();
    for (unsigned i = 0; i < nr; ++i) {
        GfElem acc = 0;
        const unsigned jmax = std::min(i, deg);
        for (unsigned j = 0; j <= jmax; ++j)
            acc = static_cast<GfElem>(acc ^ gmul(lambda[j], synd[i - j]));
        omega[i] = acc;
    }

    // Forney (first root alpha^1, so the X^(1-fcr) factor is 1):
    // e = Omega(X^-1) / Lambda'(X^-1), applying
    // corrections in place and saving overwritten symbols so a failed
    // screen can restore the received word exactly.  By linearity the
    // corrected word's syndrome is the received one XOR the columns of
    // the corrections, so the screen needs no second pass.
    uint64_t screen = packed;
    unsigned applied = 0;
    const auto rollback = [&]() {
        for (unsigned u = 0; u < applied; ++u)
            received[ws.chien[u]] = ws.saved[u];
        numPositions = 0;
    };
    for (unsigned idx = 0; idx < found; ++idx) {
        const unsigned pos = ws.chien[idx];
        // c * X^-j at this position is one byte of c's Chien rows.
        const auto term = [&](unsigned j, GfElem c) -> GfElem {
            return chien->row(j, c & 15)[base + pos] ^
                   chien->row(j, 16 + (c >> 4))[base + pos];
        };
        // Lambda'(X^-1): odd-degree terms only in characteristic 2.
        GfElem den = lambda[1];
        for (unsigned j = 3; j <= deg; j += 2)
            den = static_cast<GfElem>(den ^ term(j - 1, lambda[j]));
        if (den == 0) {
            rollback();
            return Status::Uncorrectable;
        }
        GfElem num = omega[0];
        for (unsigned j = 1; j < nr; ++j)
            num = static_cast<GfElem>(num ^ term(j, omega[j]));
        const GfElem magnitude = exp[lg[num] + Gf256::groupOrder - lg[den]];
        ws.saved[applied] = received[pos];
        ++applied;
        received[pos] = static_cast<GfElem>(received[pos] ^ magnitude);
        screen ^= column(map->synd.data(), nLen - 1 - pos, magnitude);
        if (magnitude != 0)
            positions[numPositions++] = static_cast<uint8_t>(pos);
    }

    // Sanity: the corrected word must be a codeword.  When the error
    // pattern exceeds the design distance the BM/Chien pipeline can
    // produce an inconsistent "correction"; screen it out.
    if (screen != 0) {
        rollback();
        return Status::Uncorrectable;
    }

    return Status::Corrected;
}

void
RsCodec::parityBatch(const GfElem *messages, GfElem *parities,
                     unsigned lanes) const
{
    AIECC_ASSERT(lanes >= 1 && lanes <= maxLanes,
                 "RS parityBatch: bad lane count " << lanes);
    for (unsigned c = 0; c < lanes; ++c)
        unpack(parityWord(messages + c, lanes), parities + c, nroots(),
               lanes);
}

void
RsCodec::decodeBatch(GfElem *received, unsigned lanes,
                     LaneResult *results, RsWorkspace &ws) const
{
    AIECC_ASSERT(lanes >= 1 && lanes <= maxLanes,
                 "RS decodeBatch: bad lane count " << lanes);
    for (unsigned c = 0; c < lanes; ++c) {
        LaneResult &out = results[c];
        out.status = Status::Ok;
        out.numPositions = 0;
        const uint64_t packed = syndromeWord(received + c, lanes);
        if (packed == 0)
            continue;
        // De-interleave the dirty lane, run the scalar decoder, and
        // scatter any corrections back.
        GfElem *lane = ws.lane.data();
        for (unsigned i = 0; i < nLen; ++i)
            lane[i] = received[static_cast<size_t>(i) * lanes + c];
        unsigned npos = 0;
        out.status =
            decodeDirty(lane, packed, ws, out.positions.data(), npos);
        out.numPositions = static_cast<uint8_t>(npos);
        if (out.status == Status::Corrected) {
            for (unsigned i = 0; i < nLen; ++i)
                received[static_cast<size_t>(i) * lanes + c] = lane[i];
        }
    }
}

// ---- std::vector wrappers ----

std::vector<GfElem>
RsCodec::encode(const std::vector<GfElem> &message) const
{
    AIECC_ASSERT(message.size() == kLen,
                 "RS encode: message size " << message.size()
                                            << " != k " << kLen);
    std::vector<GfElem> cw(nLen);
    encodeInto(message.data(), cw.data());
    return cw;
}

std::vector<GfElem>
RsCodec::parity(const std::vector<GfElem> &message) const
{
    AIECC_ASSERT(message.size() == kLen,
                 "RS encode: message size " << message.size()
                                            << " != k " << kLen);
    std::vector<GfElem> par(nroots());
    parityInto(message.data(), par.data());
    return par;
}

bool
RsCodec::isCodeword(const std::vector<GfElem> &word) const
{
    AIECC_ASSERT(word.size() == nLen, "RS isCodeword: wrong length");
    return isCodewordRaw(word.data());
}

RsCodec::Result
RsCodec::decode(const std::vector<GfElem> &received,
                const std::vector<unsigned> &erasures) const
{
    AIECC_ASSERT(received.size() == nLen, "RS decode: wrong length");
    Result res;
    res.codeword = received;

    RsWorkspace ws;
    uint8_t positions[rsMaxRoots];
    unsigned numPositions = 0;
    res.status = decodeInto(res.codeword.data(), ws, positions,
                            numPositions, erasures.data(),
                            static_cast<unsigned>(erasures.size()));
    res.positions.assign(positions, positions + numPositions);
    return res;
}

} // namespace aiecc
