#include "rs/rs_code.hh"

#include <algorithm>
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

    const unsigned nr = nroots();
    const uint64_t packed = syndromeWord(received, 1);
    if (packed == 0)
        return Status::Ok;
    unpack(packed, ws.synd.data(), nr, 1);

    if (numErasures > nr)
        return Status::Uncorrectable;

    const GfElem *exp = Gf256::expTable();
    const uint16_t *lg = Gf256::logTable();
    const auto gmul = [exp, lg](GfElem a, GfElem b) -> GfElem {
        return (a && b)
                   ? exp[static_cast<unsigned>(lg[a]) + lg[b]]
                   : 0;
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
        for (unsigned i = nr; i >= 1; --i)
            lambda[i] =
                static_cast<GfElem>(lambda[i] ^ gmul(lambda[i - 1], xl));
    }

    // Errors-and-erasures Berlekamp-Massey (libfec-style formulation).
    GfElem *b = ws.bpoly.data();
    GfElem *t = ws.tpoly.data();
    std::copy(lambda, lambda + nr + 1, b);
    unsigned el = numErasures;
    for (unsigned r = numErasures + 1; r <= nr; ++r) {
        // Invariant: i < r <= nr inside the discrepancy sum, so both
        // lambda[i] and synd[r - i - 1] stay in bounds — the window
        // never needs narrowing.
        AIECC_ASSERT(r <= nr, "BM round " << r << " exceeds nroots");
        GfElem discr = 0;
        for (unsigned i = 0; i < r; ++i)
            discr = static_cast<GfElem>(
                discr ^ gmul(lambda[i], synd[r - i - 1]));
        if (discr == 0) {
            // b = x * b
            for (unsigned i = nr; i >= 1; --i)
                b[i] = b[i - 1];
            b[0] = 0;
        } else {
            t[0] = lambda[0];
            for (unsigned i = 0; i < nr; ++i)
                t[i + 1] =
                    static_cast<GfElem>(lambda[i + 1] ^ gmul(discr, b[i]));
            if (2 * el <= r + numErasures - 1) {
                el = r + numErasures - el;
                const GfElem dinv = Gf256::inv(discr);
                for (unsigned i = 0; i <= nr; ++i)
                    b[i] = gmul(lambda[i], dinv);
            } else {
                for (unsigned i = nr; i >= 1; --i)
                    b[i] = b[i - 1];
                b[0] = 0;
            }
            std::copy(t, t + nr + 1, lambda);
        }
    }

    // Degree of Lambda.
    int degLambda = -1;
    for (int i = static_cast<int>(nr); i >= 0; --i) {
        if (lambda[static_cast<unsigned>(i)] != 0) {
            degLambda = i;
            break;
        }
    }
    if (degLambda <= 0) {
        // Nonzero syndromes but no locatable error.
        return Status::Uncorrectable;
    }
    const unsigned deg = static_cast<unsigned>(degLambda);

    // Chien search over the n valid positions of the shortened code,
    // evaluating Lambda on the raw workspace buffer (no per-position
    // polynomial copies).
    unsigned found = 0;
    for (unsigned pos = 0; pos < nLen; ++pos) {
        // X^-1 = alpha^(255 - (n-1-pos)); exp[] covers 0..511.
        const GfElem xinv = exp[Gf256::groupOrder + 1 + pos - nLen];
        GfElem acc = lambda[deg];
        for (int j = static_cast<int>(deg) - 1; j >= 0; --j)
            acc = static_cast<GfElem>(
                gmul(acc, xinv) ^ lambda[static_cast<unsigned>(j)]);
        if (acc == 0) {
            ws.chien[found] = static_cast<uint8_t>(pos);
            ws.roots[found] = xinv;
            ++found;
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
    // screen can restore the received word exactly.
    unsigned applied = 0;
    const auto rollback = [&]() {
        for (unsigned u = 0; u < applied; ++u)
            received[ws.chien[u]] = ws.saved[u];
        numPositions = 0;
    };
    for (unsigned idx = 0; idx < found; ++idx) {
        const GfElem xinv = ws.roots[idx];
        // Lambda'(X^-1): odd-degree terms only in characteristic 2.
        const GfElem x2 = gmul(xinv, xinv);
        GfElem den = 0;
        GfElem xp = 1;
        for (unsigned j = 1; j <= deg; j += 2) {
            den = static_cast<GfElem>(den ^ gmul(lambda[j], xp));
            xp = gmul(xp, x2);
        }
        if (den == 0) {
            rollback();
            return Status::Uncorrectable;
        }
        GfElem num = omega[nr - 1];
        for (int j = static_cast<int>(nr) - 2; j >= 0; --j)
            num = static_cast<GfElem>(
                gmul(num, xinv) ^ omega[static_cast<unsigned>(j)]);
        const GfElem magnitude = Gf256::div(num, den);
        const unsigned pos = ws.chien[idx];
        ws.saved[applied] = received[pos];
        ++applied;
        received[pos] = static_cast<GfElem>(received[pos] ^ magnitude);
        if (magnitude != 0)
            positions[numPositions++] = static_cast<uint8_t>(pos);
    }

    // Sanity: the corrected word must be a codeword.  When the error
    // pattern exceeds the design distance the BM/Chien pipeline can
    // produce an inconsistent "correction"; screen it out.
    if (syndromeWord(received, 1) != 0) {
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
        if (syndromeWord(received + c, lanes) == 0)
            continue;
        // De-interleave the dirty lane, run the scalar decoder, and
        // scatter any corrections back.
        GfElem *lane = ws.lane.data();
        for (unsigned i = 0; i < nLen; ++i)
            lane[i] = received[static_cast<size_t>(i) * lanes + c];
        unsigned npos = 0;
        out.status =
            decodeInto(lane, ws, out.positions.data(), npos);
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
