#include "gf/gf256.hh"

#include "common/logging.hh"

namespace aiecc
{

Gf256::Tables::Tables()
{
    // Enumerate powers of alpha = 0x02 under the primitive polynomial.
    unsigned x = 1;
    for (unsigned i = 0; i < groupOrder; ++i) {
        exp[i] = static_cast<GfElem>(x);
        logTab[x] = static_cast<uint16_t>(i);
        x <<= 1;
        if (x & 0x100)
            x ^= primPoly;
    }
    // Duplicate the cycle so mul() can index exp[la + lb] directly,
    // and let log(0) land in the zero tail so 0 absorbs.
    for (unsigned i = groupOrder; i < logZero; ++i)
        exp[i] = exp[i - groupOrder];
    for (unsigned i = logZero; i < exp.size(); ++i)
        exp[i] = 0;
    logTab[0] = logZero;
}

const Gf256::Tables &
Gf256::tables()
{
    static const Tables t;
    return t;
}

GfElem
Gf256::mul(GfElem a, GfElem b)
{
    const auto &t = tables();
    return t.exp[t.logTab[a] + t.logTab[b]];
}

GfElem
Gf256::div(GfElem a, GfElem b)
{
    AIECC_ASSERT(b != 0, "GF(256) division by zero");
    if (a == 0)
        return 0;
    const auto &t = tables();
    return t.exp[t.logTab[a] + groupOrder - t.logTab[b]];
}

GfElem
Gf256::inv(GfElem a)
{
    AIECC_ASSERT(a != 0, "GF(256) inverse of zero");
    const auto &t = tables();
    return t.exp[groupOrder - t.logTab[a]];
}

GfElem
Gf256::alphaPow(int power)
{
    int e = power % static_cast<int>(groupOrder);
    if (e < 0)
        e += groupOrder;
    return tables().exp[static_cast<unsigned>(e)];
}

unsigned
Gf256::log(GfElem a)
{
    AIECC_ASSERT(a != 0, "GF(256) log of zero");
    return tables().logTab[a];
}

GfElem
Gf256::pow(GfElem a, unsigned power)
{
    if (power == 0)
        return 1;
    if (a == 0)
        return 0;
    const unsigned e =
        (static_cast<unsigned long long>(log(a)) * power) % groupOrder;
    return tables().exp[e];
}

} // namespace aiecc
