#include "aiecc/diagnosis.hh"


namespace aiecc
{

namespace
{

/** Pin that carries row-address bit i during an ACT command. */
Pin
rowBitPin(unsigned i)
{
    static constexpr Pin pins[18] = {
        Pin::A0, Pin::A1, Pin::A2, Pin::A3, Pin::A4, Pin::A5, Pin::A6,
        Pin::A7, Pin::A8, Pin::A9, Pin::A10_AP, Pin::A11, Pin::A12_BC,
        Pin::A13, Pin::WE_A14, Pin::CAS_A15, Pin::RAS_A16, Pin::A17,
    };
    return pins[i];
}

/** Pin that carries MTB-column bit i during a RD/WR command. */
Pin
colBitPin(unsigned i)
{
    // MTB column bit i is burst-column bit i + 3 (A3.. for BL8 blocks).
    static constexpr Pin pins[7] = {
        Pin::A3, Pin::A4, Pin::A5, Pin::A6, Pin::A7, Pin::A8, Pin::A9,
    };
    return pins[i];
}

/** The CCCA pin that carries MTB-address bit @p bit. */
Pin
addressBitPin(unsigned bit, const Geometry &geom)
{
    // Map address fields back to the pins that carried them.
    const unsigned colLo = 0;
    const unsigned rowLo = colLo + geom.mtbColBits();
    const unsigned baLo = rowLo + geom.rowBits;
    const unsigned bgLo = baLo + geom.baBits;
    if (bit < rowLo)
        return colBitPin(bit - colLo);
    if (bit < baLo)
        return rowBitPin(bit - rowLo);
    if (bit < bgLo)
        return (bit - baLo) == 0 ? Pin::BA0 : Pin::BA1;
    if (bit < bgLo + geom.bgBits)
        return (bit - bgLo) == 0 ? Pin::BG0 : Pin::BG1;
    // Rank bits map to per-rank chip selects; report CS.
    return Pin::CS;
}

} // namespace

obs::PinList
suspectPins(uint32_t intended, uint32_t observed, const Geometry &geom)
{
    obs::PinList pins;
    for (unsigned bit = 0; bit < 32; ++bit) {
        if ((intended ^ observed) >> bit & 1)
            pins.add(addressBitPin(bit, geom));
    }
    return pins;
}

AddressDiagnosis
diagnoseAddress(uint32_t intended, uint32_t observed, const Geometry &geom)
{
    AddressDiagnosis diag;
    diag.intended = intended;
    diag.observed = observed;
    for (unsigned bit = 0; bit < 32; ++bit) {
        if ((intended ^ observed) >> bit & 1)
            diag.faultyBits.push_back(bit);
    }
    const obs::PinList pins = suspectPins(intended, observed, geom);
    diag.suspectPins.assign(pins.pins, pins.pins + pins.size);
    return diag;
}

obs::TraceEvent
diagnosisTrace(uint32_t intended, uint32_t observed, const Geometry &geom)
{
    obs::TraceEvent trace{.kind = obs::EventKind::Diagnosis,
                          .detail = obs::Detail::Diagnosis,
                          .value = static_cast<uint64_t>(intended) << 32 |
                                   observed,
                          .label = "?",
                          .pins = suspectPins(intended, observed, geom)};
    if (trace.pins.size) {
        trace.label = pinName(trace.pins.pins[0]);
        trace.pin = static_cast<int>(trace.pins.pins[0]);
    }
    return trace;
}

std::string
AddressDiagnosis::toString() const
{
    obs::TraceEvent trace{.detail = obs::Detail::Diagnosis,
                          .value = static_cast<uint64_t>(intended) << 32 |
                                   observed};
    for (Pin pin : suspectPins)
        trace.pins.push(pin);
    return trace.detailText();
}

} // namespace aiecc
