#include "ddr4/pins.hh"

#include <sstream>

#include "common/bits.hh"

namespace aiecc
{

PinGroup
pinGroup(Pin pin)
{
    const unsigned idx = static_cast<unsigned>(pin);
    if (idx <= 22)
        return PinGroup::CmdAdd;
    if (idx == 23)
        return PinGroup::Par;
    if (idx <= 26)
        return PinGroup::Ctrl;
    return PinGroup::Clock;
}

const char *
pinName(Pin pin)
{
    switch (pin) {
      case Pin::A0: return "A0";
      case Pin::A1: return "A1";
      case Pin::A2: return "A2";
      case Pin::A3: return "A3";
      case Pin::A4: return "A4";
      case Pin::A5: return "A5";
      case Pin::A6: return "A6";
      case Pin::A7: return "A7";
      case Pin::A8: return "A8";
      case Pin::A9: return "A9";
      case Pin::A10_AP: return "A10/AP";
      case Pin::A11: return "A11";
      case Pin::A13: return "A13";
      case Pin::A17: return "A17";
      case Pin::A12_BC: return "A12/BC";
      case Pin::BA0: return "BA0";
      case Pin::BA1: return "BA1";
      case Pin::BG0: return "BG0";
      case Pin::BG1: return "BG1";
      case Pin::WE_A14: return "WE/A14";
      case Pin::CAS_A15: return "CAS/A15";
      case Pin::RAS_A16: return "RAS/A16";
      case Pin::ACT: return "ACT";
      case Pin::PAR: return "PAR";
      case Pin::ODT: return "ODT";
      case Pin::CS: return "CS";
      case Pin::CKE: return "CKE";
      case Pin::CK: return "CK";
    }
    return "?";
}

std::vector<Pin>
injectablePins(bool includePar)
{
    std::vector<Pin> pins;
    for (unsigned i = 0; i < numCccaPins; ++i) {
        const Pin p = static_cast<Pin>(i);
        if (p == Pin::CK)
            continue; // CK errors are modeled as all-pin noise
        if (p == Pin::PAR && !includePar)
            continue;
        pins.push_back(p);
    }
    return pins;
}

bool
PinWord::cmdAddParity() const
{
    return parity(levels & mask(numCmdAddPins));
}

std::string
PinWord::toString() const
{
    std::ostringstream out;
    for (unsigned i = numCccaPins; i-- > 0;) {
        const Pin p = static_cast<Pin>(i);
        out << pinName(p) << "=" << (get(p) ? 1 : 0);
        if (i)
            out << " ";
    }
    return out.str();
}

} // namespace aiecc
