#include "aiecc/detection.hh"

#include <cstdio>

namespace aiecc
{

std::string
mechanismName(Mechanism mech)
{
    switch (mech) {
      case Mechanism::Cap: return "CAP";
      case Mechanism::ECap: return "eCAP";
      case Mechanism::Wcrc: return "WCRC";
      case Mechanism::EWcrc: return "eWCRC";
      case Mechanism::Cstc: return "CSTC";
      case Mechanism::Decc: return "DECC";
      case Mechanism::EDecc: return "eDECC";
    }
    return "?";
}

std::string
detectionText(const DetectionEvent &event, const Geometry &geom)
{
    if (const auto &alert = event.alert) {
        switch (alert->kind) {
          case AlertKind::CaParity:
            return "parity mismatch on " + alert->cmd.toString();
          case AlertKind::Wcrc:
            return "write CRC mismatch at " +
                   alert->deviceAddress.toString();
          case AlertKind::Cstc:
            return std::string(alert->why) + " (" +
                   alert->cmd.toString() + ")";
        }
    }
    if (!event.codec || !event.accessAddress)
        return "";
    std::string text = event.codec;
    text += event.corrected ? " corrected read @" : " DUE on read @";
    text += MtbAddress::unpack(*event.accessAddress, geom).toString();
    if (event.correctedChips) {
        char chips[16];
        std::snprintf(chips, sizeof(chips), " chips=%x",
                      event.correctedChips);
        text += chips;
    }
    return text;
}

obs::TraceEvent
detectionTrace(const DetectionEvent &event, const Geometry &geom)
{
    obs::TraceEvent trace;
    trace.kind = obs::EventKind::Detection;
    trace.cycle = event.when;
    trace.label = mechanismName(event.mech);
    if (event.diagnosedAddress)
        trace.value = *event.diagnosedAddress;
    else if (event.accessAddress)
        trace.value = *event.accessAddress;
    trace.detail = detectionText(event, geom);
    trace.faultId = event.faultId;
    if (event.codec) {
        trace.symptom = event.corrected ? obs::Symptom::DataCe
                                        : obs::Symptom::DataUe;
        trace.chips = event.correctedChips;
    } else {
        trace.symptom = obs::Symptom::Alert;
    }
    return trace;
}

} // namespace aiecc
