#include "aiecc/detection.hh"

namespace aiecc
{

const char *
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

obs::TraceEvent
detectionTrace(const DetectionEvent &event, const Geometry &geom)
{
    obs::TraceEvent trace{.kind = obs::EventKind::Detection,
                          .symptom = obs::Symptom::Alert,
                          .cycle = event.when,
                          .faultId = event.faultId,
                          .label = mechanismName(event.mech)};
    if (event.diagnosedAddress)
        trace.value = *event.diagnosedAddress;
    else if (event.accessAddress)
        trace.value = *event.accessAddress;
    if (const auto &alert = event.alert) {
        // Only the facts the detail renders: what a recorded trace
        // gives back.
        switch (alert->kind) {
          case AlertKind::CaParity:
            trace.detail = obs::Detail::CaParity;
            trace.cmd = alert->cmd;
            break;
          case AlertKind::Wcrc:
            trace.detail = obs::Detail::Wcrc;
            trace.addr = alert->deviceAddress;
            break;
          case AlertKind::Cstc:
            trace.detail = obs::Detail::Cstc;
            trace.why = alert->why;
            trace.cmd = alert->cmd;
            break;
        }
    }
    if (event.codec) {
        trace.symptom = event.corrected ? obs::Symptom::DataCe
                                        : obs::Symptom::DataUe;
        trace.chips = event.correctedChips;
        if (!event.alert && event.accessAddress) {
            trace.detail = event.corrected ? obs::Detail::ReadCe
                                           : obs::Detail::ReadDue;
            trace.why = event.codec;
            trace.addr = MtbAddress::unpack(*event.accessAddress, geom);
        }
    }
    return trace;
}

} // namespace aiecc
