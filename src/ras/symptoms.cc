#include "ras/health.hh"

namespace aiecc
{
namespace ras
{

void
symptomsFromText(obs::TraceEvent &event)
{
    using obs::EventKind;
    using obs::Symptom;
    const auto says = [&](const char *text) {
        return event.detail.find(text) != std::string::npos;
    };
    switch (event.kind) {
      case EventKind::Detection:
        // label = mechanism name.  DECC/eDECC are data-path symptoms
        // with address evidence; standalone data-codec engines (the
        // Table III Monte-Carlo) tag theirs "data-ecc" in the detail;
        // the rest are alert families.
        if (event.label != "DECC" && event.label != "eDECC" &&
            !says("data-ecc")) {
            event.symptom = Symptom::Alert;
            break;
        }
        event.symptom = says(" DUE") ? Symptom::DataUe : Symptom::DataCe;
        // The corrected chips, as the " chips=<hex>" suffix.
        if (const size_t at = event.detail.find(" chips=");
            at != std::string::npos) {
            for (size_t i = at + 7; i < event.detail.size(); ++i) {
                const char c = event.detail[i];
                const bool dec = c >= '0' && c <= '9';
                if (!dec && !(c >= 'a' && c <= 'f'))
                    break;
                event.chips = event.chips << 4 | (dec ? c - '0' : c - 'a' + 10);
            }
        }
        break;

      case EventKind::Diagnosis:
        // label = the suspect CA pin's name.
        for (unsigned i = 0; i < numCccaPins; ++i) {
            if (pinName(static_cast<Pin>(i)) == event.label) {
                event.pin = static_cast<int>(i);
                break;
            }
        }
        break;

      case EventKind::Recovery:
        if (says("exhausted"))
            event.symptom = Symptom::Exhausted;
        break;

      case EventKind::Escalation:
        if (event.label == "quarantine")
            event.symptom = Symptom::Quarantine;
        break;

      default:
        break;
    }
}

} // namespace ras
} // namespace aiecc
