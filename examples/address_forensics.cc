/**
 * @file
 * Address-pin forensics: two coupled CCCA traces suffer intermittent
 * crosstalk, flipping both address pins at once.  Even-weight errors
 * are invisible to CA parity (eCAP), so the glitches reach the arrays
 * — but eDECC's precise diagnosis (Section IV-F) recovers the address
 * DRAM actually used on every detection, and a handful of occurrences
 * is enough to convict the coupled pair so its delay/drive can be
 * retuned.  Without this, the paper notes, "extensive diagnostic
 * routines are required or repeated CCCA errors may impact system
 * reliability and availability."
 *
 * Run: ./address_forensics
 */

#include <cstdio>
#include <map>

#include "aiecc/aiecc.hh"

using namespace aiecc;

namespace
{

BitVec
payload(uint64_t tag)
{
    Rng rng(tag ^ 0xF0E1);
    BitVec d(Burst::dataBits);
    for (size_t i = 0; i < d.size(); i += 64)
        d.setField(i, 64, rng.next());
    return d;
}

} // namespace

int
main()
{
    // The coupled victim pair: adjacent address traces A6/A7.
    const Pin victimA = Pin::A6;
    const Pin victimB = Pin::A7;
    const double glitchRate = 0.02; // 2% of command edges

    StackConfig config;
    config.mech = Mechanisms::forLevel(ProtectionLevel::Aiecc);
    ProtectionStack memory(config);

    std::printf("simulating crosstalk between %s and %s (%.0f%% of "
                "edges) under %s\n\n",
                pinName(victimA), pinName(victimB),
                glitchRate * 100, config.mech.describe().c_str());

    Rng glitch(0xBAD50);
    memory.setPinCorruptor([&](uint64_t, PinWord &pins) {
        if (glitch.chance(glitchRate)) {
            pins.flip(victimA);
            pins.flip(victimB); // even weight: CA parity is blind
        }
    });

    // Run a few thousand random protected accesses and harvest the
    // diagnoses the stack produces.
    Rng traffic(0x7AFF1C);
    std::map<Pin, unsigned> votes;
    unsigned detections = 0, diagnosed = 0;
    const int accesses = 4000;
    for (int i = 0; i < accesses; ++i) {
        MtbAddress addr{0,
                        static_cast<unsigned>(traffic.below(4)),
                        static_cast<unsigned>(traffic.below(4)),
                        static_cast<unsigned>(traffic.below(64)),
                        static_cast<unsigned>(traffic.below(16))};
        if (traffic.chance(0.4))
            memory.write(addr, payload(addr.pack()));
        else
            memory.read(addr);

        for (const auto &event : memory.detections()) {
            ++detections;
            if (event.diagnosedAddress) {
                ++diagnosed;
                const auto diag = diagnoseAddress(
                    addr.pack(memory.geometry()),
                    *event.diagnosedAddress, memory.geometry());
                for (Pin p : diag.suspectPins)
                    ++votes[p];
            }
        }
        memory.clearDetections();
    }

    std::printf("accesses: %d, detections: %u, with precise diagnosis: "
                "%u\n\npin ballot (votes from eDECC diagnoses):\n",
                accesses, detections, diagnosed);
    for (const auto &[pin, count] : votes)
        std::printf("  %-8s %u\n", pinName(pin), count);

    // Convict the two highest-voted pins.
    Pin top1 = victimA, top2 = victimB;
    unsigned best1 = 0, best2 = 0;
    for (const auto &[pin, count] : votes) {
        if (count > best1) {
            top2 = top1;
            best2 = best1;
            top1 = pin;
            best1 = count;
        } else if (count > best2) {
            top2 = pin;
            best2 = count;
        }
    }
    const bool correct =
        best1 > 0 && best2 > 0 &&
        ((top1 == victimA && top2 == victimB) ||
         (top1 == victimB && top2 == victimA));
    std::printf("\nconvicted pair: %s + %s (%s)\n",
                pinName(top1), pinName(top2),
                correct ? "correct - retune these traces"
                        : "inconclusive");
    return correct ? 0 : 1;
}
