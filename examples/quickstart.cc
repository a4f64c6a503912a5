/**
 * @file
 * Quickstart: build an AIECC-protected DDR4 memory system, do some
 * protected writes and reads, then watch the stack catch a CCCA
 * transmission error that data-only ECC would have silently consumed.
 *
 * Run: ./quickstart
 */

#include <cstdio>

#include "aiecc/aiecc.hh"

using namespace aiecc;

namespace
{

BitVec
payload(uint64_t tag)
{
    Rng rng(tag);
    BitVec d(Burst::dataBits);
    for (size_t i = 0; i < d.size(); i += 64)
        d.setField(i, 64, rng.next());
    return d;
}

} // namespace

int
main()
{
    // 1. Configure a protection stack.  ProtectionLevel::Aiecc wires
    //    up all four mechanisms: eDECC (QPC chipkill + address
    //    symbols), eWCRC, per-bank CSTC, and eCAP with the WRT bit.
    StackConfig config;
    config.mech = Mechanisms::forLevel(ProtectionLevel::Aiecc);
    ProtectionStack memory(config);
    std::printf("protection: %s\n\n", config.mech.describe().c_str());

    // 2. Ordinary protected traffic: write two blocks, read them back.
    const MtbAddress blockA{0, /*bg=*/0, /*ba=*/0, /*row=*/0x12,
                            /*col=*/4};
    const MtbAddress blockB{0, 0, 0, 0x12, 5};
    memory.write(blockA, payload(1));
    memory.write(blockB, payload(2));

    const auto cleanRead = memory.read(blockA);
    std::printf("clean read of %s: %s\n", blockA.toString().c_str(),
                cleanRead.data == payload(1) ? "data OK, no detections"
                                             : "UNEXPECTED");

    // 3. Now corrupt a command in flight: flip two column-address
    //    pins on the next read (2 pins, so DDR4's CA parity would be
    //    blind to it — the Figure 7 coverage hole).
    const uint64_t nextEdge = memory.controller().commandsIssued();
    memory.setPinCorruptor([nextEdge](uint64_t idx, PinWord &pins) {
        if (idx == nextEdge) {
            pins.flip(Pin::A5);
            pins.flip(Pin::A6);
        }
    });

    const auto faultyRead = memory.read(blockA);
    memory.setPinCorruptor({});

    std::printf("\nfaulty read of %s:\n", blockA.toString().c_str());
    std::printf("  detected: %s\n", faultyRead.detected ? "yes" : "no");
    for (const auto &event : memory.detections()) {
        std::printf("  mechanism: %s (%s)\n",
                    mechanismName(event.mech),
                    detectionTrace(event, memory.geometry())
                        .detailText()
                        .c_str());
        if (event.diagnosedAddress) {
            // 4. Precise diagnosis (Section IV-F): eDECC recovers the
            //    address DRAM actually used, pinpointing faulty pins.
            const auto diag = diagnoseAddress(
                blockA.pack(memory.geometry()), *event.diagnosedAddress,
                memory.geometry());
            std::printf("  diagnosis: %s\n", diag.toString().c_str());
        }
    }

    // 5. Recovery is a simple command retry: re-read cleanly.
    const auto retried = memory.read(blockA);
    std::printf("\nafter retry: %s\n",
                retried.data == payload(1) && !retried.detected
                    ? "data OK - transmission error corrected"
                    : "UNEXPECTED");
    return 0;
}
