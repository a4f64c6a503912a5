#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload clean_mix --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/ under the repository root and is
incremental.  Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result.  Exits non-zero, without a result, when
the build fails.

The benchmark runs with address-space randomization off: the heap
layout otherwise changes from run to run, and with it the cost of the
page faults that every InjectionCampaign trial takes on its two fresh
stacks, which spreads throughput and tail latency across runs.
"""

import ctypes
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def fixed_layout():
    """Turn off address-space randomization for the child (best effort)."""
    addr_no_randomize = 0x0040000
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | addr_no_randomize)


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "perfbench")
    return subprocess.run([binary] + sys.argv[1:],
                          preexec_fn=fixed_layout).returncode


if __name__ == "__main__":
    sys.exit(main())
