#!/usr/bin/env python3
"""Build and run the regmon repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload embedded-lpd --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and compiles perfbench/ (which pulls in the
library sources under src/) into .bench_build/perfbench; later calls
rebuild incrementally. The benchmark binary prints every metric by name
and unit and ends with one JSON line; its exit code is passed through.
Scratch files go to a private directory under .bench_build/tmp that the
binary removes at exit.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TMP = os.path.join(ROOT, ".bench_build", "tmp")
WORKLOADS = ("embedded-lpd", "durable-ingest", "recover")


def build():
    """Configure (once) and build; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    if not os.path.isfile(os.path.join(ROOT, "src", "service",
                                       "MonitorService.h")):
        print("error: regmon sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    if not build():
        print("error: build failed", file=sys.stderr)
        return 2
    os.makedirs(TMP, exist_ok=True)
    sys.stdout.flush()
    if args.self_test:
        cmd = [os.path.join(BUILD, "perfbench_selftest"), TMP]
    else:
        cmd = [os.path.join(BUILD, "regmon_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--tmp", TMP]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
