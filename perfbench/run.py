#!/usr/bin/env python3
"""Build and run the serving-system benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload steady_gamma --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds the benchmark program (and the
serving-system libraries it links) from source into .bench_build/;
later calls rebuild incrementally. Build output goes to stderr, so
stdout carries only the benchmark's listing, whose last line is the
JSON result. The exit code is the program's (0 = every check passed).
See perfbench/METRICS.md for workloads, metrics and the traced run.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(target):
    """Configure once, then build @target incrementally."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "serving_system.h")):
        fail("serving-system sources not found under " + os.path.join(ROOT, "src"))
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="burst, steady_gamma or pipeline")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    if args.selftest:
        sys.stdout.flush()
        return subprocess.run([build("perfbench_selftest")]).returncode
    if args.workload is None:
        parser.error("--workload is required")

    cmd = [build("perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
