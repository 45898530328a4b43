#!/usr/bin/env python3
"""End-to-end kertbn pipeline benchmark.

    python3 e2ebench/run.py --workload ediamond_coarse --seed 1 \\
        --seconds 42 --trace 0
    python3 e2ebench/run.py --selftest

Run from the root of a checkout. Builds the kertbn libraries and the
benchmark (Release, from the checkout's own sources) under .bench_build/,
then runs one workload. Build output goes to standard error; the last line
of standard output is the result object. See e2ebench/NOTES.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("ediamond_coarse", "ediamond_wide", "fleet_1k")
DEFAULT_SEED = 1
# A run must end well inside the three minutes a caller allows it.
RUN_TIMEOUT_S = 170


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: kertbn sources not found at %s/src" % ROOT)
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] +
                 list(targets))
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build step failed: %s" % " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=42.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the tests of the benchmark's "
                         "arithmetic")
    args = ap.parse_args()

    if args.selftest:
        build(["e2e_arith_tests"])
        return subprocess.run(
            [os.path.join(BUILD, "e2e_arith_tests")]).returncode
    if args.workload is None:
        ap.error("--workload is required")

    build(["e2e_pipeline"])
    cmd = [os.path.join(BUILD, "e2e_pipeline"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--data-dir", os.path.join(BUILD, "data"),
           "--state-dir", os.path.join(BUILD, "state")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: %s did not finish within %d s" %
              (args.workload, RUN_TIMEOUT_S), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
