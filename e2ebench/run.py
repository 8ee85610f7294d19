#!/usr/bin/env python3
"""Builds churnlab_e2e from this checkout and runs one workload.

    python3 e2ebench/run.py --workload durable_bulk --seed 1 --seconds 12 \
        --trace 0 [--out DIR]

Run from the root of a churnlab checkout. The build goes to
$CARGO_TARGET_DIR, or .bench_build, and its output to stderr, so the last
line of standard output is the benchmark's JSON summary. Results land in
DIR (default .bench_out/<workload>[-trace]).
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Configure and build together, then one run: the first run in a checkout
# stays under 900 s and every later one under 180 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def build(build_dir):
    if not os.path.exists(os.path.join(ROOT, "src", "churnlab.h")):
        sys.exit("run.py: no churnlab sources next to e2ebench/ "
                 "(expected src/churnlab.h); nothing to build")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "e2ebench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "churnlab_e2e",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr,
        timeout=max(1.0, deadline - time.monotonic()))
    return os.path.join(build_dir, "bench", "churnlab_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        sys.exit("run.py: build failed: %s" % e)

    out = args.out or os.path.join(
        ROOT, ".bench_out", args.workload + ("-trace" if args.trace else ""))
    command = [binary, "--workload=" + args.workload,
               "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
               "--out=" + out]
    if args.trace:
        command.append("--trace")
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
