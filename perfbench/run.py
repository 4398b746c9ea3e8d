#!/usr/bin/env python3
"""StrideProf benchmark entry point (see perfbench/BENCHMARK.md).

    python3 perfbench/run.py --workload repro --seed 0 --seconds 15 --trace 0

Run from the repository root. Builds the benchmark program
(perfbench/CMakeLists.txt, which compiles ../src) into $CARGO_TARGET_DIR,
or .bench_build when unset, then runs it. A traced run (--trace 1) also
leaves its spans in spans-<workload>-seed<seed>.json there. Build output
goes to stderr; the program's stdout is passed through unchanged, so its
last line is the JSON result. Exits nonzero without a result when the
build or the run fails.
"""

import argparse
import multiprocessing
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Seed 0 reproduces the paper tables (the repro workload checks it); seed 7
# is held out for validating later performance claims.
WORKLOADS = ("repro", "profile-naive", "trace-replay")


def build(build_dir):
    jobs = str(min(multiprocessing.cpu_count(), 4))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, *generator,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    work_dir = os.path.join(build_dir, f"work-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir, f"spans-{args.workload}-seed{args.seed}.json")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
