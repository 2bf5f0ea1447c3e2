#!/usr/bin/env python3
"""Builds the perfbench program from this checkout's sources and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program is configured and built
(incrementally after the first call) under $CARGO_TARGET_DIR (default
.bench_build)/perfbench, with perfbench/CMakeLists.txt, which
compiles the engine from src/ on its own. Build output goes to stderr; the
last line of stdout is the program's JSON result. The exit code is the
program's: 0 iff every answer was correct. Without the engine sources the
configure step fails and nothing is printed on stdout.

Workloads: data_complexity, query_complexity, update_mix (see README.md).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_step(cmd):
    """Runs a build step with its output on stderr; exits 2 if it fails."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        print(f"perfbench: {' '.join(cmd)} failed ({result.returncode})",
              file=sys.stderr)
        sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    run_step(["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"])
    run_step(["cmake", "--build", build_dir, "-j", "4"])

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--digests", os.path.join(HERE, "digests.txt")]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            build_dir, f"spans-{args.workload}-{args.seed}.tsv")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
