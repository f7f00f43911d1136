#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md beside this file).

    python3 ukbench/run.py --workload split_io --seed 1 --seconds 20 --trace 0
    python3 ukbench/run.py --selftest

Run from the repository root. The first run configures and builds the
simulator libraries and the ukbench driver into $CARGO_TARGET_DIR (default
.bench_build); later runs only check that build is up to date. Build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
WORKLOADS = ("lifecycle", "syscall_ctl", "split_io", "observed")


def fail(message):
    print(f"ukbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not (REPO_ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {REPO_ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the build tree too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "ukbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    binary = build_dir / "ukbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own self-tests instead")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    binary = build(build_dir)
    sys.stdout.flush()

    if args.selftest:
        command = [str(binary), "selftest"]
    else:
        command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace == 1:
            span_dir = build_dir / "spans"
            span_dir.mkdir(parents=True, exist_ok=True)
            command += ["--span-dir", str(span_dir)]
    sys.exit(subprocess.run(command, check=False).returncode)


if __name__ == "__main__":
    main()
