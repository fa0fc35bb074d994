#!/usr/bin/env python3
"""Build and run the twin's end-to-end benchmark.

    python3 perfbench/run.py --workload cold_build|live_feed \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles the library
from ../src through the root CMakeLists.txt) into .bench_build/perfbench,
runs the self-tests, then the benchmark. The benchmark's last stdout line is
one JSON object with the run's correctness tally and metrics; build logs go
to stderr. Exits non-zero without a result when the build, the self-tests or
the run fail.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 850
SELFTEST_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170


def run_checked(cmd, timeout, stdout):
    """Run cmd to completion; on timeout kill it and wait for it to end."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                            env=clean_env())
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: timed out after {timeout} s: {cmd[0]}",
              file=sys.stderr)
        return 124
    return proc.returncode


def clean_env():
    """The library reads TSUNAMI_* / OMP_NUM_THREADS knobs (tracing, journal
    export, fault scripts, pool size); the benchmark sets what it needs
    itself, so none may leak in from the caller."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("TSUNAMI_") and k != "OMP_NUM_THREADS"}


def build(bench_dir, build_dir):
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", jobs, "--target",
         "perfbench", "perfbench_selftest"],
    ]
    for cmd in steps:
        if run_checked(cmd, BUILD_TIMEOUT_S, sys.stderr) != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold_build", "live_feed"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    bench_dir = Path(__file__).resolve().parent
    build_dir = Path.cwd() / ".bench_build" / "perfbench"
    if not build(bench_dir, build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 1
    if run_checked([str(build_dir / "perfbench_selftest")],
                   SELFTEST_TIMEOUT_S, sys.stderr) != 0:
        print("run.py: self-tests failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return run_checked(
        [str(build_dir / "perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", args.trace, "--out-dir", str(build_dir / "out")],
        RUN_TIMEOUT_S, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
