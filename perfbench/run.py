#!/usr/bin/env python3
"""Builds the perfbench driver from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload erp_reporting --seed 1 \
        --seconds 10 --trace 0

The driver is built with CMake into .bench_build/perfbench (or
$CARGO_TARGET_DIR/perfbench when that is set) on first use; later runs only
re-check the build. Build output goes to stderr. The driver's stdout is
passed through; its last line is the result JSON. With --trace 1 the span
trace is written to <build dir>/traces/<workload>.json.

Exit status: the driver's (0 when every output was correct), 1 when the
build fails or the driver times out, 2 on bad arguments.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("erp_reporting", "chbench_wide", "erp_ingest")
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        os.getcwd(), ".bench_build")
    return os.path.join(os.path.abspath(root), "perfbench")


def driver_path():
    return os.path.join(build_dir(), "perfbench_driver")


def build():
    """Configures (once) and builds the driver. Returns True on success."""
    out = build_dir()
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    env = {k: v for k, v in os.environ.items() if not k.startswith("AGGCACHE_")}
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: build step failed: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return False
    return os.path.exists(driver_path())


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in [1, 600]")

    if not build():
        return 1
    command = [driver_path(), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace == 1:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, args.workload + ".json")]
    # Engine switches read from the environment (span recording, metric
    # dumpers, WAL, thread count) stay at their defaults: off.
    env = {k: v for k, v in os.environ.items() if not k.startswith("AGGCACHE_")}
    sys.stdout.flush()
    with subprocess.Popen(command, env=env) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("perfbench: driver timed out", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
