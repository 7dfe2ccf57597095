#!/usr/bin/env python3
"""Builds and runs the host-time benchmark (see README.md).

Run from the repository root:

    python3 hostbench/run.py --workload crowd_forensics --seed 1 \
        --seconds 30 --trace 0

Builds hostbench/ (and the simulator sources it compiles) with CMake
into $CARGO_TARGET_DIR/hostbench (default .bench_build/hostbench), then
runs the driver once for the metrics. With --trace 0 it also launches
the driver SETUP_SPAWNS times in set-up-only mode, half before the
measured run and half after, and adds setup_s, the median time from
spawning the process to its first call into the run function. The last
line of stdout is the result JSON.
Exits 2 without a result when the sources or the build are missing.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SETUP_SPAWNS = 21
RUN_TIMEOUT_S = 170


def run(cmd, timeout):
    """Runs cmd to completion (killing it on timeout); returns (rc, out)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, ""
    return proc.returncode, out


def build(build_dir):
    """Configures once, then builds incrementally; logs go to stderr."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "hostbench", "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", "4",
                  "--target", "hostbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb-digest", action="store_true",
                        help="self-test: the gate must fail every run")
    args = parser.parse_args()

    for needed in ("src/CMakeLists.txt", "scenarios/flash_crowd.scn",
                   "hostbench/CMakeLists.txt"):
        if not os.path.exists(needed):
            print(f"run.py: {needed} missing; run from the repository "
                  "root", file=sys.stderr)
            return 2
    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "hostbench")
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir, "hostbench")
    base = [binary, "--workload", args.workload, "--seed", str(args.seed)]
    setup = []

    def time_setups(count):
        """Appends the set-up time of count set-up-only processes."""
        if args.trace != 0:
            return True
        for _ in range(count):
            spawn_ns = time.monotonic_ns()
            rc, out = run(base + ["--setup-only", "--spawn-ns",
                                  str(spawn_ns)], RUN_TIMEOUT_S)
            if rc != 0:
                print("run.py: set-up failed", file=sys.stderr)
                return False
            setup.append(float(out.split()[-1]))
        return True

    # Half the set-up processes run before the measured run and half
    # after it, so their median spans the machine's state over the run.
    if not time_setups(SETUP_SPAWNS - SETUP_SPAWNS // 2):
        return 2

    cmd = base + ["--seconds", str(args.seconds), "--trace",
                  str(args.trace), "--spawn-ns", str(time.monotonic_ns())]
    if args.perturb_digest:
        cmd.append("--perturb-digest")
    rc, out = run(cmd, RUN_TIMEOUT_S)
    lines = out.splitlines()
    if rc != 0 or not lines:
        print(f"run.py: driver exited with {rc}", file=sys.stderr)
        return 2
    result = json.loads(lines[-1])
    if not time_setups(SETUP_SPAWNS // 2):
        return 2
    if setup:
        # The measured run's own set-up is one more sample.
        setup.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setup)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
