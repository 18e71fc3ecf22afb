#!/usr/bin/env python3
"""Build and run one benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
the driver (perfbench/CMakeLists.txt, Release) and the repository's
libraries into .perfbench_build/; later calls only rebuild what changed.
The driver's standard output is passed through: its last line is the
result object {"correct", "attempted", "failed", "metrics"}. Spans and
scratch files go to .perfbench_out/.

Exits non-zero without printing a result when the checkout cannot be
built, for instance when it holds nothing but the benchmark itself.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".perfbench_build"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("figure_sweep", "protection_sweep", "service_stream",
             "cache_replay")
DRIVER_TIMEOUT_S = 175


def build():
    """Configure once, then bring the driver up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no src/ next to perfbench/; run from a full "
              "checkout", file=sys.stderr)
        return False
    BUILD.mkdir(exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench_driver", "-j", jobs])
    with open(BUILD / "build.lock", "w") as lock:
        # Concurrent runs in one checkout build one at a time.
        fcntl.flock(lock, fcntl.LOCK_EX)
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr,
                              stderr=sys.stderr).returncode != 0:
                print("perfbench: build step failed: " + " ".join(step),
                      file=sys.stderr)
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in 1..120")

    if not build():
        return 2

    OUT.mkdir(exist_ok=True)
    # The driver sets the CG_* knobs it needs; none leak in from outside.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CG_")}
    command = [str(BUILD / "perfbench_driver"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(OUT), "--python", sys.executable,
               "--reference", str(ROOT / "perfbench" / "reference.py")]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("perfbench: driver exited %d" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
