#!/usr/bin/env python3
"""Repository benchmark: builds the harness from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep_grid --seed 1 --seconds 20 --trace 0

Workloads: sweep_grid and batched_uniform (see BENCHMARK.json for why each
was chosen), plus clustered_few and mean_field_1e9, which run by name but are
not in BENCHMARK.json because their wall times do not repeat on a shared
machine (see harness.cpp).

--trace 0 prints the end-to-end metrics, --trace 1 runs the separate traced
pass and prints the per-layer metrics. --small shrinks every workload so all
four finish in seconds (for perfbench/test_bench.py; its figures are not
measurements). --record appends the result to a JSON-lines file that
perfbench/compare.py reads.

The harness is built with CMake into .bench_build/cmake (Release). The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; everything before it is informational. Exit status is 0
on a correct run, 1 on a wrong verdict or a failed build, 2 on bad usage or
when the repository sources are missing.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
HARNESS = os.path.join(BUILD, "perfbench_harness")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run stays inside the 180 s a single invocation is allowed.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the harness; returns True on success."""
    for required in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, required)):
            print(f"perfbench: repository sources missing ({required} not "
                  f"found next to perfbench/)", file=sys.stderr)
            return False
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        # A build tree configured for another copy of the sources (a moved
        # or copied checkout) cannot be reused; start it afresh.
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(BUILD)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_harness",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                print(f"perfbench: build step failed: {' '.join(step)} "
                      f"(see {log_path})", file=sys.stderr)
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--record", metavar="FILE",
                        help="append {workload, seed, trace, result} as one "
                             "JSON line to FILE (input for compare.py)")
    args = parser.parse_args()

    if not build():
        return 1 if os.path.exists(os.path.join(ROOT, "src")) else 2

    command = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.json")]
    if args.small:
        command.append("--small")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: harness timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(proc.stdout)
        print(f"perfbench: harness exited {proc.returncode} without a result",
              file=sys.stderr)
        return proc.returncode or 1
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": int(args.trace),
                                "result": result}) + "\n")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
