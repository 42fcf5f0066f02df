#!/usr/bin/env python3
"""Build and run the vpbn repository benchmark.

    python3 perfbench/run.py --workload serve|query|ingest --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library sources and the harness into .bench_build/ (Release), then runs
the harness self-tests. The harness prints a details record (seed,
hardware calibration, per-phase facts); this script prints it and then, as
the last line, the result object with exactly the metrics BENCHMARK.json
declares for the mode: end_to_end with --trace 0, per_layer with --trace 1.
A traced run also writes its spans to .bench_build/traces/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "cmake")
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources under src/; run from a repository checkout")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    steps.append([os.path.join(BUILD, "perfbench_selftest"),
                  "--gtest_brief=1"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            log("cannot run %s: %s" % (cmd[0], e))
            return False
        if done.returncode != 0:
            log("step failed: " + " ".join(cmd))
            return False
    return True


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve", "query", "ingest"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        log("--seed must be >= 0 and --seconds > 0")
        return 2

    if not build():
        return 1

    work_dir = os.path.join(BUILD_ROOT, "run-%d" % os.getpid())
    trace_dir = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "vpbn_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", work_dir]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("harness exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if done.returncode != 0:
        log("harness exited with %d" % done.returncode)
        return 1

    lines = done.stdout.strip().splitlines()
    if not lines:
        log("harness printed nothing")
        return 1
    result = json.loads(lines[-1])
    wanted = declared_metrics(args.trace)
    if wanted is not None:
        missing = [m for m in wanted if m not in result["metrics"]]
        if missing:
            log("harness did not report: " + ", ".join(missing))
            return 1
        result["metrics"] = {m: result["metrics"][m] for m in wanted}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result, separators=(",", ":")), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
