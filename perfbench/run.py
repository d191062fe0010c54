#!/usr/bin/env python3
"""Builds the asyrgs service benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds the library and the load generator
(Release) in the build directory: $CARGO_TARGET_DIR when set, else
.bench_build.  Later runs only re-check the build.  The load generator's
result, one JSON object, is re-printed as the last line of stdout; build
output and diagnostics go to stderr.  A traced run (--trace 1) also writes
its spans, one JSON object per line, to <build>/spans/<workload>-<seed>.jsonl.

Exits non-zero, without a result, when the build fails (for instance when
the library sources are missing) or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("social_stream", "social_lsq", "laplacian_2d")
# A run must end within 180 s; leave room to report a hung one.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"perfbench: {' '.join(cmd)}: {err}")
        return False
    return done.returncode == 0


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", build_dir, "--target",
                      "service_bench", "-j", jobs], BUILD_TIMEOUT_S):
        return None
    binary = os.path.join(build_dir, "service_bench")
    return binary if os.path.isfile(binary) else None


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    try:
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def valid_result(result, trace):
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return False
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return False
    if not isinstance(result["failed"], int):
        return False
    metrics = result["metrics"]
    if not isinstance(metrics, dict) or not all(
            isinstance(v, dict) and isinstance(v.get("value"), (int, float))
            for v in metrics.values()):
        return False
    names = declared_metrics(trace)
    return names is None or sorted(names) == sorted(metrics)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(build_dir)
    binary = build(build_dir)
    if binary is None:
        log("perfbench: build failed")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-{args.seed}.jsonl")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1
    if done.returncode != 0:
        log(f"perfbench: service_bench exited with {done.returncode}")
        return 1
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: service_bench printed no result")
        return 1
    if not valid_result(result, args.trace):
        log("perfbench: malformed result: " + lines[-1])
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
