#!/usr/bin/env python3
"""Runs perfbench in alternating parent/change pairs and compares the sides.

Usage, from anywhere:

    python3 scripts/perfbench_pairs.py --parent DIR --change DIR \\
        [--workloads NAME ...] --pairs N --seconds S --seed FIRST \\
        [--trace 0|1] [--build-root DIR] [--out FILE]

Each side is a checkout that holds perfbench/run.py.  Both are built first,
each in its own build directory (run.py's $CARGO_TARGET_DIR):
<build-root>/parent and <build-root>/change, by default under
./.bench_pairs.  Pair k of a workload runs both sides with seed FIRST + k;
the parent runs first in even pairs and the change in odd ones, so a drift
of the host during the session weighs on both sides alike.  The workloads
default to every workload of the parent's BENCHMARK.json.

For each workload and metric it prints the median and quartiles of either
side, the ratio of the medians (change / parent), the pairs the change won,
and whether the medians differ by more than the parent's interquartile
range (">IQR").  Whether lower or higher wins comes from the parent's
BENCHMARK.json: its end-to-end metrics, or its per-layer metrics with
--trace 1.  --out writes every run's result to FILE as one JSON object.

Exits non-zero, at the first such run, when a run fails, prints no result
or reports "correct": false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
BUILD_TIMEOUT_S = 1800
RUN_TIMEOUT_S = 600


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(checkout, build_dir):
    """Configures and builds the side's load generator; True on success."""
    steps = [["cmake", "-S", os.path.join(checkout, "perfbench"), "-B",
              build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "service_bench",
              "-j", str(min(4, os.cpu_count() or 1))]]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            log(done.stdout)
            log(f"perfbench_pairs: {' '.join(cmd)} failed")
            return False
    return True


def run_once(checkout, build_dir, workload, seed, seconds, trace):
    """One run.py run; its result object, or None after logging why not."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace)]
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    label = f"{checkout} {workload} seed {seed}"
    try:
        done = subprocess.run(cmd, cwd=checkout, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"perfbench_pairs: {label}: no result in {RUN_TIMEOUT_S} s")
        return None
    if done.returncode != 0:
        log(done.stderr)
        log(f"perfbench_pairs: {label}: run.py exited with {done.returncode}")
        return None
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"perfbench_pairs: {label}: printed no result")
        return None
    if not isinstance(result, dict) or result.get("correct") is not True:
        log(f"perfbench_pairs: {label}: not correct: {lines[-1]}")
        return None
    return result


def quartiles(values):
    """(q1, median, q3) of the values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def report(workload, runs, metrics, first_seed):
    pairs = len(runs["parent"])
    print(f"{workload}: {pairs} pairs, seeds {first_seed}-"
          f"{first_seed + pairs - 1}")
    print(f"  {'metric':<30} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'ratio':>7} {'won':>7} "
          f"{'>IQR':>5}")
    for name, better in metrics:
        if not all(name in r["metrics"] for side in SIDES
                   for r in runs[side]):
            continue
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        sign = -1.0 if better == "lower" else 1.0
        won = sum(1 for p, c in zip(values["parent"], values["change"])
                  if sign * (c - p) > 0)
        q1_p, med_p, q3_p = stats["parent"]
        med_c = stats["change"][1]
        ratio = f"{med_c / med_p:.3f}" if med_p else "-"
        # Whether the medians differ by more than the parent's IQR.
        beyond = "yes" if abs(med_c - med_p) > q3_p - q1_p else "no"
        cells = ["{1:.4g} [{0:.4g}, {2:.4g}]".format(*stats[side])
                 for side in SIDES]
        print(f"  {name:<30} {cells[0]:>32} {cells[1]:>32} {ratio:>7} "
              f"{f'{won}/{pairs}':>7} {beyond:>5}")
    for side in SIDES:
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        print(f"  {side}: {failed} of {attempted} requests failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="changed checkout")
    parser.add_argument("--workloads", nargs="+",
                        help="workloads (default: all of BENCHMARK.json)")
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--seed", required=True, type=int,
                        help="seed of the first pair")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-root", default=".bench_pairs")
    parser.add_argument("--out", help="write every run's result here")
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds < 1 or args.seed < 0:
        parser.error("--pairs and --seconds must be >= 1 and --seed >= 0")

    checkout = {side: os.path.abspath(getattr(args, side)) for side in SIDES}
    build_dir = {side: os.path.join(os.path.abspath(args.build_root), side)
                 for side in SIDES}
    with open(os.path.join(checkout["parent"], "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = [(m["name"], m["better"])
               for m in spec["per_layer" if args.trace else "end_to_end"]]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]

    for side in SIDES:
        log(f"perfbench_pairs: building {side} ({checkout[side]})")
        if not build(checkout[side], build_dir[side]):
            return 1

    results = {}
    for workload in workloads:
        runs = {side: [] for side in SIDES}
        for k in range(args.pairs):
            seed = args.seed + k
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for side in order:
                result = run_once(checkout[side], build_dir[side], workload,
                                  seed, args.seconds, args.trace)
                if result is None:
                    return 1
                runs[side].append(result)
            log(f"perfbench_pairs: {workload} pair {k + 1}/{args.pairs} done")
        results[workload] = runs
        report(workload, runs, metrics, args.seed)

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "results": results}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
