#!/usr/bin/env python3
"""Steadiness check: run workloads under many seeds and report the spread.

Usage, from the root of the repository:

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                [--seconds S] [--trace 0|1]

Runs perfbench/run.py once per (workload, seed), seeds first-seed ..
first-seed+runs-1, and prints for every metric its median, first and third
quartile (statistics.quantiles(n=4)) and the quartile spread as a share of
the median. With --trace 0 each end-to-end metric is compared with its
bound from BENCHMARK.json: "ok" below a third of the bound, "WIDE" above
the bound. Exits non-zero if any run failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:] + proc.stdout[-2000:])
        return None
    return json.loads(lines[-1])


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=spec["run_seconds"] if spec else 10)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    if args.workloads:
        workloads = args.workloads.split(",")
    elif spec:
        workloads = [w["name"] for w in spec["workloads"]]
    else:
        sys.exit("steady.py: no BENCHMARK.json; pass --workloads")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]} if spec else {}

    failed = False
    for workload in workloads:
        values = {}
        units = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, args.seconds, args.trace)
            if result is None or not result["correct"]:
                print("%s seed %d: FAILED" % (workload, seed))
                failed = True
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print("== %s (%d runs, %d s each, trace %d)" %
              (workload, args.runs, args.seconds, args.trace))
        print("%-32s %14s %14s %14s %8s %6s  %s" %
              ("metric", "median", "q1", "q3", "iqr/med", "bound", "verdict"))
        for name in sorted(values):
            xs = values[name]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and args.trace == 0:
                verdict = ("ok" if spread < bound / 3 else
                           "WIDE" if spread > bound else "near")
            print("%-32s %14.6g %14.6g %14.6g %8.4f %6s  %s %s" %
                  (name, med, q1, q3, spread, "" if bound is None else bound,
                   verdict, units[name]))
        sys.stdout.flush()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
