#!/usr/bin/env python3
"""Steadiness check: run the benchmark repeatedly and report each metric's spread.

    python3 perfbench/steady.py [--runs 10] [--workloads grid_feed,serve_feed]
                                [--seed-base 1] [--seconds S]

Runs every workload --runs times, alternating between workloads, each run
with another seed (seed-base, seed-base + 1, ...), through perfbench/run.py
and its settings in BENCHMARK.json. Prints, per workload and end-to-end
metric, the median, the first and third quartile (statistics.quantiles,
n=4), the spread (Q3 - Q1) / median, and the metric's bound from
BENCHMARK.json; a spread above a third of its bound is flagged. Also
prints the share of failed operations of every run. Exit code 1 if any
run failed or was incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {} for w in workloads}
    failed_shares = {w: [] for w in workloads}
    ok = True
    for i in range(args.runs):
        for workload in workloads:
            seed = args.seed_base + i
            command = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True)
            lines = done.stdout.strip().split("\n")
            try:
                result = json.loads(lines[-1])
            except (ValueError, IndexError):
                result = None
            if done.returncode != 0 or result is None or not result["correct"]:
                ok = False
                sys.stderr.write(done.stderr[-2000:])
                print("run %s seed %d failed (exit %d)" %
                      (workload, seed, done.returncode), flush=True)
                continue
            failed_shares[workload].append(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print("run %-15s seed %3d  %s" % (workload, seed, "  ".join(
                "%s=%.5g" % (name, metric["value"])
                for name, metric in result["metrics"].items())), flush=True)

    print()
    print("%-15s %-20s %12s %12s %12s %8s %6s" %
          ("workload", "metric", "median", "q1", "q3", "spread", "bound"))
    for workload in workloads:
        for name, series in values[workload].items():
            if len(series) < 2:
                continue
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(name, float("nan"))
            flag = "  <-- over bound/3" if spread > bound / 3 else ""
            print("%-15s %-20s %12.5g %12.5g %12.5g %8.4f %6.3f%s" %
                  (workload, name, median, q1, q3, spread, bound, flag))
        shares = sorted(set(failed_shares[workload]))
        print("%-15s failed share per run: %s" % (workload, shares))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
