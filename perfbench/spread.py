#!/usr/bin/env python3
"""Run one workload under several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload compile-cold --seeds 10 [--trace 0|1]

Runs seeds 1..N for BENCHMARK.json's run_seconds each. For every metric
prints the median over the runs and the distance between the first and
third quartiles (statistics.quantiles(values, n=4)) as a share of the
median, next to the metric's bound from BENCHMARK.json. A spread above a
third of the bound is flagged, and makes the exit code 4. --json also
writes the raw results, from which baseline.json was made.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="also write the raw runs to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    runs = []
    for seed in range(1, args.seeds + 1):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect ({result['failed']} failed)", file=sys.stderr)
            return 1
        runs.append(result)
        print(f"seed {seed}: ok, {result['attempted']} attempted", file=sys.stderr)

    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)
    steady = True
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  <-- above a third of the bound"
            steady = False
        print(f"{name:36s} median {med:14.6g}  spread {spread:7.4f}  bound {bound}{flag}")
    return 0 if steady else 4


if __name__ == "__main__":
    sys.exit(main())
