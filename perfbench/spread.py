#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics on one workload.

Run from the repository root:

    python3 perfbench/spread.py --workload minic-short --runs 10 [--first-seed 1]

Runs the benchmark --runs times, each with another seed, for the
run_seconds of BENCHMARK.json, and prints per metric the median and the
interquartile range as a share of the median, next to the metric's
bound. A spread above a third of the bound is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for k in range(args.runs):
        seed = args.first_seed + k
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not res["correct"]:
            sys.exit(f"seed {seed}: run failed (exit {proc.returncode})")
        for name in values:
            values[name].append(res["metrics"][name]["value"])
        print(f"seed {seed}: " + "  ".join(
            f"{n}={res['metrics'][n]['value']:.6g}" for n in values), flush=True)
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if spread < m["bound"] / 3 else "   <-- above bound/3"
        print(f"{m['name']:34s} median {med:14.6g}  spread {spread:7.4f}  "
              f"bound {m['bound']}{flag}")


if __name__ == "__main__":
    main()
