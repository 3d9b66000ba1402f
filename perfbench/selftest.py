#!/usr/bin/env python3
"""Self-test of the benchmark: runs every workload at a tiny size.

Run from the repository root:

    python3 perfbench/selftest.py

For each workload in BENCHMARK.json it checks that
  * an untraced run prints exactly the declared end-to-end metrics, and a
    traced run exactly the declared per-layer metrics, with their units;
  * both runs pass their output checks and exit 0;
  * a run with one injected wrong checksum reports a failed operation,
    sets "correct" to false and exits nonzero.
Exits 1 on the first failed expectation.
"""

import json
import os
import subprocess
import sys

RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def run(workload, trace, *extra):
    cmd = RUN + ["--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"FAIL {' '.join(cmd)}: no JSON result\n{proc.stderr}")
    return proc.returncode, result


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in bench["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            code, res = run(name, trace)
            expect(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                   f"{name} trace {trace}: result keys")
            printed = {k: v["unit"] for k, v in res["metrics"].items()}
            missing = sorted(set(declared[trace]) - set(printed))
            extra = sorted(set(printed) - set(declared[trace]))
            expect(not missing and not extra,
                   f"{name} trace {trace}: metric names match BENCHMARK.json"
                   + (f" (missing {missing}, undeclared {extra})"
                      if missing or extra else ""))
            expect(printed == declared[trace],
                   f"{name} trace {trace}: units match BENCHMARK.json")
            expect(code == 0 and res["correct"] and res["failed"] == 0
                   and res["attempted"] >= 1,
                   f"{name} trace {trace}: outputs correct "
                   f"({res['attempted']} attempted)")
        code, res = run(name, 0, "--inject-bad-checksum")
        expect(code != 0 and not res["correct"] and res["failed"] >= 1,
               f"{name}: injected wrong checksum is a failed operation "
               f"(exit {code}, failed {res['failed']})")
    print("selftest passed")


if __name__ == "__main__":
    main()
