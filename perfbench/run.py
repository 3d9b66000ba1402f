#!/usr/bin/env python3
"""Build and run the repository benchmark on one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper-matrix --seed 1 --seconds 20 --trace 0

The program and the ifp_serviced daemon it drives are built from source
with dune (into ./_build, with the shared dune cache disabled so nothing
is written outside the checkout), then the program is run once. Its standard output is passed through; the last line is
the JSON result. The exit code is the benchmark's: 0 when every output
check passed, 1 when one failed, 2 for a usage or build error, 3 when
the run overran its time limit.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ["paper-matrix", "minic-short", "service-mixed"]
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
SERVICED = os.path.join("_build", "default", "bin", "ifp_serviced.exe")
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def git_rev():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_bounded(cmd, timeout, **kw):
    """Runs cmd in a process group of its own to completion; on timeout
    (or interruption) kills the whole group, so that no process it
    started outlives it, and waits for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    try:
        code = proc.wait(timeout=timeout)
    except BaseException as e:
        kill_group()
        proc.wait()
        if isinstance(e, subprocess.TimeoutExpired):
            return None
        raise
    kill_group()
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--tiny", action="store_true",
                    help="self-test size: a few inputs per workload")
    ap.add_argument("--inject-bad-checksum", action="store_true",
                    help="corrupt one expected value (self-test)")
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("perfbench", "dune"))):
        print("perfbench: run from the repository root "
              "(dune-project, lib/ and perfbench/dune are needed)",
              file=sys.stderr)
        return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    t0 = time.monotonic()
    code = run_bounded(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/perfbench.exe", "./bin/ifp_serviced.exe"],
        BUILD_TIMEOUT_S, stdout=sys.stderr, env=env)
    if code != 0 or not (os.path.isfile(EXE) and os.path.isfile(SERVICED)):
        print("perfbench: build failed" if code is not None
              else "perfbench: build timed out", file=sys.stderr)
        return 2
    print(f"# build {time.monotonic() - t0:.1f} s", file=sys.stderr)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--git-rev", git_rev(), "--serviced", SERVICED]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_bad_checksum:
        cmd.append("--inject-bad-checksum")
    sys.stdout.flush()
    code = run_bounded(cmd, RUN_TIMEOUT_S)
    if code is None:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
