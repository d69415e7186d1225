#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <explore_cold|iss_sweep_cold|serve_mixed>
                             --seed N --seconds S --trace <0|1>

Run from the repository root. Builds the `perfbench` runner (a
standalone package in this directory) and the shipped `xserve` daemon
into `$CARGO_TARGET_DIR` (default `.bench_build`), offline, then runs
the runner. Its last line of standard output is the result JSON; build
output goes to standard error. Sockets, cache files and traces go to
`.bench_out/`.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("explore_cold", "iss_sweep_cold", "serve_mixed")
BUILD_TIMEOUT_S = 840
RUN_GRACE_S = 120


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", "Cargo.toml", "-p", "xserve", "--bin", "xserve"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not os.path.isfile("Cargo.toml") or not os.path.isdir("crates"):
        sys.exit("run.py: run from the repository root (Cargo.toml and crates/ not found)")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target)

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--xserve", os.path.join(target, "release", "xserve"),
        "--out", ".bench_out",
    ]
    # Own process group, so a timeout also stops the daemon it spawned.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("run.py: the runner overran its time and was stopped")
    sys.exit(code)


if __name__ == "__main__":
    main()
