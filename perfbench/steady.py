#!/usr/bin/env python3
"""Steadiness tooling for the repository benchmark.

    python3 perfbench/steady.py repeat --runs K [--workload W ...] [--traced T]
                                       [--first-seed N] [--save FILE]
    python3 perfbench/steady.py compare A.json B.json
    python3 perfbench/steady.py show A.json

`repeat` runs each workload K times untraced, each with another seed
(and T more times traced), through perfbench/run.py from the repository
root, and prints per metric the median, the quartiles, the quartile
spread and the max/min spread, both as shares of the median, against the
metric's bound in BENCHMARK.json. It also prints the tracing overhead:
the traced runs' `traced.job_ms_p50` over the untraced `job_ms_p50`.
`--save` keeps the raw results for `compare`, which checks a second set
of runs against a first: for every metric, the second median may not be
worse than the first by more than the bound. `show` prints a saved
set's summary again.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(bench, workload, seed, trace):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    print(f"  {workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    return result


def spread(values):
    if len(values) < 2:
        return float("nan"), float("nan"), float("nan"), float("nan")
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def summarize(bench, runs):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    for workload, by_trace in runs.items():
        print(f"\n{workload}")
        for trace, results in sorted(by_trace.items()):
            names = sorted({n for r in results for n in r["metrics"]})
            for name in names:
                vals = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
                unit = results[0]["metrics"].get(name, {}).get("unit", "")
                med, q1, q3, iqr = spread(vals)
                mm = (max(vals) - min(vals)) / med if med else float("nan")
                bound = bounds.get(name, {}).get("bound") if trace == "0" else None
                verdict = ""
                if bound is not None:
                    verdict = (f"bound {bound}: "
                               + ("steady" if iqr < bound / 3 else
                                  "within bound" if iqr <= bound else "TOO WIDE"))
                print(f"  {name:28s} median {med:12.6g} {unit:10s} q1 {q1:10.6g} q3 {q3:10.6g} "
                      f"iqr/med {iqr:6.3f} max-min/med {mm:6.3f} n {len(vals)} {verdict}")
        untraced = [r["metrics"]["job_ms_p50"]["value"] for r in by_trace.get("0", [])]
        traced = [r["metrics"]["traced.job_ms_p50"]["value"] for r in by_trace.get("1", [])]
        if untraced and traced:
            over = statistics.median(traced) / statistics.median(untraced) - 1
            print(f"  tracing overhead on job_ms_p50: {over * 100:+.1f}% "
                  f"(traced {statistics.median(traced):.4g} ms over untraced "
                  f"{statistics.median(untraced):.4g} ms)")
        bad = sum(1 for rs in by_trace.values() for r in rs if not r["correct"])
        print(f"  runs with correct=false: {bad}")


def compare(bench, a, b):
    worst = 0
    for m in bench["end_to_end"]:
        name, bound, better = m["name"], m["bound"], m["better"]
        for workload in sorted(set(a) & set(b)):
            va = [r["metrics"][name]["value"] for r in a[workload].get("0", [])]
            vb = [r["metrics"][name]["value"] for r in b[workload].get("0", [])]
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
            ok = worse <= bound
            worst += not ok
            print(f"  {workload:15s} {name:20s} first {ma:12.6g} second {mb:12.6g} "
                  f"worse by {worse * 100:+6.1f}% (bound {bound * 100:.0f}%) "
                  f"{'ok' if ok else 'REGRESSION'}")
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    rep = sub.add_parser("repeat")
    rep.add_argument("--runs", type=int, default=10)
    rep.add_argument("--traced", type=int, default=0)
    rep.add_argument("--workload", action="append")
    rep.add_argument("--first-seed", type=int, default=1)
    rep.add_argument("--save")
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("first")
    cmp_.add_argument("second")
    sub.add_parser("show").add_argument("saved")
    args = ap.parse_args()
    bench = load_bench()

    if args.cmd == "show":
        with open(args.saved) as f:
            summarize(bench, json.load(f))
        return

    if args.cmd == "compare":
        with open(args.first) as f:
            a = json.load(f)
        with open(args.second) as f:
            b = json.load(f)
        sys.exit(1 if compare(bench, a, b) else 0)

    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    runs = {}
    for w in workloads:
        runs[w] = {"0": [], "1": []}
        for i in range(args.runs):
            runs[w]["0"].append(run_once(bench, w, args.first_seed + i, 0))
        for i in range(args.traced):
            runs[w]["1"].append(run_once(bench, w, args.first_seed + i, 1))
        if not runs[w]["1"]:
            del runs[w]["1"]
    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f)
    summarize(bench, runs)


if __name__ == "__main__":
    main()
