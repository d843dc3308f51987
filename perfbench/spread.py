#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [WORKLOAD ...]

Runs each workload (default: every workload in BENCHMARK.json) once per
seed, seeds 1 .. runs, for BENCHMARK.json's run_seconds with tracing
off, and prints for every end-to-end metric its median, its quartiles
and the quartile spread (Q3 - Q1) as a share of the median next to the
metric's bound, and for the time metrics the value of every run; then
the same for run_s before it is scaled to the reference host.  Ten
runs prove a workload steady; five are a quicker check while tuning.
Exits 1 if any run fails or any spread exceeds a third of its metric's
bound.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed}: run failed (exit {out.returncode})")
    unscaled = re.search(r"unscaled setup_s [0-9.]+ s, run_s ([0-9.]+) s", out.stdout)
    return ({k: v["value"] for k, v in result["metrics"].items()},
            float(unscaled.group(1)))


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    steady = True
    for w in args.workloads:
        runs, unscaled = zip(*[run_once(w, seed)
                               for seed in range(1, args.runs + 1)])
        print(f"{w}: {args.runs} runs, seeds 1..{args.runs}")
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            flag = ""
            if share > m["bound"] / 3:
                steady, flag = False, "  <-- above bound/3"
            print(f"  {m['name']:16} median {med:14.6g} {m['unit']:7} "
                  f"q1 {q1:14.6g} q3 {q3:14.6g} spread {share:7.2%} "
                  f"(bound {m['bound']:.0%}){flag}")
            if m["unit"] in ("s", "1/s"):
                print("    runs: " + " ".join(f"{v:.6g}" for v in values))
        q1, med, q3 = statistics.quantiles(unscaled, n=4)
        print(f"  run_s before scaling to the reference host: median "
              f"{med:.6g} s, spread {(q3 - q1) / med:.2%}")
        print("    runs: " + " ".join(f"{v:.6g}" for v in unscaled))
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
