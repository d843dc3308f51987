#!/usr/bin/env python3
"""Self-test of the benchmark: exact repeats and seed stability.

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (default: all in BENCHMARK.json) runs a shortened copy
(--seconds 1, so three passes) twice with tracing off and twice with
tracing on, on seed 1, and checks that

  - every run exits 0, reports correct and no failures, and prints
    exactly the metrics BENCHMARK.json declares for its trace mode;
  - every count and simulated metric (units count, cycles, share) is
    identical between the two runs of a mode.

It then runs each workload once on seed 2 and prints how far each
end-to-end metric moved.  The compile workload's circuit list does not
depend on the seed, so its code metrics must not move at all.  Exits 1
on any failed check.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT_UNITS = {"count", "cycles", "share"}
CODE_METRICS = ["instructions", "rram_cells", "max_cell_writes",
                "lat_p50_cycles", "lat_p99_cycles"]


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return out.returncode, result


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    workloads = sys.argv[1:] or [w["name"] for w in spec["workloads"]]
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            problems.append(what)

    for w in workloads:
        first = {}
        for trace in (0, 1):
            names = [m["name"] for m in declared[trace]]
            exact = [m["name"] for m in declared[trace]
                     if m["unit"] in EXACT_UNITS]
            runs = [run(w, 1, trace) for _ in range(2)]
            for code, r in runs:
                check(code == 0 and r.get("correct") is True
                      and r.get("failed") == 0 and r.get("attempted", 0) >= 1,
                      f"{w} trace {trace}: exit 0, correct, no failures")
                check(sorted(r.get("metrics", {})) == sorted(names),
                      f"{w} trace {trace}: metrics match BENCHMARK.json")
            a, b = (r.get("metrics", {}) for _, r in runs)
            moved = [n for n in exact
                     if a.get(n, {}).get("value") != b.get(n, {}).get("value")]
            check(not moved, f"{w} trace {trace}: {len(exact)} counts and "
                  f"simulated metrics repeat exactly {moved or ''}")
            if trace == 0:
                first = {n: a[n]["value"] for n in names if n in a}
        code, r = run(w, 2, 0)
        check(code == 0 and r.get("correct") is True, f"{w} seed 2: correct")
        second = {n: v["value"] for n, v in r.get("metrics", {}).items()}
        for n in first:
            if n in second and first[n]:
                print(f"     {w} seed 2 vs 1: {n:16} {second[n]:14.6g} vs "
                      f"{first[n]:14.6g} ({second[n] / first[n] - 1:+.2%})")
        if w == "compile":
            check(all(first.get(n) == second.get(n) for n in CODE_METRICS),
                  "compile: code metrics do not depend on the seed")
    print(f"{len(problems)} failed check(s)")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
