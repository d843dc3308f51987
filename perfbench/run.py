#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload compile|serve \
        --seed N [--seconds S] --trace 0|1

Builds perfbench/main.exe with dune inside the checkout that holds this
file (build output goes to stderr), then runs it with the given
arguments.  Without --seconds it measures for BENCHMARK.json's
run_seconds.  The last line of stdout is the JSON result.  Exits non-zero
when the checkout lacks the repository's sources, the build fails, or an
output of the workload is incorrect.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def main():
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"perfbench: {needed} not found in {ROOT}; "
                     "run from a full checkout of the repository")
    # dune's shared cache lives in the home directory; the benchmark
    # reads and writes only inside its checkout
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT, stdout=sys.stderr, env={**os.environ, "DUNE_CACHE": "disabled"})
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {build.returncode})")
    args = sys.argv[1:]
    if "--seconds" not in args:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args += ["--seconds", str(json.load(f)["run_seconds"])]
    sys.exit(subprocess.run([EXE] + args, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
