#!/usr/bin/env python3
"""Build the benchmark of record from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark is the OCaml package in
perfbench/ (perfbench/bench/perfbench.ml); it links the repository's
libraries, so it is built with dune from this checkout first (build
output goes to standard error). The benchmark's own standard output is
passed through; its last line is the JSON result. Traces and roll-ups
of --trace 1 runs are written to perfbench/out/.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/bench/perfbench.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench", "perfbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--cache=disabled", TARGET],
            cwd=ROOT,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not run: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        run = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
