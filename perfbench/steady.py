#!/usr/bin/env python3
"""Steadiness proof for the benchmark of record.

    python3 perfbench/steady.py [--seeds 10] [--sets 2] [--workloads a,b] [--seconds S]

Run from the repository root. For every workload it runs the benchmark
(--trace 0) once per seed in each of --sets sets. The sets are
interleaved, not run back to back: for each seed, set A's run and set
B's run are adjacent and their order alternates from seed to seed, so
host drift over the proof lands on both sets alike.

For each end-to-end metric it prints, per set, the median and the
spread (distance between the first and third quartile as
statistics.quantiles(values, n=4) gives them, as a share of the
median), and the change of each later set's median against set A's.
A spread or a worsening beyond the metric's bound in BENCHMARK.json is
flagged. Every run must report correct with no failed operation. The
raw results go to perfbench/out/steady.json. Exit status 1 if any
check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(lines[-1])
    # the host reference each untraced run prints, to tell host drift
    # from a change in the program
    for line in lines:
        if line.startswith("host.ref_ms:"):
            result["host_ref_ms"] = float(line.split()[1])
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    names = [chr(ord("A") + i) for i in range(args.sets)]
    results = {w: {s: [] for s in names} for w in workloads}
    ok = True
    for i in range(args.seeds):
        seed = args.first_seed + i
        for w in workloads:
            order = names if i % 2 == 0 else list(reversed(names))
            for s in order:
                r = run_once(w, seed, args.seconds)
                results[w][s].append(r)
                if not r["correct"] or r["failed"] != 0:
                    ok = False
                    print(f"FAILED RUN: {w} seed {seed} set {s}: {r}", flush=True)
                vals = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
                host = r.get("host_ref_ms", float("nan"))
                print(f"{w:12s} seed {seed:3d} set {s}: {vals} host.ref_ms={host:.3f}", flush=True)
    print()
    for w in workloads:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds = {}
            cells = []
            for s in names:
                vals = [r["metrics"][name]["value"] for r in results[w][s]]
                meds[s] = statistics.median(vals)
                sp = spread(vals) if len(vals) >= 2 else 0.0
                flag = "" if sp <= bound else " SPREAD>BOUND"
                if flag:
                    ok = False
                cells.append(f"{s}: median {meds[s]:.4g} spread {sp:.3f}{flag}")
            for s in names[1:]:
                change = (meds[s] - meds[names[0]]) / meds[names[0]]
                flag = " WORSE>BOUND" if change > bound else ""
                if flag:
                    ok = False
                cells.append(f"{s} vs {names[0]}: {change:+.3f}{flag}")
            print(f"{w:12s} {name:12s} bound {bound:.2f} | " + " | ".join(cells))
    os.makedirs(os.path.join(ROOT, "perfbench", "out"), exist_ok=True)
    with open(os.path.join(ROOT, "perfbench", "out", "steady.json"), "w") as f:
        json.dump(results, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
