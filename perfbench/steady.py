#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs perfbench/run.sh on every workload of BENCHMARK.json, in both modes
(--trace 0 and --trace 1), once for each seed 1..--runs, with the
run_seconds of BENCHMARK.json. For every metric it records the median,
the first and third quartiles (statistics.quantiles(values, n=4)) and
the spread: the distance between the quartiles as a share of the median.
The bounds in BENCHMARK.json hold only if each spread stays well inside
its bound.

Run from the repository root, e.g.

    python3 perfbench/steady.py --runs 10 --out perfbench/steadiness.json
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

BENCH = json.load(open("BENCHMARK.json"))
BOUNDS = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
SHOWN = list(BOUNDS) + ["telemetry.overhead_s"]


def run(workload, seed, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    start = time.monotonic()
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    wall = time.monotonic() - start
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: output checks failed: {result}")
    return result, wall


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", help="write the record here as JSON")
    args = ap.parse_args()

    record = {"runs": args.runs, "seconds": BENCH["run_seconds"], "workloads": {}}
    for w in [w["name"] for w in BENCH["workloads"]]:
        values, walls = {}, []
        for seed in range(1, args.runs + 1):
            for mode in (0, 1):
                res, wall = run(w, seed, mode)
                walls.append(wall)
                for name, m in res["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={values[k][-1]:.5g}" for k in SHOWN), flush=True)
        entry = {name: summary(v) for name, v in sorted(values.items())}
        entry["run_wall_s_max"] = max(walls)
        record["workloads"][w] = entry
        for name in SHOWN:
            s = entry[name]
            note = ""
            if name in BOUNDS:
                note = f" (bound {BOUNDS[name]}, a third {BOUNDS[name] / 3:.4f})"
            print(f"  {w} {name}: median {s['median']:.6g} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} spread {s['spread']:.4f}{note}", flush=True)
        print(f"  {w} slowest run: {entry['run_wall_s_max']:.1f} s", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
