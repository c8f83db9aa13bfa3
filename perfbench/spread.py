#!/usr/bin/env python3
"""Runs the benchmark several times per workload, each time with another
seed, and prints each end-to-end metric's median and spread: the distance
between the first and third quartile as a share of the median, next to the
metric's bound from BENCHMARK.json. Run it from the repository root:

    python3 perfbench/spread.py --runs 10
    python3 perfbench/spread.py --runs 5 --workload live-chord64 --first-seed 100
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for name in names:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if not res or not res["correct"]:
                print(f"{name} seed {seed}: failed (exit {proc.returncode})\n{proc.stderr[-2000:]}")
                ok = False
                continue
            for metric, v in res["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        print(f"{name}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        for metric in sorted(values):
            xs = values[metric]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(metric, float("nan"))
            flag = "" if spread <= bound / 3 else "  <-- above a third of the bound"
            print(f"  {metric:24s} median {med:12.6g}  spread {spread:7.4f}  bound {bound:5.3f}{flag}")
            print("    runs: " + " ".join(f"{x:.4g}" for x in xs))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
