#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Usage (from the repository root):

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [workload ...]

Runs perfbench/run.py --trace 0 once per seed for each workload (all of
BENCHMARK.json's workloads by default) and prints, per metric, the median,
the quartiles as statistics.quantiles(values, n=4) gives them, and the
spread (q3 - q1) / median beside a third of the metric's bound. Exits 1 when
a run fails or reports correct=false, or when a spread other than setup_s's
reaches its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for wl in names:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = spec["command"] + ["--workload", wl, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{wl} seed {seed}: run failed (exit {proc.returncode})")
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, 0.0)
            flag = "ok" if spread < bound / 3 else (
                "WIDE" if spread < bound else "OVER")
            if name != "setup_s" and spread >= bound:
                ok = False
            print(f"  {wl:14s} {name:14s} median {med:10.4f} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread {spread:.4f} "
                  f"bound/3 {bound / 3:.4f} {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
