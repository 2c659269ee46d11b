#!/usr/bin/env python3
"""Check that the benchmark is steady across seeds.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0]

Runs `perfbench/run.py` once per workload and seed, then prints, for each
metric BENCHMARK.json names for that pass, every run's value, their median,
and the distance between the first and third quartile as a share of the
median, beside a third of the metric's bound (the spread the benchmark aims
to stay under). With one seed it is a one-command report of every metric on
every workload. Exits 1 when a run fails or reports correct=false, or when
an end-to-end spread other than setup_s exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run(workload, seed, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds",
           str(CONFIG["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})")
        print(proc.stdout)
        return None
    return result["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in CONFIG["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    specs = CONFIG["per_layer" if args.trace else "end_to_end"]
    status = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            metrics = run(workload, seed, args.trace)
            if metrics is None:
                status = 1
                continue
            runs.append(metrics)
        if not runs:
            continue
        print(f"\n{workload}: {len(runs)} runs")
        for spec in specs:
            values = [m[spec["name"]]["value"] for m in runs]
            med = statistics.median(values)
            spread = 0.0
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / abs(med) if med else 0.0
            bound = spec.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "ok" if spread <= bound / 3 else "WIDE"
                if spread > bound and spec["name"] != "setup_s":
                    verdict = "OVER BOUND"
                    status = 1
            limit = f"{bound / 3:8.4f}" if bound is not None else "       -"
            print(f"  {spec['name']:36s} median {med:14.6g} {spec['unit']:9s}"
                  f" spread {spread:8.4f} (target {limit}) {verdict}")
            print("      " + " ".join(f"{v:.5g}" for v in values))
    return status


if __name__ == "__main__":
    sys.exit(main())
