#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end
metric's median and quartile spread against its bound.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]

The spread is the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median.  A steady
benchmark keeps it below a third of the metric's bound in
BENCHMARK.json, setup_s included.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if done.returncode != 0:
            print(f"seed {seed}: run failed (exit code {done.returncode})")
            return 1
        result = json.loads(done.stdout.strip().split("\n")[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result")
            return 1
        for name, m in result["metrics"].items():
            values[name].append(m["value"])

    steady = True
    print(f"{args.workload}: {args.runs} runs")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        ok = spread < m["bound"] / 3
        steady = steady and ok
        print(f"  {m['name']:16s} median {med:14.6g} {m['unit']:4s} "
              f"spread {spread:7.2%} bound {m['bound']:.2f} {'ok' if ok else 'WIDE'}  "
              + " ".join(f"{x:.4g}" for x in v))
    return 0 if steady else 2


if __name__ == "__main__":
    sys.exit(main())
