#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The first run configures and builds
perfbench/ (which builds the lycos library from the checkout's sources)
into $CARGO_TARGET_DIR, or .bench_build when that is unset; later runs
reuse the build.  The benchmark binary's output is passed through; its
last line is the result JSON.  Before passing that line on, this script
checks it against BENCHMARK.json: the metric names and units must be
exactly the ones the file declares for the run's kind.  With --trace 1
it also prints, for every per-layer metric, the end-to-end metric and
workload it should move (perfbench/metric_map.json).

Exits non-zero, printing no result, when the build, the run or the
check fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(target):
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target,
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return os.path.join(out, target)


def commit_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        sha = done.stdout.strip()
        return sha if done.returncode == 0 and sha else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def check_result(line, trace):
    """The result's metrics and units must match BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        raise ValueError(f"metrics differ from BENCHMARK.json: missing {missing}, "
                         f"unexpected {extra}, or units differ")
    return result


def print_metric_map(result, workload):
    with open(os.path.join(BENCH_DIR, "metric_map.json")) as f:
        mapping = json.load(f)
    print(f"per-layer metric -> end-to-end metric it should move (this run: {workload})")
    for name, m in result["metrics"].items():
        target = mapping.get(name, {})
        print(f"  {name:32s} {m['value']:>18.6g} {m['unit']:6s} -> "
              f"{', '.join(target.get('moves', []))} on "
              f"{', '.join(target.get('workloads', []))}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    try:
        if args.selftest:
            binary = build("perfbench_selftest")
            if binary is None:
                return 1
            return subprocess.run([binary], timeout=RUN_TIMEOUT_S).returncode

        if not args.workload:
            parser.error("--workload is required")
        binary = build("lycos_perfbench")
        if binary is None:
            return 1
        out_dir = os.path.join(build_dir(), "results")
        os.makedirs(out_dir, exist_ok=True)
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir,
               "--reference", os.path.join(BENCH_DIR, "reference", "two_asic.txt"),
               "--commit", commit_sha()]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        log(f"timed out: {e}")
        return 1

    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout if done.returncode == 0 else "")
        log(f"benchmark failed (exit code {done.returncode})")
        return 1
    try:
        result = check_result(lines[-1], args.trace == 1)
    except (OSError, ValueError, KeyError) as e:
        log(str(e))
        return 1
    print("\n".join(lines[:-1]))
    if args.trace == 1:
        print(f"trace: {os.path.join(out_dir, args.workload)}-seed{args.seed}.trace.json")
        print_metric_map(result, args.workload)
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
