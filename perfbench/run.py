#!/usr/bin/env python3
"""Builds the MLQ cost-model benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_stream --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is incremental. Build output and the readable metric table go to stderr;
the last line of stdout is the JSON result. --trace 1 reports the per-layer
metrics and writes the run's spans to <build dir>/spans/. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_stream", "catalog_fleet", "query_loop")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_step(args, timeout):
    try:
        done = subprocess.run([str(a) for a in args], stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(map(str, args))}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(map(str, args))}")


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    if not (out / "CMakeCache.txt").is_file():
        run_step(["cmake", "-S", HERE, "-B", out,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_step(["cmake", "--build", out, "--target", "mlq_perfbench", "-j", jobs],
             BUILD_TIMEOUT_S)
    return out / "mlq_perfbench"


def expected_metrics(per_layer):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if per_layer else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    command = [binary, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace]
    if args.trace:
        (out / "spans").mkdir(exist_ok=True)
        command += ["--span-out",
                    out / "spans" / f"{args.workload}-seed{args.seed}.bin"]
    try:
        done = subprocess.run([str(c) for c in command], stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{args.workload} exited with {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the last output line is not JSON")
    expected = expected_metrics(bool(args.trace))
    if expected is not None and list(result["metrics"]) != expected:
        fail("reported metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ set(expected))}")
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
