#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

Runs perfbench/run.py once per (workload, seed), one run at a time, and
reports for each (workload, metric) the median, the quartiles and the
spread (Q3 - Q1) / median, with the quartiles taken as Python's
statistics.quantiles(values, n=4) gives them. A spread above a third of
the metric's bound in BENCHMARK.json is flagged. It also records each
run's first (cold) set-up, which mlq_perfbench prints on stderr, and sets
its median beside that of setup_s, and each run's per-window ops, p50 and
p99 (ns) from the `windows` line on stderr. Run from the repo root:

    python3 perfbench/steadiness.py --seeds 1-10 --out set_a.json
    python3 perfbench/steadiness.py --seeds 11-20 --out set_b.json
    python3 perfbench/steadiness.py --compare set_a.json set_b.json

--compare reports, per (workload, metric), both sets' medians and how far
the second median is from the first as a share of the first, flagging
shifts in the worse direction larger than the bound.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def measure(args, spec, metrics):
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    runs = {}
    for workload in workloads:
        runs[workload] = []
        for seed in parse_seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            values = {k: v["value"] for k, v in result["metrics"].items()}
            cold = re.search(r"cold_setup_s=(\S+)", done.stderr)
            windows = re.search(r"^windows (.*)$", done.stderr, re.M)
            runs[workload].append({"seed": seed, "correct": result["correct"],
                                   "metrics": values,
                                   "cold_setup_s": float(cold.group(1)),
                                   "windows": windows.group(1).split()})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.6g}" for k, v in values.items()), flush=True)
    report(runs, metrics)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seconds": seconds, "runs": runs}, indent=1) + "\n")


def report(runs, metrics):
    print(f"\n{'workload':14} {'metric':20} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}")
    for workload, rows in runs.items():
        for name, m in metrics.items():
            s = summarize([r["metrics"][name] for r in rows])
            flag = "" if name == "setup_s" or s["spread"] <= m["bound"] / 3 \
                else "  <-- above bound/3"
            print(f"{workload:14} {name:20} {s['median']:12.6g} "
                  f"{s['q1']:12.6g} {s['q3']:12.6g} {s['spread']:7.4f} "
                  f"{m['bound']:6.3f}{flag}")
        cold = summarize([r["cold_setup_s"] for r in rows])
        print(f"{workload:14} {'cold set-up (s)':20} {cold['median']:12.6g} "
              f"{cold['q1']:12.6g} {cold['q3']:12.6g} {cold['spread']:7.4f}")


def compare(paths, metrics):
    a, b = (json.loads(Path(p).read_text())["runs"] for p in paths)
    print(f"{'workload':14} {'metric':20} {'median A':>12} {'median B':>12} "
          f"{'B vs A':>8} {'bound':>6}")
    for workload in a:
        for name, m in metrics.items():
            ma = statistics.median(r["metrics"][name] for r in a[workload])
            mb = statistics.median(r["metrics"][name] for r in b[workload])
            shift = (mb - ma) / ma if ma else 0.0
            worse = shift if m["better"] == "lower" else -shift
            flag = "  <-- worse than bound" if worse > m["bound"] else ""
            print(f"{workload:14} {name:20} {ma:12.6g} {mb:12.6g} "
                  f"{shift:8.4f} {m['bound']:6.3f}{flag}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated (default: all)")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--seconds", type=float,
                        help="run length (default: run_seconds)")
    parser.add_argument("--out", help="write the raw runs here (JSON)")
    parser.add_argument("--compare", nargs=2, metavar="RUNS_JSON")
    args = parser.parse_args()
    spec, metrics = load_spec()
    if args.compare:
        compare(args.compare, metrics)
    else:
        measure(args, spec, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
