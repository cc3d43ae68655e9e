#!/usr/bin/env python3
"""Run each workload N times, alternating, and report how steady it is.

    python3 perfbench/steadiness.py [--runs 10]

The workloads and the run length (run_seconds) come from BENCHMARK.json.
Run i of every workload uses seed i + 1; the workloads take turns so slow
drift on the host lands on all of them alike. For every end-to-end metric
it prints the median, the quartiles (statistics.quantiles(n=4)), the
spread (Q3 - Q1) / median, and the gap between the medians of the first
and the second half of the runs, as a share of the overall median.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_once(workload, seed):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"steadiness: {' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"steadiness: {workload} seed {seed} broke a gate")
    return result


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    half = len(values) // 2
    gap = (abs(statistics.median(values[:half]) -
               statistics.median(values[half:])) if half else 0.0)
    scale = abs(med) if med else 1.0
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / scale, "half_gap": gap / scale}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    a = ap.parse_args()

    runs = {w: [] for w in WORKLOADS}
    for i in range(a.runs):
        for w in WORKLOADS:
            runs[w].append(run_once(w, i + 1))
            print(f"{w} run {i + 1}/{a.runs} done", file=sys.stderr)

    print(f"{'workload':9} {'metric':22} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'spread':>8} {'half_gap':>8}")
    for w in WORKLOADS:
        for name in sorted(runs[w][0]["metrics"]):
            s = summarize([r["metrics"][name]["value"] for r in runs[w]])
            print(f"{w:9} {name:22} {s['median']:14.6g} {s['q1']:14.6g} "
                  f"{s['q3']:14.6g} {s['spread']:8.2%} {s['half_gap']:8.2%}")


if __name__ == "__main__":
    main()
