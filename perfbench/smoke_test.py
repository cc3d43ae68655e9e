#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/smoke_test.py

For every workload it runs run.py --smoke untraced on two seeds and traced
twice on one seed, and checks that
  - each run exits 0 and ends with a result object holding exactly the keys
    correct / attempted / failed / metrics, with every correctness gate
    passed and no operation failed;
  - the result names exactly the end-to-end (untraced) or per-layer
    (traced) metrics BENCHMARK.json declares, each with its declared unit;
  - simulated-time metrics and per-layer counts repeat exactly for a seed;
  - the run record names the percentile and sample count of every tail and
    the sample count of every floor.
Last, it runs the benchmark from a directory holding only BENCHMARK.json
and perfbench/, where it must fail without printing a result.
"""
import json
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Units whose values come from simulated time or counting, never a clock.
EXACT_UNITS = {"count", "B", "sim_ms", "sim_s"}

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL:", what, file=sys.stderr)


def run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "2", "--trace", str(trace),
           "--smoke"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    tag = f"{workload} seed {seed} trace {trace}"
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0, f"{tag}: exit code {proc.returncode}")
    if len(lines) < 2:
        check(False, f"{tag}: no run record and result")
        return None
    record = json.loads(lines[-2])["run_record"]
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{tag}: result keys {sorted(result)}")
    check(result["correct"] is True, f"{tag}: a correctness gate failed: "
          f"{record['gate_failures']}")
    check(result["failed"] == 0, f"{tag}: {result['failed']} failed")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{tag}: attempted {result['attempted']}")
    declared = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == want, f"{tag}: metrics differ from BENCHMARK.json: "
          f"missing {sorted(set(want) - set(got))}, "
          f"extra {sorted(set(got) - set(want))}, units "
          f"{sorted(k for k in want if k in got and got[k] != want[k])}")
    if trace == 0:
        tail = record["tails"].get("sim_latency_tail_ms", {})
        check(tail.get("percentile", 0) > 0 and tail.get("samples", 0) > 0,
              f"{tag}: no percentile/sample count for sim_latency_tail_ms")
        for name in ("latency_floor_ms", "setup_s"):
            check(record["floors"].get(name, {}).get("samples", 0) > 0,
                  f"{tag}: no sample count for {name}")
        for name, v in result["metrics"].items():
            check(v["value"] > 0, f"{tag}: {name} is {v['value']}")
    return result


for w in WORKLOADS:
    first = run(w, 1, 0)
    second = run(w, 2, 0)
    again = run(w, 1, 0)
    if first and again:
        for name in ("sim_latency_p50_ms", "sim_latency_tail_ms"):
            check(first["metrics"][name] == again["metrics"][name],
                  f"{w}: {name} differs between two runs of seed 1")
    t1 = run(w, 1, 1)
    t2 = run(w, 1, 1)
    if t1 and t2:
        for name, v in t1["metrics"].items():
            if v["unit"] in EXACT_UNITS:
                check(v == t2["metrics"][name],
                      f"{w}: traced {name} differs between runs of a seed "
                      f"({v['value']} vs {t2['metrics'][name]['value']})")
    print(f"{w}: ok" if not failures else f"{w}: checked", file=sys.stderr)

# Without the program's sources the benchmark must refuse, printing nothing
# that parses as a result.
bare = ROOT / ".bench_build" / "smoke_bare"
shutil.rmtree(bare, ignore_errors=True)
bare.mkdir(parents=True)
shutil.copy(ROOT / "BENCHMARK.json", bare)
shutil.copytree(HERE, bare / "perfbench",
                ignore=shutil.ignore_patterns("__pycache__"))
proc = subprocess.run(SPEC["command"] + ["--workload", WORKLOADS[0], "--seed",
                                         "1", "--seconds", "1", "--trace",
                                         "0"],
                      cwd=bare, stdout=subprocess.PIPE, text=True, timeout=180)
check(proc.returncode != 0, "bare directory: exit code 0")
check("\"metrics\"" not in proc.stdout, "bare directory: printed a result")
shutil.rmtree(bare, ignore_errors=True)

if failures:
    print(f"{len(failures)} failure(s)", file=sys.stderr)
    sys.exit(1)
print("perfbench smoke test: all workloads ok")
