#!/usr/bin/env python3
"""Build the program and the benchmark, then run one workload.

    python3 perfbench/run.py --workload fleet|campaign|live|insitu \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere inside a source checkout. The first run configures the
repository's own CMake project (the tier-1 configuration) under
.bench_build/tier1 and builds only the static libraries the benchmark
links, then builds the benchmark binary under .bench_build/perfbench;
later runs find both up to date. The last line of stdout is the result
object; the line before it is the run record. Exits non-zero, without a
result, when the checkout cannot be built, and non-zero with a result
whose "correct" is false when a correctness gate fails.
"""
import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
TIER1 = BUILD / "tier1"
BENCH = BUILD / "perfbench"
LIBS = ["ioc_svc", "ioc_fed"]  # they pull in every library perfbench links
JOBS = str(min(4, os.cpu_count() or 1))


def sh(cmd, log):
    """Run a build step, appending its output to `log`; exit on failure."""
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        rc = subprocess.run(cmd, stdout=out,
                            stderr=subprocess.STDOUT).returncode
    if rc != 0:
        tail = pathlib.Path(log).read_text(errors="replace").splitlines()[-40:]
        sys.stderr.write("\n".join(tail) + "\n")
        sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"perfbench: {ROOT} is not a source checkout of the program")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    log.write_text("")
    if not (TIER1 / "CMakeCache.txt").is_file():
        sh(["cmake", "-S", str(ROOT), "-B", str(TIER1),
            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log)
    sh(["cmake", "--build", str(TIER1), "-j", JOBS, "--target", *LIBS], log)
    if not (BENCH / "CMakeCache.txt").is_file():
        sh(["cmake", "-S", str(HERE), "-B", str(BENCH),
            f"-DIOC_SOURCE_DIR={ROOT}", f"-DIOC_BUILD_DIR={TIER1}"], log)
    sh(["cmake", "--build", str(BENCH), "-j", JOBS], log)
    return BENCH / "perfbench"


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["fleet", "campaign", "live", "insitu"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the self-test only")
    a = ap.parse_args()

    exe = build()
    cmd = [str(exe), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace,
           "--repo", str(ROOT), "--git-sha", git_sha()]
    if a.trace == "1":
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{a.workload}.trace.json")]
    if a.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: the run did not finish within 170 s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
