#!/usr/bin/env python3
"""Build and run the dvsnet host-time benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dvsnet checkout.  Configures and builds
perfbench/ (which compiles the repository's own CMake project, library
only) into .bench_build/perfbench, runs one workload in its own process
and passes its output through: the last line on stdout is the JSON
result.  Build logs go to stderr.  Each run also leaves a full artifact
(provenance, per-rep data, check failures, spans) under
.bench_build/perfbench/runs/.  See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("twolevel_dvs", "uniform_loaded", "pareto_search")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build (a no-op when nothing changed)."""
    # CMake writes the Makefile only when configuration succeeded.
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(
            ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=True,
            timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "dvsnet_bench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr, check=True,
        timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD, "dvsnet_bench")


def git_describe():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return 1

    runs = os.path.join(BUILD, "runs")
    workdir = os.path.join(BUILD, "tmp")
    os.makedirs(runs, exist_ok=True)
    os.makedirs(workdir, exist_ok=True)
    artifact = os.path.join(
        runs, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--artifact", artifact,
               "--workdir", workdir, "--git", git_describe()]
    try:
        # subprocess.run kills and reaps the driver on timeout.
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        log(f"benchmark run failed: {e}")
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        log(f"driver exited with code {proc.returncode}; "
            f"artifact: {artifact}")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
