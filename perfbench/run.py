#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (which compiles the library from src/) into
.bench_build/perfbench, then runs the benchmark binary, which prints one
JSON result object as the last line of standard output; see
perfbench/README.md for the workloads and metrics.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("compile-cold", "verify-sim", "service-warm")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally. Returns the binary path."""
    here = os.path.dirname(os.path.abspath(__file__))
    binary = os.path.join(BUILD_DIR, "perfbench")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", here, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    before = os.stat(binary).st_mtime_ns if os.path.exists(binary) else None
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    if before != os.stat(binary).st_mtime_ns:
        # Digests recorded by an older binary say nothing about this one.
        digests = os.path.join(BUILD_DIR, "digests.txt")
        if os.path.exists(digests):
            os.remove(digests)
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        log("run from the repository root: src/ (the library sources) is missing")
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", BUILD_DIR]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"benchmark binary exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 3


if __name__ == "__main__":
    sys.exit(main())
