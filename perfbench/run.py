#!/usr/bin/env python3
"""Build and run the trisim benchmark.

    python3 perfbench/run.py --workload sweep|campaign|profile|replay \\
        --seed N --seconds S --trace 0|1

Run from the root of a trisim checkout. The first call configures and
builds perfbench/ (which compiles ../src) in Release mode under
.bench_build/; later calls only rebuild what changed. The benchmark's
last stdout line is its result object; traced runs also leave their
spans (Perfetto JSON) and per-layer metrics under
.bench_build/perfbench/results/. Held-out seed: 7919 (see
perfbench/METRICS.md).
"""
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure and build; returns the binary path or None."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        log("no trisim sources (src/) here: run from a checkout root")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(BUILD_DIR, "perfbench")


def main(argv):
    binary = build()
    if binary is None:
        return 1
    results = os.path.join(BUILD_DIR, "results")
    os.makedirs(results, exist_ok=True)
    cmd = [binary] + argv
    if "--workload" in argv:
        cmd += ["--out", results]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
