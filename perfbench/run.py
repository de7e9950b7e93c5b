#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload table1_sweep --seed 1 --seconds 30 --trace 0

Configures and builds perfbench/ (the library sources under src/ plus the
benchmark program) into .bench_build/perfbench with CMake, runs the
statistics self-test, then runs the workload. While it runs, short-lived
processes time the workload's set-up. The program's last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}; this script
checks that its metric names are exactly those BENCHMARK.json lists and
exits non-zero when they are not or when any output was wrong.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("table1_sweep", "spec_heavy", "serve_mixed")
# Extra set-up measurements in their own processes, taken while the workload
# runs; with the main run's own set-up the reported setup_s is the median of
# SETUP_PROBES + 1 samples.
SETUP_PROBES = 20
# Slack beyond --seconds for the overrun of the last pass and the
# post-measurement correctness checks.
RUN_SLACK_S = 120


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, what):
    """Runs a build step with its output on stderr; exits on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(what + " failed", 3)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at src/ next to perfbench/; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    run_quiet(configure, "cmake configure")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs], "cmake build")
    run_quiet([os.path.join(BUILD_DIR, "perfbench_selftest")], "statistics self-test")


def setup_probe(binary, common, seconds):
    """Runs one set-up-only process; returns its set-up time in seconds."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [binary] + common + ["--seconds", str(seconds), "--trace", "0",
                             "--setup-only", "--t0", repr(t0)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=60)
    if proc.returncode != 0:
        fail("set-up probe failed", 1)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    binary = os.path.join(BUILD_DIR, "perfbench")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--designs", os.path.join(HERE, "designs"), "--out", OUT_DIR]

    cmd = [binary] + common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    t0 = time.monotonic()
    main_proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT, stdout=subprocess.PIPE,
                                 text=True)
    samples = []
    try:
        if not args.trace:
            # The set-up probes are spread over the run: the host's speed
            # changes in stretches of seconds, and probes taken back to back
            # would all land in one stretch.
            interval = args.seconds / (SETUP_PROBES + 1)
            deadline = time.monotonic() + args.seconds
            while len(samples) < SETUP_PROBES:
                if time.monotonic() < deadline:
                    time.sleep(interval)
                samples.append(setup_probe(binary, common, args.seconds))
        out, _ = main_proc.communicate(
            timeout=max(1.0, t0 + args.seconds + RUN_SLACK_S - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("workload run timed out", 1)
    finally:
        if main_proc.poll() is None:
            main_proc.kill()
            main_proc.wait()
    lines = out.strip().splitlines()
    if not lines:
        fail("workload printed nothing (exit %d)" % main_proc.returncode, 1)
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    if want is not None and list(result["metrics"]) != want:
        fail("metric names differ from BENCHMARK.json: got %s" % list(result["metrics"]), 1)
    if samples:
        # The probes' set-ups at the main run's reference pace, like its own.
        pace = next(float(l.split()[-1]) for l in lines if l.startswith("# pace_factor "))
        samples = [s / pace for s in samples]
        samples.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(samples)
        lines[-1] = ("# setup_s: median of %d set-ups (process spawn to first timed operation,"
                     " at the reference pace)\n" % len(samples)) + json.dumps(result)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return 0 if main_proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
