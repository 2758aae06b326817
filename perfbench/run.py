#!/usr/bin/env python3
"""Builds and runs the gaudisim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gaudisim checkout.  The first run configures and
builds the simulator library and the benchmark program into .bench_build/
(a few minutes); later runs rebuild only what changed.  The program's output
is passed through; its last line is one JSON object with the keys correct,
attempted, failed and metrics.  The metric names are checked against
BENCHMARK.json: every end-to-end metric with --trace 0, every per-layer
metric with --trace 1.  A traced run also writes its spans as Chrome-trace
JSON under .bench_build/traces/.

Every GAUDI_* knob the simulator reads is removed from the environment of
the measured process (the program clears them again and prints the resolved
values), so an inherited setting cannot change a measured run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("serve-ladder", "fleet-chaos", "paper-sweep", "train-functional")
GAUDI_ENV = ("GAUDI_TIMING_ONLY", "GAUDI_VALIDATE", "GAUDI_FAULTS",
             "GAUDI_FAULT_SEED", "GAUDI_GUARD", "GAUDI_MEMO_FILE")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the program; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no gaudisim sources next to the benchmark (missing src/)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", os.path.join(HERE, "paper_reference.csv")]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.trace.json" % (args.workload, args.seed))]
    env = {k: v for k, v in os.environ.items() if k not in GAUDI_ENV}
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              check=False, text=True)
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail("the benchmark exited with code %d" % done.returncode)

    lines = done.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        sys.stderr.write(done.stdout)
        fail("metrics differ from BENCHMARK.json: missing %s, unexpected %s"
             % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
