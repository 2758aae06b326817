#!/usr/bin/env python3
"""Compares two benchmark results: exact metrics must match, host metrics warn.

    python3 scripts/bench_diff.py OLD NEW [--seed N] [--trace 0|1]

OLD and NEW are each either a result file, whose last line is the JSON
object `perfbench/run.py` prints, or a committed BENCH_<workload>.json
trajectory, from which the newest run at --seed (default 1) and --trace
(default 1) is taken.

Exact metrics are all metrics whose unit is not a host unit (s, us, ms, MiB,
GFLOP/s), except bench.trace_overhead_pct, which is a ratio of two host
times.  They are simulated or counted, so they repeat bit for bit.  The
result's `correct` and `failed` fields are compared with them.  Any
difference, or a metric that only one side reports, makes the exit status 1.

Host metrics vary between machines and runs.  Each one that has a bound in
BENCHMARK.json is printed with its relative change, as a warning when it
moved the wrong way by more than that bound.  These never change the exit
status.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOST_UNITS = {"s", "us", "ms", "MiB", "GFLOP/s"}
NOT_EXACT = {"bench.trace_overhead_pct"}
EXACT_FIELDS = ("correct", "failed")


def load(path, seed, trace):
    """The result object in `path`: a result line or a BENCH trajectory."""
    with open(path) as f:
        text = f.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = json.loads(text.rstrip("\n").split("\n")[-1])
    if "runs" not in doc:
        return doc
    runs = [r for r in doc["runs"] if r["seed"] == seed and r["trace"] == trace]
    if not runs:
        sys.exit("bench_diff: %s holds no run at seed %d, trace %d"
                 % (path, seed, trace))
    return runs[-1]["result"]


def is_exact(name, unit):
    return unit not in HOST_UNITS and name not in NOT_EXACT


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    args = parser.parse_args()
    old = load(args.old, args.seed, args.trace)
    new = load(args.new, args.seed, args.trace)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {row["name"]: row for row in spec["end_to_end"]}

    differences = []
    for field in EXACT_FIELDS:
        if old.get(field) != new.get(field):
            differences.append("%s: %s -> %s" % (field, old.get(field),
                                                 new.get(field)))
    om, nm = old["metrics"], new["metrics"]
    for name in sorted(set(om) | set(nm)):
        o, n = om.get(name), nm.get(name)
        unit = (o or n)["unit"]
        if o is None or n is None:
            if is_exact(name, unit):
                differences.append("%s: reported by %s only"
                                   % (name, "NEW" if o is None else "OLD"))
            continue
        if is_exact(name, unit):
            if o["value"] != n["value"] or o["unit"] != n["unit"]:
                differences.append("%s: %r -> %r %s"
                                   % (name, o["value"], n["value"], unit))
            continue
        bound = bounds.get(name)
        if bound is None or o["value"] == 0:
            continue
        change = (n["value"] - o["value"]) / o["value"]
        worse = change > bound["bound"] if bound["better"] == "lower" \
            else -change > bound["bound"]
        print("%shost %s: %.4g -> %.4g %s (%+.1f%%, bound %.0f%%)"
              % ("warning: " if worse else "", name, o["value"], n["value"],
                 unit, 100 * change, 100 * bound["bound"]))

    if differences:
        print("exact metrics differ:")
        for line in differences:
            print("  " + line)
        return 1
    print("exact metrics identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
