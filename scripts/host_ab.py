#!/usr/bin/env python3
"""Compares the host times of two revisions on one benchmark workload.

    python3 scripts/host_ab.py --base REV [--change REV] --workload W
                               [--seed N] [--pairs P] [--seconds S]

Each side is built and run through its own perfbench/run.py.  A revision is
checked out in a git worktree under .bench_build/ab/<sha>; the change side
is the working tree unless --change names a revision.  After one short
build run per side, the script runs P pairs of fresh `run.py --trace 0`
processes, alternating which side goes first.

For every host end-to-end metric it prints, per side, the median over the
processes of the value each process reports, the quartiles, the minimum and
the share of slow processes (over 1.2x that side's minimum), and how many
pairs the change won (ties count for neither side).  It prints a claim only
with at least 10 pairs, one side winning at least 9 in 10 of them, and
medians further apart than the base's interquartile range; the claim names
the estimator it rests on.  A single slow process cannot make or break a
claim, but a change that makes slow processes more common shows in the
slow share and the quartiles.

Exact metrics (scripts/bench_diff.py's rule), `correct` and `failed` must be
the same in every run of both sides.  Any difference makes the exit status 1.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from bench_diff import EXACT_FIELDS, HOST_UNITS, is_exact  # noqa: E402

SLOW = 1.2
MIN_PAIRS = 10
WIN_SHARE = 0.9


def fail(message):
    print("host_ab: " + message, file=sys.stderr)
    sys.exit(1)


def git(*args):
    done = subprocess.run(["git", "-C", ROOT] + list(args), text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if done.returncode != 0:
        fail("git %s: %s" % (" ".join(args), done.stderr.strip()))
    return done.stdout.strip()


def checkout(rev):
    """(label, root) of a worktree holding revision `rev`."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    path = os.path.join(ROOT, ".bench_build", "ab", sha)
    if not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
        git("worktree", "prune")
        git("worktree", "add", "--detach", path, sha)
    return "%s (%s)" % (sha[:12], rev), path


def run(root, args, seconds):
    """The result object of one run.py process in checkout `root`."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, text=True, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail("%s exited with code %d" % (" ".join(cmd), done.returncode))
    return json.loads(done.stdout.rstrip("\n").split("\n")[-1])


def exact_part(result):
    part = {field: result.get(field) for field in EXACT_FIELDS}
    for name, m in result["metrics"].items():
        if is_exact(name, m["unit"]):
            part[name] = (m["value"], m["unit"])
    return part


def quantile(values, q):
    """Linear interpolation between the closest ranks of sorted `values`."""
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def describe(values):
    v = sorted(values)
    return {"median": quantile(v, 0.5), "q1": quantile(v, 0.25),
            "q3": quantile(v, 0.75), "min": v[0],
            "slow": sum(x > SLOW * v[0] for x in v) / len(v)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=5)
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        fail("--pairs and --seconds must be >= 1")

    sides = {"base": checkout(args.base),
             "change": checkout(args.change) if args.change
             else ("working tree", ROOT)}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    host = [row for row in spec["end_to_end"] if row["unit"] in HOST_UNITS]

    for side, (label, root) in sides.items():
        print("host_ab: building %s: %s" % (side, label), file=sys.stderr)
        run(root, args, 1)

    results = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            results[side].append(run(sides[side][1], args, args.seconds))
        print("host_ab: pair %d of %d done (%s first)"
              % (i + 1, args.pairs, order[0]), file=sys.stderr)

    differences = []
    reference = exact_part(results["base"][0])
    for side in ("base", "change"):
        for i, result in enumerate(results[side]):
            part = exact_part(result)
            for name in sorted(set(reference) | set(part)):
                if part.get(name) != reference.get(name):
                    differences.append("%s run %d: %s is %r, base run 1 has %r"
                                       % (side, i + 1, name, part.get(name),
                                          reference.get(name)))

    print("%s, seed %d, %d pairs of %d s processes"
          % (args.workload, args.seed, args.pairs, args.seconds))
    for side, (label, _) in sides.items():
        print("  %-6s %s" % (side, label))
    print("%-18s %-6s %11s %11s %11s %11s %5s"
          % ("metric", "side", "median", "q1", "q3", "min", "slow"))
    claims = []
    for row in host:
        name, unit = row["name"], row["unit"]
        values = {side: [r["metrics"][name]["value"] for r in results[side]]
                  for side in results}
        stats = {side: describe(values[side]) for side in values}
        for side in ("base", "change"):
            s = stats[side]
            print("%-18s %-6s %11.4g %11.4g %11.4g %11.4g %4.0f%%"
                  % (name if side == "base" else "", side, s["median"],
                     s["q1"], s["q3"], s["min"], 100 * s["slow"]))
        sign = 1 if row["better"] == "lower" else -1
        won = sum(sign * (c - b) < 0
                  for b, c in zip(values["base"], values["change"]))
        lost = sum(sign * (c - b) > 0
                   for b, c in zip(values["base"], values["change"]))
        print("%-18s change won %d of %d pairs, lost %d"
              % ("", won, args.pairs, lost))

        base, change = stats["base"], stats["change"]
        iqr = base["q3"] - base["q1"]
        gap = change["median"] - base["median"]
        leader = max(won, lost)
        direction = "better" if won > lost else "worse"
        if (args.pairs < MIN_PAIRS or leader < WIN_SHARE * args.pairs
                or abs(gap) <= iqr or (sign * gap < 0) != (won > lost)):
            claims.append("no claim on %s: the change won %d and lost %d of "
                          "%d pairs; the medians differ by %.4g %s against "
                          "the base's interquartile range of %.4g %s"
                          % (name, won, lost, args.pairs, abs(gap), unit, iqr,
                             unit))
            continue
        claims.append(
            "claim: %s is %s on the change, by the median over processes of "
            "each process's value: %.4g -> %.4g %s (%+.1f%%); the change won "
            "%d and lost %d of %d pairs, and the medians differ by more than "
            "the base's interquartile range (%.4g %s)"
            % (name, direction, base["median"], change["median"], unit,
               100 * gap / base["median"] if base["median"] else 0.0, won,
               lost, args.pairs, iqr, unit))
    for line in claims:
        print(line)

    if differences:
        print("exact metrics differ between runs:")
        for line in differences:
            print("  " + line)
        return 1
    print("exact metrics identical in all %d runs" % (2 * args.pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
