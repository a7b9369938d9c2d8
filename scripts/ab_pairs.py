#!/usr/bin/env python3
"""Compare two checkouts on benchmark workloads, in alternating pairs.

Usage:

    python3 scripts/ab_pairs.py PARENT_ROOT CHANGE_ROOT --workload scan \
        [--workload roundtrip ...] --seed 1 --pairs 10

--workload may be given more than once: the workloads run one after the
other, each with its own pairs. Each pair runs `bench/run.py --trace 0`
once in each checkout, one run after the other, and the checkout that
runs first alternates from pair to pair, so drift on the machine falls on
both sides alike. Runs last --seconds each (default: the `run_seconds` of
the parent's BENCHMARK.json, what the benchmark itself uses).

For every workload and every end-to-end metric of the parent's
BENCHMARK.json, one JSON line gives the workload, the metric, both
medians, the parent's interquartile range, the pairs the change wins (a
tie counts for neither side), every run's value, `clears`: whether a gain
on that metric may be claimed, that is, the change wins at least nine
tenths of the pairs and its median is better than the parent's by more
than the parent's interquartile range, and `regresses`: whether the
change's median is worse than the parent's by more than the metric's
`bound` in BENCHMARK.json, as a fraction of the parent's median. A
workload's lines are printed when its pairs are done.

The exit code is 1 when a run fails (its stderr is shown), else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import numpy as np


def run_once(root, workload, seed, seconds):
    """One `bench/run.py --trace 0` run in checkout `root`: its end-to-end
    metrics, name -> value."""
    argv = [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError("%s exited %d:\n%s" % (root, done.returncode, done.stderr))
    result = json.loads(done.stdout.splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def compare(parent, change, better, bound):
    """The summary line for one metric: `parent` and `change` are the runs'
    values, pair by pair; `better` is "lower" or "higher", and `bound` the
    largest worsening allowed, as a fraction of the parent's median."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (y - x) > 0 for x, y in zip(parent, change))
    q1, q3 = np.percentile(parent, [25, 75]).tolist()
    middle = statistics.median(parent)
    gap = sign * (statistics.median(change) - middle)
    return {
        "parent": middle,
        "change": statistics.median(change),
        "parentIqr": q3 - q1,
        "wins": wins,
        "pairs": len(parent),
        "clears": 10 * wins >= 9 * len(parent) and gap > q3 - q1,
        "regresses": -gap > bound * abs(middle),
        "parentRuns": parent,
        "changeRuns": change,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_root")
    parser.add_argument("change_root")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open(os.path.join(args.parent_root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    roots = (args.parent_root, args.change_root)
    for workload in args.workload:
        parent, change = runs = ([], [])
        try:
            for pair in range(args.pairs):
                for side in (1, 0) if pair % 2 else (0, 1):
                    runs[side].append(run_once(roots[side], workload, args.seed, seconds))
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
        for metric in spec["end_to_end"]:
            name = metric["name"]
            line = compare([r[name] for r in parent], [r[name] for r in change],
                           metric["better"], metric["bound"])
            line = dict(workload=workload, metric=name, better=metric["better"], **line)
            print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
