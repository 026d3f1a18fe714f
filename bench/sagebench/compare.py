#!/usr/bin/env python3
"""Compares two directories of SageBench results, metric by metric.

    compare.py BASE_DIR NEW_DIR [--bench BENCHMARK.json]

Each directory holds the result files sagebench writes (run.sh --out-dir).
Runs of the two sides are paired by workload and seed, in file order, so
alternate the two builds when producing them (see README.md). For every
workload and end-to-end metric the report gives each side's median and
quartiles, the pairs the new side won, and a verdict:

  regression   the new median is worse than the base median by more than
               the metric's bound in BENCHMARK.json
  gain         the new side won at least 9 of 10 pairs (ties count for
               neither) and the medians differ by more than the base
               side's interquartile distance; needs at least 10 pairs
  unresolved   the base side's own spread exceeds the bound, and not every
               new run beats every base run
  same         none of the above

A gain does not count when the new side failed more operations. Exits 1 on
any regression or incorrect run, 0 otherwise.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load(directory):
    """{(workload, seed): [result, ...]} of untraced runs, in file order."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            try:
                doc = json.load(f)
            except json.JSONDecodeError:
                continue
        if not isinstance(doc, dict) or "result" not in doc or doc.get("trace"):
            continue
        runs.setdefault((doc["workload"], doc["seed"]), []).append(doc["result"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(q):
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--bench",
                        default=os.path.join(here, "..", "..", "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.bench) as f:
        metrics = json.load(f)["end_to_end"]
    base, new = load(args.base), load(args.new)
    workloads = sorted({w for w, _ in base} & {w for w, _ in new})
    if not workloads:
        print("no workload has results on both sides", file=sys.stderr)
        return 1

    bad = False
    print(f"{'workload':13} {'metric':15} {'base median [q1, q3]':>30} "
          f"{'new median [q1, q3]':>30} {'change':>8} {'wins':>7}  verdict")
    for workload in workloads:
        pairs = []
        for (w, seed), base_runs in sorted(base.items()):
            if w == workload and (w, seed) in new:
                pairs += list(zip(base_runs, new[(w, seed)]))
        for side, name in ((base, "base"), (new, "new")):
            for (w, seed), runs in side.items():
                if w == workload and not all(r["correct"] for r in runs):
                    print(f"{workload}: {name} run with seed {seed} was "
                          "INCORRECT")
                    bad = True
        more_failures = (sum(n["failed"] for _, n in pairs) >
                         sum(b["failed"] for b, _ in pairs))
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "higher" else -1.0
            b = [p[0]["metrics"][name]["value"] for p in pairs]
            n = [p[1]["metrics"][name]["value"] for p in pairs]
            if not b:
                continue
            bq, nq = quartiles(b), quartiles(n)
            wins = sum(1 for x, y in zip(b, n) if sign * (y - x) > 0)
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            worse_by = -sign * change
            base_spread = (bq[2] - bq[0]) / bq[1] if bq[1] else 0.0
            all_better = (min(n) > max(b)) if sign > 0 else (max(n) < min(b))
            if worse_by > bound:
                verdict = "regression"
                bad = True
            elif (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and
                  abs(nq[1] - bq[1]) > bq[2] - bq[0] and not more_failures):
                verdict = "gain"
            elif base_spread > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "same"
            if len(pairs) < 10:
                verdict += " (fewer than 10 pairs)"
            print(f"{workload:13} {name:15} {spread(bq):>30} {spread(nq):>30} "
                  f"{100 * change:+7.2f}% {wins:3d}/{len(pairs):<3d}  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
