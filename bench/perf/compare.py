#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

Each input file holds the JSON result line of `run.py --workload all`
(metrics keyed "<workload>.<metric>") or of a single-workload run. Give the
runs of both sides in the order they were made; pair i is (parent[i],
change[i]), and the sides should alternate which runs first:

    python3 bench/perf/compare.py --parent p1.json ... p10.json --change c1.json ... c10.json

One row per workload and end-to-end metric: both medians and quartiles,
the change's pair wins, and a verdict:

  unresolved  either side's interquartile range, as a share of its median,
              exceeds the metric's bound from BENCHMARK.json, and not every
              change run reads better than every parent run
  improved    the change wins at least 9 of 10 pairs and the medians differ
              by more than the parent's interquartile range
  regressed   the change's median is worse than the parent's by more than
              the bound
  unchanged   otherwise

A rise in failed operations is always a regression. With --summarize the
script prints medians and quartiles of one set of runs instead (the form
of BASELINE.json).
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load(path):
    """{(workload, metric): value} plus the failed-operation share of one run."""
    with open(path) as f:
        text = f.read().strip().splitlines()[-1]
    result = json.loads(text)
    values = {}
    for key, metric in result["metrics"].items():
        workload, dot, name = key.partition(".")
        if not dot:
            workload, name = "-", key
        values[(workload, name)] = metric["value"]
    values[("-", "failed_ops_frac")] = result["failed"] / max(1, result["attempted"])
    return values


def stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def spread(s):
    return (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0


def verdict(parent, change, better, bound):
    p, c = stats(parent), stats(change)
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    gap = sign * (c["median"] - p["median"])
    worse = -gap / abs(p["median"]) if p["median"] else 0.0
    best_parent = max(parent) if better == "higher" else min(parent)
    all_better = all(sign * (v - best_parent) > 0 for v in change)
    if max(spread(p), spread(c)) > bound and not all_better:
        return p, c, wins, "unresolved"
    if wins >= 0.9 * len(parent) and gap > p["q3"] - p["q1"]:
        return p, c, wins, "improved"
    if worse > bound:
        return p, c, wins, "regressed"
    return p, c, wins, "unchanged"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="*", default=[])
    parser.add_argument("--summarize", action="store_true")
    args = parser.parse_args()

    parent = [load(p) for p in args.parent]
    if args.summarize:
        keys = sorted(set().union(*parent))
        summary = {}
        for workload, metric in keys:
            values = [run[(workload, metric)] for run in parent if (workload, metric) in run]
            summary.setdefault(workload, {})[metric] = stats(values)
        print(json.dumps(summary, indent=1, sort_keys=True))
        return 0

    if len(args.change) != len(args.parent):
        sys.exit("compare.py: give as many --change runs as --parent runs")
    if len(args.parent) < 10:
        print(f"warning: {len(args.parent)} pairs; the verdict rules assume at least 10",
              file=sys.stderr)
    change = [load(c) for c in args.change]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = {m["name"]: m for m in json.load(f)["end_to_end"]}

    print(f"{'workload':15s} {'metric':18s} {'parent median [q1,q3]':>34s} "
          f"{'change median [q1,q3]':>34s} {'wins':>6s}  verdict")
    regressed = False
    keys = sorted(k for k in set().union(*parent) if k[1] in metrics)
    for workload, metric in keys:
        p_vals = [run[(workload, metric)] for run in parent]
        c_vals = [run[(workload, metric)] for run in change]
        m = metrics[metric]
        p, c, wins, v = verdict(p_vals, c_vals, m["better"], m["bound"])
        regressed = regressed or v == "regressed"
        print(f"{workload:15s} {metric:18s} "
              f"{p['median']:12.5g} [{p['q1']:9.5g},{p['q3']:9.5g}] "
              f"{c['median']:12.5g} [{c['q1']:9.5g},{c['q3']:9.5g}] "
              f"{wins:3d}/{len(p_vals):<2d}  {v}")
    p_failed = max(run[("-", "failed_ops_frac")] for run in parent)
    c_failed = max(run[("-", "failed_ops_frac")] for run in change)
    failed_verdict = "regressed" if c_failed > p_failed else "unchanged"
    regressed = regressed or failed_verdict == "regressed"
    print(f"{'-':15s} {'failed_ops_frac':18s} {p_failed:34.5g} {c_failed:34.5g} {'':6s}  "
          f"{failed_verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
