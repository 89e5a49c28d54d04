#!/usr/bin/env python3
"""Compares two benchmark result sets, parent against change (stdlib only).

Record each side with run.py's --record option, once per seed, from a
checkout of each commit, alternating which side runs first:

    python3 perfbench/run.py --workload W --seed S --seconds 20 --trace 0 \\
        --record parent.jsonl
    python3 perfbench/compare.py parent.jsonl change.jsonl

Runs pair up by (workload, seed). For every metric and workload the report
gives each side's median and quartiles, how many pairs the change won (ties
count for neither side) and, for the end-to-end metrics, a verdict under the
bounds in BENCHMARK.json:

  improved    the change wins at least 9 in 10 pairs and the medians differ
              by more than the parent's own interquartile range;
  no worse    the change's median is within the bound of the parent's;
  worse       the change's median is worse than the parent's by more than
              the bound;
  unresolved  the parent's own spread (interquartile range over median) is
              wider than the bound, so "no worse" cannot be told apart from
              noise, and not every change run beat every parent run.

A gain does not count on a workload where the change fails a larger share
of its trials than the parent.

Exit status is 1 when any verdict is "worse", else 0.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    """{(workload, metric): {seed: value}}, metric units, and per workload
    [trials attempted, trials failed]."""
    values, units, trials = {}, {}, {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            run = json.loads(line)
            for metric, m in run["result"]["metrics"].items():
                values.setdefault((run["workload"], metric), {})[run["seed"]] = (
                    m["value"])
                units[metric] = m["unit"]
            counts = trials.setdefault(run["workload"], [0, 0])
            counts[0] += run["result"]["attempted"]
            counts[1] += run["result"]["failed"]
    return values, units, trials


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def verdict(parent, change, better, bound, wins, pairs):
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (cm - pm)
    if pairs and wins >= 0.9 * pairs and gain > p3 - p1:
        return "improved"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if pm != 0 and (p3 - p1) / abs(pm) > bound and not all_better:
        return "unresolved"
    if gain < -bound * abs(pm):
        return "worse"
    return "no worse"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    parent, units, parent_trials = load(args.parent)
    change, change_units, change_trials = load(args.change)
    units.update(change_units)
    # A gain does not count when the change fails more trials.
    more_failures = set()
    for workload in sorted(set(parent_trials) & set(change_trials)):
        (pa, pf), (ca, cf) = parent_trials[workload], change_trials[workload]
        print(f"{workload}: failed trials parent {pf}/{pa}, change {cf}/{ca}")
        if cf / ca > pf / pa:
            more_failures.add(workload)

    rows, worse = [], False
    for key in sorted(set(parent) & set(change)):
        workload, metric = key
        spec = declared.get(metric, {"better": "lower"})
        seeds = sorted(set(parent[key]) & set(change[key]))
        sign = 1.0 if spec["better"] == "higher" else -1.0
        wins = sum(1 for s in seeds
                   if sign * (change[key][s] - parent[key][s]) > 0)
        p = list(parent[key].values())
        c = list(change[key].values())
        if "bound" in spec:
            v = verdict(p, c, spec["better"], spec["bound"], wins, len(seeds))
            if v == "improved" and workload in more_failures:
                v = "no worse (more failed trials)"
            worse |= v == "worse"
        else:
            v = "-"
        rows.append((workload, metric, units.get(metric, ""), quartiles(p),
                     quartiles(c), f"{wins}/{len(seeds)}", v))

    print(f"{'workload':16} {'metric':34} {'unit':6} "
          f"{'parent q1/median/q3':34} {'change q1/median/q3':34} "
          f"{'wins':7} verdict")
    for workload, metric, unit, pq, cq, wins, v in rows:
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
        print(f"{workload:16} {metric:34} {unit:6} {fmt(pq):34} "
              f"{fmt(cq):34} {wins:7} {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
