#!/usr/bin/env python3
"""Compares two sets of churnlab_e2e runs, metric by metric.

    python3 e2ebench/compare.py BASE_DIR CHANGE_DIR [--benchmark FILE]

Each directory holds result.json files (found recursively), one per
untraced run; runs marked invalid (read_mix's load generator ran late or
slow) are left out and listed. For every (end-to-end metric, workload)
pair it prints each
side's median and quartiles, the change's win share and a verdict against
the metric's bound in BENCHMARK.json:

  better      every change run beats every base run, or the change wins at
              least 9 of 10 pairs and its median beats the base's by more
              than the base's own quartile spread
  unresolved  a side's spread (quartile distance / median) exceeds the
              bound, so the runs cannot show a change of that size
  regression  the change's median is worse than the base's by more than
              the bound
  within      none of the above

Runs are paired by seed when both sides ran the same seeds, otherwise
every base run is paired with every change run; ties count for neither
side. Exits 1 when any pair is a regression.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory):
    """Valid runs by workload, and the invalid runs left out, by workload."""
    runs, invalid = {}, {}
    pattern = os.path.join(directory, "**", "result.json")
    for path in sorted(glob.glob(pattern, recursive=True)):
        with open(path) as f:
            result = json.load(f)
        kept = invalid if result.get("valid") is False else runs
        kept.setdefault(result["workload"], []).append(result)
    return runs, invalid


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def pairs(base, change, metric):
    by_seed_base = {r["seed"]: r["metrics"][metric]["value"] for r in base}
    by_seed_change = {r["seed"]: r["metrics"][metric]["value"]
                      for r in change}
    if set(by_seed_base) == set(by_seed_change):
        return [(by_seed_base[s], by_seed_change[s]) for s in by_seed_base]
    return [(b["metrics"][metric]["value"], c["metrics"][metric]["value"])
            for b in base for c in change]


def verdict(base_values, change_values, pair_values, higher_better, bound):
    def better(a, b):  # b improves on a
        return b > a if higher_better else b < a

    base_median = statistics.median(base_values)
    change_median = statistics.median(change_values)
    worse_by = (change_median - base_median) / base_median
    if higher_better:
        worse_by = -worse_by
    wins = sum(1 for a, b in pair_values if better(a, b))
    losses = sum(1 for a, b in pair_values if better(b, a))
    win_share = wins / len(pair_values) if pair_values else 0.0
    all_better = all(better(a, b) for a in base_values for b in change_values)
    if all_better or (win_share >= 0.9 and -worse_by > spread(base_values)):
        label = "better"
    elif max(spread(base_values), spread(change_values)) > bound:
        label = "unresolved"
    elif worse_by > bound:
        label = "regression"
    else:
        label = "within"
    return label, worse_by, win_share, wins, losses


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    (base_runs, base_invalid), (change_runs, change_invalid) = (
        load_runs(args.base), load_runs(args.change))
    workloads = sorted(set(base_runs) & set(change_runs))
    if not workloads:
        sys.exit("compare.py: no workload has result.json files on both sides")
    for side, invalid in (("base", base_invalid), ("change", change_invalid)):
        for workload, results in sorted(invalid.items()):
            print("%s: left out %d invalid %s run(s) (seeds %s)" %
                  (side, len(results), workload,
                   ", ".join(str(r["seed"]) for r in results)))

    header = ("%-14s %-26s %-33s %-33s %8s %6s  %s" %
              ("workload", "metric", "base median [q1, q3]",
               "change median [q1, q3]", "worse", "wins", "verdict"))
    print(header)
    regressions = 0
    for workload in workloads:
        base, change = base_runs[workload], change_runs[workload]
        for metric in metrics:
            name = metric["name"]
            base_values = [r["metrics"][name]["value"] for r in base]
            change_values = [r["metrics"][name]["value"] for r in change]
            label, worse_by, win_share, wins, losses = verdict(
                base_values, change_values, pairs(base, change, name),
                metric["better"] == "higher", metric["bound"])
            regressions += label == "regression"
            b1, bm, b3 = quartiles(base_values)
            c1, cm, c3 = quartiles(change_values)
            print("%-14s %-26s %-33s %-33s %7.1f%% %5.0f%%  %s "
                  "(spreads %.1f%% / %.1f%%, bound %.0f%%, n=%d/%d, "
                  "%d wins %d losses)" %
                  (workload, name, "%.5g [%.5g, %.5g]" % (bm, b1, b3),
                   "%.5g [%.5g, %.5g]" % (cm, c1, c3), 100 * worse_by,
                   100 * win_share, label, 100 * spread(base_values),
                   100 * spread(change_values), 100 * metric["bound"],
                   len(base_values), len(change_values), wins, losses))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
