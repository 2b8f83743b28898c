#!/usr/bin/env python3
"""Compares the benchmark results of two commits.

    python3 perfbench/compare.py BASE_RESULTS_DIR NEW_RESULTS_DIR

Each directory holds the full result files run.py writes to <build>/results
(one per workload, seed and trace mode). For every workload and end-to-end
metric it prints both medians and quartile spreads, the change against the
base median and a verdict against the metric's bound in BENCHMARK.json:

  ok          the new median is no worse than the bound allows
  WORSE       the new median is worse than the base by more than the bound
  unresolved  a side's spread is wider than the bound, so no call is made

It refuses (exit 2) to compare results of one workload whose host facts
(nproc, CPU model, L2/L3 sizes), active kernel ISA or load-generator
priority (`loadgen_nice`, serving workloads only) differ. Exit 1 when any
metric is WORSE.
"""

import glob
import json
import os
import statistics
import sys

HOST_KEYS = ("nproc", "cpu_model", "l2", "l3", "isa", "loadgen_nice")


def load(directory):
    results = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            results.append(json.load(f))
    if not results:
        sys.exit("no result files in %s" % directory)
    return results


def host(result):
    return tuple(result["provenance"].get(key) for key in HOST_KEYS)


def summary(values):
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q = statistics.quantiles(values, n=4)
    return median, (q[2] - q[0]) / median if median else 0.0


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load(argv[0]), load(argv[1])
    workloads = sorted({r["workload"] for r in base + new})
    for workload in workloads:
        hosts = {host(r) for r in base + new if r["workload"] == workload}
        if len(hosts) != 1:
            print("refusing to compare %s: host facts, kernel ISA or load "
                  "generator priority differ:" % workload)
            for facts in sorted(hosts, key=str):
                print("  " + ", ".join("%s=%s" % kv
                                       for kv in zip(HOST_KEYS, facts)))
            return 2

    worse = False
    print("%-8s %-12s %12s %7s %12s %7s %8s  %s" % (
        "workload", "metric", "base", "spread", "new", "spread", "change",
        "verdict"))
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sides = []
            for results in (base, new):
                values = [r["result"]["metrics"][name]["value"]
                          for r in results
                          if r["workload"] == workload and r["trace"] == 0
                          and name in r["result"]["metrics"]]
                sides.append(values)
            if not sides[0] or not sides[1]:
                continue
            (b_med, b_spread), (n_med, n_spread) = map(summary, sides)
            change = (n_med - b_med) / b_med
            worse_by = change if metric["better"] == "lower" else -change
            if max(b_spread, n_spread) > metric["bound"]:
                verdict = "unresolved"
            elif worse_by > metric["bound"]:
                verdict = "WORSE"
                worse = True
            else:
                verdict = "ok"
            print("%-8s %-12s %12.5g %7.3f %12.5g %7.3f %+7.1f%%  %s" % (
                workload, name, b_med, b_spread, n_med, n_spread,
                100 * change, verdict))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
