#!/usr/bin/env python3
"""Summarize benchmark run records across seeds.

Usage: python3 perfbench/summarize.py [--seeds LO-HI] [--trace 0|1]

Reads perfbench/results/run-*.json (one per workload, seed and trace mode)
and prints, per workload and metric, the number of runs, the median, the
quartiles and the spread (Q3 - Q1) / median, next to the metric's bound in
BENCHMARK.json.  A spread above a third of the bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default=None, help="inclusive seed range, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-")) if args.seeds else (None, None)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = defaultdict(lambda: defaultdict(list))
    failed = defaultdict(int)
    for path in sorted((HERE / "results").glob(f"run-*-trace{args.trace}.json")):
        rec = json.loads(path.read_text())
        if lo is not None and not lo <= rec["seed"] <= hi:
            continue
        failed[rec["workload"]] += rec["failed"] + len(rec["problems"])
        table = rec["per_layer"] if args.trace else {
            **rec["end_to_end"], "wall_s": rec["wall_s"], **rec["workload_metrics"]}
        for name, value in table.items():
            values[rec["workload"]][name].append(value)

    for workload, metrics in sorted(values.items()):
        runs = len(next(iter(metrics.values())))
        print(f"== {workload}: {runs} runs, {failed[workload]} failed ops or problems")
        print(f"   {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, vals in metrics.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "  <-- above bound/3" if bound is not None and spread > bound / 3 else ""
            print(f"   {name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}"
                  f" {'' if bound is None else bound:>6}{flag}")


if __name__ == "__main__":
    main()
