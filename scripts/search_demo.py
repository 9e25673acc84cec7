#!/usr/bin/env python3
"""Run the shift-closed code searches across small lengths and compare the
scores against the bundled generator tables.  Exact runs also print the
branch-and-bound nodes they expanded and the nodes per second.

Usage: python scripts/search_demo.py [--max-m 5] [--seed 0] [--budget 30]

A greedy run builds each search graph first, so the seconds and the rate
are the search's own and leave the graph build out.
"""

from __future__ import annotations

import argparse
import time

from asymcodes import SearchConfig, search_cyclic, search_extended
from asymcodes.bounds import TABLE2_REFERENCE


def node_rate(meta: dict, seconds: float) -> str:
    """', N nodes, R nodes/s' for a run that counted its nodes, else ''."""
    if "nodes" not in meta:
        return ""
    nodes = int(meta["nodes"])
    return f", {nodes} nodes, {nodes / seconds:,.0f} nodes/s"


def run(max_m: int, seed: int, budget: float):
    for m in range(3, max_m + 1):
        strategy = "exact-clique" if m <= 5 else "randomized-restart"
        cfg = SearchConfig(seed=seed, time_budget=budget, strategy=strategy)
        search_cyclic(m, SearchConfig(strategy="greedy"))
        t0 = time.monotonic()
        code = search_cyclic(m, cfg)
        dt = time.monotonic() - t0
        ref = TABLE2_REFERENCE[2 * m]["cyclic"]
        print(
            f"plain m={m}: score {code.meta['score']} (bundled {ref}) "
            f"optimal={code.meta['proven_optimal']} [{strategy}, {dt:.2f}s{node_rate(code.meta, dt)}]"
        )
    for m in range(3, min(max_m, 5) + 1):
        cfg = SearchConfig(seed=seed, time_budget=budget, strategy="exact-clique")
        search_extended(m, SearchConfig(strategy="greedy"))
        t0 = time.monotonic()
        part0, part1 = search_extended(m, cfg)
        dt = time.monotonic() - t0
        score = int(part0.meta["score"])
        ref = TABLE2_REFERENCE[2 * m + 1]["cyclic"]
        print(
            f"split m={m}: score {score} (bundled {ref}) "
            f"optimal={part0.meta['proven_optimal']} [{dt:.2f}s{node_rate(part0.meta, dt)}]"
        )


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-m", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--budget", type=float, default=30.0)
    args = ap.parse_args()
    run(args.max_m, args.seed, args.budget)
