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
from dataclasses import replace

from asymcodes import SearchConfig, search_cyclic, search_extended
from asymcodes.bounds import TABLE2_REFERENCE
from asymcodes.cli import decimal, integer


def node_rate(meta: dict, seconds: float) -> str:
    """', N nodes, R nodes/s' for a run that counted its nodes, else ''."""
    if "nodes" not in meta:
        return ""
    nodes = int(meta["nodes"])
    return f", {nodes} nodes, {nodes / seconds:,.0f} nodes/s"


def run(max_m: int, exact: SearchConfig):
    """Plain searches for m = 3..max_m (exact up to m = 5, randomized-restart
    beyond, both with the seed and budget of `exact`), then exact split
    searches for m = 3..min(max_m, 5).  Lengths past Table 2 show no
    bundled score."""
    restarts = replace(exact, strategy="randomized-restart")
    runs = [(m, False) for m in range(3, max_m + 1)]
    runs += [(m, True) for m in range(3, min(max_m, 5) + 1)]
    for m, split in runs:
        search = search_extended if split else search_cyclic
        cfg = exact if split or m <= 5 else restarts
        search(m, SearchConfig(strategy="greedy"))
        t0 = time.monotonic()
        found = search(m, cfg)
        dt = time.monotonic() - t0
        meta = found[0].meta if split else found.meta
        ref = TABLE2_REFERENCE.get(2 * m + split, {"cyclic": "–"})["cyclic"]
        label, shown = ("split", "") if split else ("plain", f"{cfg.strategy}, ")
        print(
            f"{label} m={m}: score {meta['score']} (bundled {ref}) "
            f"optimal={meta['proven_optimal']} [{shown}{dt:.2f}s{node_rate(meta, dt)}]"
        )


if __name__ == "__main__":
    # the CLI's flag readers: io.parse_ints and io.parse_decimal
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-m", type=integer, default=5)
    ap.add_argument("--seed", type=integer, default=0)
    ap.add_argument("--budget", type=decimal, default=30.0)
    args = ap.parse_args()
    try:
        exact = SearchConfig(seed=args.seed, time_budget=args.budget)
    except ValueError as e:
        ap.error(str(e))  # a usage error: exit 2, no traceback
    run(args.max_m, exact)
