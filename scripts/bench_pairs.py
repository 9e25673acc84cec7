#!/usr/bin/env python3
"""Benchmark a change against its parent commit in alternating pairs.

Usage (from the root of a checkout):

    python3 scripts/bench_pairs.py --out BENCH_22.json \\
        [--base HEAD] [--seed 2200] [--seconds N] \\
        [--pairs build-verify=10 search=10 decode-sim=3]

The parent (--base, HEAD by default) is unpacked from `git archive` into
a temporary directory; the change is the working tree, copied as `git
ls-files` lists it (tracked and untracked, ignored files left out) into
the same temporary directory, so both sides run from fresh directories
and nothing is written into the working tree.  Each pair runs
`perfbench/run.py --workload W --seed S --seconds T --trace 0` once on
each side; even pairs run the parent first, odd pairs the change first.
--seconds defaults to BENCHMARK.json's run_seconds, the run length the
benchmark sets.

The output file has one schema: per workload and end-to-end metric, the
q1, median and q3 of each side over the pairs (statistics.quantiles,
inclusive method), every run's value, the number of pairs in which the
change did better, the median change relative to the parent's median
beside the metric's bound from BENCHMARK.json, and a verdict: `within
bound`, `worse than bound`, or `unresolved` where the parent's own
spread (q3 - q1 over its median) is wider than the bound and not every
run of the change reads better than every run of the parent; the same,
without a bound or verdict, under `workload_metrics` for each workload's
own figures (decode latencies, trial rates) from the run's result file;
and every run's `correct`, `attempted` and `failed`.  Both copies are
removed when the script ends, also on failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

ROOT = Path.cwd()
DEFAULT_PAIRS = ("build-verify=10", "search=10", "decode-sim=3")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def copy_working_tree(dest: Path):
    """The working tree's files as `git ls-files` lists them, ignored ones left out."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, listed):
        src = ROOT / name
        if src.is_file():  # a deleted tracked file is listed but gone
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One `perfbench/run.py --trace 0` run: its result line, or a failed record."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 0, "failed": None, "metrics": {},
                "error": (proc.stderr or proc.stdout)[-2000:]}
    line = json.loads(lines[-1])
    record = tree / "perfbench" / "results" / f"run-{workload}-seed{seed}-trace0.json"
    return {"correct": line["correct"], "attempted": line["attempted"], "failed": line["failed"],
            "metrics": {k: v["value"] for k, v in line["metrics"].items()},
            "workload_metrics": json.loads(record.read_text())["workload_metrics"]}


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(q2, 4), round(q3, 4)]


def verdict(parent: list[float], change: list[float], lower: bool, bound) -> str | None:
    if bound is None:
        return None
    base = statistics.median(parent)
    q1, _, q3 = quartiles(parent)
    better = max(change) < min(parent) if lower else min(change) > max(parent)
    if (q3 - q1) / base > bound and not better:
        return "unresolved"
    worse = (statistics.median(change) - base) / base * (1 if lower else -1)
    return "within bound" if worse <= bound else "worse than bound"


def summarize(runs: list[dict], declared: dict, key: str = "metrics") -> dict:
    """Per metric under `key` of each run: both sides' quartiles and runs,
    the change's wins and the verdict on its bound."""
    out = {}
    for name, spec in declared.items():
        pairs = [(r["parent"].get(key, {}).get(name), r["change"].get(key, {}).get(name))
                 for r in runs]
        pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
        if not pairs:
            continue
        parent, change = (list(side) for side in zip(*pairs))
        lower = spec.get("better", "lower") == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in pairs)
        base = statistics.median(parent)
        out[name] = {
            "unit": spec.get("unit"),
            "better": spec.get("better", "lower"),
            "parent_q1_median_q3": quartiles(parent),
            "change_q1_median_q3": quartiles(change),
            "change_better_in_pairs": f"{wins}/{len(pairs)}",
            "median_change_rel": round((statistics.median(change) - base) / base, 4),
            "bound": spec.get("bound"),
            "verdict": verdict(parent, change, lower, spec.get("bound")),
            "parent_runs": [round(v, 4) for v in parent],
            "change_runs": [round(v, 4) for v in change],
        }
    return out


def parse_pairs(items: list[str]) -> dict[str, int]:
    pairs = {}
    for item in items:
        name, _, count = item.partition("=")
        if not count.isdigit() or int(count) < 1:
            raise SystemExit(f"error: --pairs takes WORKLOAD=COUNT with COUNT >= 1, got {item!r}")
        pairs[name] = int(count)
    return pairs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json file to write")
    ap.add_argument("--base", default="HEAD", help="the parent commit (default HEAD)")
    ap.add_argument("--seed", type=int, default=2200, help="the seed of every run")
    ap.add_argument("--seconds", type=int, help="--seconds of every run (default: run_seconds)")
    ap.add_argument("--pairs", nargs="+", default=list(DEFAULT_PAIRS), metavar="WORKLOAD=COUNT")
    args = ap.parse_args()
    pairs = parse_pairs(args.pairs)
    if not (ROOT / "perfbench" / "run.py").is_file():
        print("error: run from the root of a checkout", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in benchmark["end_to_end"]}
    per_layer = {m["name"]: m for m in benchmark["per_layer"]}
    seconds = args.seconds or benchmark["run_seconds"]
    base = git("rev-parse", args.base).strip()

    # a terminated run still removes its copies
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    trees = {"parent": tmp / "parent", "change": tmp / "change"}
    try:
        trees["parent"].mkdir()
        archive = subprocess.run(["git", "archive", base], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(trees["parent"])], input=archive, check=True)
        copy_working_tree(trees["change"])
        workloads = {}
        for workload, count in pairs.items():
            runs = []
            for i in range(count):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                record = {"pair": i, "first": order[0]}
                for side in order:
                    record[side] = run_once(trees[side], workload, args.seed, seconds)
                    m = record[side]["metrics"]
                    print(f"{workload} pair {i} {side}: correct={record[side]['correct']} "
                          f"failed={record[side]['failed']} "
                          + " ".join(f"{k}={v:.4g}" for k, v in m.items()), flush=True)
                runs.append(record)
            workloads[workload] = {
                "pairs": count,
                "all_correct": all(r[s]["correct"] for r in runs for s in trees),
                "failed_ops": {s: sum(r[s]["failed"] or 0 for r in runs) for s in trees},
                "metrics": summarize(runs, declared),
                # the workload's own figures (decode latencies, trial rates), not gated
                "workload_metrics": summarize(runs, per_layer, "workload_metrics"),
                "runs": [{k: {f: x for f, x in v.items() if "metrics" not in f} if k in trees
                          else v for k, v in r.items()} for r in runs],
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    doc = {
        "parent": base,
        "change": "working tree",
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__},
        "method": (f"python3 perfbench/run.py --workload W --seed {args.seed} --seconds "
                   f"{seconds} --trace 0, once per side per pair, on a git archive of the "
                   "parent and a copy of the working tree; even pairs run the parent first. "
                   "Quartiles use statistics.quantiles (inclusive); median_change_rel is the "
                   "change's median over the parent's, minus 1."),
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(w["all_correct"] for w in workloads.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
