#!/usr/bin/env python3
"""Rebuild the two summary tables and re-verify the bundled generators,
each through `asymcodes tables`.

Usage: python scripts/reproduce_tables.py [--json DIR]

With --json, DIR/<table>.json holds each table's report document as
`asymcodes tables <table> --json` writes it, for table1, table2 and
verify-generators.  Exits 0 when every table passes, else with the status
of the first table that fails.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from asymcodes.cli import main as cli_main

TABLES = {
    "table1": "rate ratios (ternary-image bits vs best binary dimension)",
    "table2": "1-code sizes by length",
    "verify-generators": "bundled generator verification",
}


def run(json_dir: str | None) -> int:
    if json_dir:
        Path(json_dir).mkdir(parents=True, exist_ok=True)
    status = 0
    for which, title in TABLES.items():
        print(f"== {title} ==", flush=True)
        json_args = ["--json", str(Path(json_dir) / f"{which}.json")] if json_dir else []
        code = cli_main(["tables", which, *json_args])
        status = status or code
    return status


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--json", default=None, help="directory for JSON copies")
    raise SystemExit(run(ap.parse_args().json))
