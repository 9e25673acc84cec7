#!/usr/bin/env python3
"""asymcodes benchmark: three closed-loop workloads, end-to-end and per-layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload build-verify --seed 1 --seconds 40 --trace 0

--workload is build-verify, decode-sim, search, or all (the three in turn).
Each run starts fresh interpreters one after another, as a CLI user does:
a few that only import the package (set-up time), then whole jobs until
--seconds have been spent.  Every job gets the inputs the seed gives, so its
deterministic counts must repeat exactly from job to job.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates plain and
traced jobs and reports the per-layer metrics: calls, busy and self time
and items per traced function, the workload's own figures from the plain
jobs, and the tracing overhead (traced minus plain wall time).

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  Human-readable lines come before it, and a record of
the run (environment, every job, every metric) goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

ROOT = Path.cwd()
RESULTS = HERE / "results"
WORKLOADS = ("build-verify", "decode-sim", "search")

# wall_ref_s is the job's wall time at the reference CPU speed (see speed.py);
# the raw wall_s drifts with the load other tenants put on the machine, and
# is printed and recorded but not reported as a bounded metric.
END_TO_END = (("setup_s", "s"), ("wall_ref_s", "s"), ("peak_rss_mb", "MB"))
# Figures only one workload has: (name, unit, workload).
WORKLOAD_METRICS = (
    ("tables_s", "s", "build-verify"),
    ("sim_z_trials_per_s", "1/s", "decode-sim"),
    ("sim_q_trials_per_s", "1/s", "decode-sim"),
    ("decode_concat_p50_us", "us", "decode-sim"),
    ("decode_concat_tail_us", "us", "decode-sim"),
    ("decode_asym_p50_us", "us", "decode-sim"),
    ("decode_asym_tail_us", "us", "decode-sim"),
    ("search_proof_s", "s", "search"),
    ("search_score", "count", "search"),
    ("search_proven", "count", "search"),
)
PER_LAYER = (
    tuple((f"{span}.{field}", unit) for span in tracing.LAYER_SPANS for field, unit in tracing.LAYER_FIELDS)
    + (("trace.overhead_s", "s"), ("trace.spans", "count"))
    + tuple((name, unit) for name, unit, _ in WORKLOAD_METRICS)
)

SETUP_PROBES = 5
RUN_LIMIT_S = 170  # a run must end within 180 s
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    # the package reads the enumeration cap at import; keep its default
    env.pop("ASYMCODES_ENUM_CAP", None)
    return env


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unavailable"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def spawn(args: list[str], deadline: float) -> dict:
    """Run job.py in a fresh interpreter and return its JSON result."""
    started = time.monotonic()
    if started >= deadline:
        raise BenchError("run time limit reached")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "job.py"), *args],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=deadline - started,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("job did not finish within the run time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"job exited with code {proc.returncode}:\n{proc.stderr[-3000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    imported = Path(out["env"]["asymcodes_file"]).resolve()
    if (ROOT / "src") not in imported.parents:
        raise BenchError(f"asymcodes was imported from {imported}, not from this checkout")
    out["setup_s"] = out["imported_at"] - started
    out["elapsed_s"] = time.monotonic() - started
    return out


def workload_figures(timings: dict) -> dict:
    flat = {k: v for k, v in timings.items() if not isinstance(v, dict)}
    for key in ("decode_concat", "decode_asym"):
        if key in timings:
            flat[f"{key}_p50_us"] = timings[key]["p50_us"]
            flat[f"{key}_tail_us"] = timings[key]["tail_us"]
    return flat


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    RESULTS.mkdir(exist_ok=True)
    probes = [spawn(["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
    setups = [p["setup_s"] for p in probes]
    plain: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    start = time.monotonic()
    while True:
        use_trace = trace and len(plain) > len(traced)
        args = ["--workload", workload, "--seed", str(seed), "--trace", str(int(use_trace))]
        if use_trace:
            spans_path = RESULTS / f"spans-{workload}-seed{seed}-{len(traced)}.json"
            args += ["--spans", str(spans_path)]
        job = spawn(args, deadline)
        if use_trace:
            job["layers"] = tracing.derive(tracing.load(str(spans_path)))
        setups.append(job["setup_s"])
        durations.append(job["elapsed_s"])
        (traced if use_trace else plain).append(job)
        enough = plain and (traced or not trace)
        if enough and time.monotonic() - start + statistics.median(durations) > seconds:
            break

    jobs = plain + traced
    problems = [f"job {i}: {d}" for i, j in enumerate(jobs) for d in j["failures"]]
    reference = plain[0]["counts"]
    for i, j in enumerate(jobs):
        if j["counts"] != reference:
            diff = sorted(k for k in set(reference) | set(j["counts"]) if reference.get(k) != j["counts"].get(k))
            problems.append(f"job {i}: deterministic counts differ from job 0 in {diff}")
    for j in traced[1:]:
        for name, rec in j["layers"].items():
            first = traced[0]["layers"].get(name, {})
            if (rec["calls"], rec["items"]) != (first.get("calls"), first.get("items")):
                problems.append(f"traced calls or items of {name} differ between traced jobs")

    median = statistics.median
    figures = [workload_figures(j["timings"]) for j in plain]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": sum(j["counts"]["ops"] for j in jobs),
        "failed": sum(j["counts"]["ops_failed"] for j in jobs),
        "problems": problems,
        "counts": reference,
        "plain_jobs": len(plain),
        "traced_jobs": len(traced),
        "setup_samples": setups,
        "env": {
            **probes[0]["env"],
            "git_sha": git_sha(),
            "src_sha256": src_digest(),
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            **PINNED,
            "ASYMCODES_ENUM_CAP": "unset (package default)",
        },
        "end_to_end": {
            "setup_s": median(setups),
            "wall_ref_s": median(j["wall_ref_s"] for j in plain),
            "peak_rss_mb": median(j["peak_rss_mb"] for j in plain),
        },
        "wall_s": median(j["wall_s"] for j in plain),
        "workload_metrics": {
            name: median(f[name] for f in figures) for name, _, w in WORKLOAD_METRICS if w == workload
        },
        "latency_samples": {
            key: {k: plain[0]["timings"][key][k] for k in ("tail_level", "samples", "beyond")}
            for key in ("decode_concat", "decode_asym") if key in plain[0]["timings"]
        },
        "agreement": [reference.get("agreement"), reference.get("agreement_base")],
        "jobs": [
            {k: j.get(k) for k in ("wall_s", "wall_ref_s", "probes", "setup_s", "peak_rss_mb", "timings", "spans")}
            for j in jobs
        ],
    }
    if trace:
        layers = {}
        for span in tracing.LAYER_SPANS:
            recs = [j["layers"].get(span, {"calls": 0, "items": 0, "busy_s": 0.0, "self_s": 0.0})
                    for j in traced]
            layers[f"{span}.calls"] = recs[0]["calls"]
            layers[f"{span}.busy_s"] = median(r["busy_s"] for r in recs)
            layers[f"{span}.self_s"] = median(r["self_s"] for r in recs)
            layers[f"{span}.items"] = recs[0]["items"]
        layers["trace.overhead_s"] = median(j["wall_s"] for j in traced) - record["wall_s"]
        layers["trace.spans"] = traced[0]["spans"]
        for name, _, _ in WORKLOAD_METRICS:
            layers[name] = record["workload_metrics"].get(name, 0)
        record["per_layer"] = layers
    (RESULTS / f"run-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return record


def report(rec: dict):
    units = dict(END_TO_END) | {"wall_s": "s"} | {n: u for n, u, _ in WORKLOAD_METRICS}
    env = rec["env"]
    print(f"== {rec['workload']}  seed={rec['seed']}  seconds={rec['seconds']}  trace={rec['trace']}")
    print(f"   git {env['git_sha']}  src sha256 {env['src_sha256']}  python {env['python']}"
          f"  numpy {env['numpy']}  nproc {env['nproc']}  cpu {env['cpu']}")
    print("   " + "  ".join(f"{k}={env[k]}" for k in (*PINNED, "ASYMCODES_ENUM_CAP")))
    print(f"   jobs: {rec['plain_jobs']} plain, {rec['traced_jobs']} traced;"
          f" set-up samples: {len(rec['setup_samples'])}")
    rows = list(rec["end_to_end"].items()) + [("wall_s", rec["wall_s"])] + [
        ("ops", rec["counts"]["ops"]), ("ops_failed", rec["counts"]["ops_failed"])
    ] + list(rec["workload_metrics"].items())
    for name, value in rows:
        unit = units.get(name, "count")
        note = ""
        key = name.rsplit("_", 2)[0]
        if name.endswith("_tail_us") and key in rec["latency_samples"]:
            s = rec["latency_samples"][key]
            note = f"  (p{s['tail_level']:g} of {s['samples']} calls, {s['beyond']} beyond)"
        print(f"   {name:28s} {value:>16.6g} {unit}{note}")
    agree, base = rec["agreement"]
    if base:
        print(f"   metric path and ball oracle agree on {agree}/{base} codes ({agree / base:.3f})")
    if rec["trace"]:
        layers = rec["per_layer"]
        print(f"   tracing overhead {layers['trace.overhead_s']:.4f} s over {layers['trace.spans']} spans")
        print(f"   {'span':34s} {'calls':>8s} {'busy_s':>10s} {'self_s':>10s} {'items':>10s}")
        for span in tracing.LAYER_SPANS:
            if layers[f"{span}.calls"]:
                print(f"   {span:34s} {layers[f'{span}.calls']:8d} {layers[f'{span}.busy_s']:10.4f}"
                      f" {layers[f'{span}.self_s']:10.4f} {layers[f'{span}.items']:10d}")
    for p in rec["problems"]:
        print(f"   FAILED {p}")


def result_line(rec: dict) -> dict:
    if rec["trace"]:
        values = rec["per_layer"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": rec["end_to_end"][name], "unit": unit} for name, unit in END_TO_END}
    return {
        "correct": not rec["problems"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "asymcodes" / "__init__.py").is_file():
        print(f"error: no asymcodes sources under {ROOT / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [measure(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for rec in records:
        report(rec)
    lines = [result_line(rec) for rec in records]
    if len(lines) == 1:
        line = lines[0]
    else:
        line = {
            "correct": all(x["correct"] for x in lines),
            "attempted": sum(x["attempted"] for x in lines),
            "failed": sum(x["failed"] for x in lines),
            "metrics": {f"{w}.{k}": v for w, x in zip(names, lines) for k, v in x["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
