"""The three benchmark workloads: build-verify, decode-sim and search.

Each workload is one fixed job a user of the workbench runs.  `run` makes
the job's inputs from the workload seed, calls the package's public
functions, checks every output and returns the counts and timings.  A check
that fails, or a call that raises, is counted as a failed operation; it
never stops the job.

Expected values here are facts about the codes (the paper's size columns,
the bundled optimal sizes, decoder round trips), held by the benchmark and
not read from the package, so a change to the package cannot make its own
check pass.
"""

from __future__ import annotations

import bisect
import contextlib
import io as stdio
import math
import random
import time

import numpy as np

from asymcodes import (
    CodeBook,
    ProductChannel,
    SearchConfig,
    bounds,
    channels,
    cli,
    cyclic,
    groups,
    io,
    linearq,
    ternary,
    words,
)
from speed import SpeedProbe

# Table 2 size columns by binary length: group-checksum codes and the images
# of the bundled shift-closed generators.
CR_SIZES = {6: 10, 7: 16, 8: 32, 9: 52, 10: 94, 11: 172, 12: 316, 13: 586,
            14: 1096, 15: 2048, 16: 3856}
CYCLIC_SIZES = {6: 12, 7: 16, 8: 29, 9: 53, 10: 98, 11: 154, 12: 336,
                13: 612, 14: 1200, 15: 2144, 16: 3952}
CR18_SIZE = 13798
# Optimal image sizes the exact search proves at the bundled lengths.
PROOF_PLAIN = {3: 12, 4: 29, 5: 98, 6: 336}
PROOF_SPLIT = {3: 16, 4: 53, 5: 154}
# Rate ratios criterion 9 pins (binary length -> s).
RATE_RATIOS = {6: 1.107, 8: 1.250, 10: 1.000}

# One-step moves the benchmark's own radius-1 checker uses: a bit may fall
# 1 -> 0 (Z channel), a trit moves 0 <-> 1 and 0 <-> 2 (T channel).
_STEPS = {2: {0: (), 1: (0,)}, 3: {0: (1, 2), 1: (0,), 2: (0,)}}

# Which symbols can take a step, per channel kind: used to predict the
# failure count of a p-driven simulation independently of the decoder.
_ERRABLE = {
    "Z": lambda s: s == 1,
    "chain": lambda s: s > 0,
    "L1-wrap": lambda s: True,
    "T": lambda s: True,
}

MAX_FAILURE_DETAILS = 20
SPOIL_CANDIDATES = 64


class Ops:
    """Counts checked operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.details: list[str] = []

    def check(self, name: str, ok: bool, why: str = ""):
        self.attempted += 1
        if not ok:
            self._fail(name, why or "wrong output")

    def run(self, name: str, fn, check):
        """Call fn() and check its output; an exception is a failed op.
        Returns the output, or None when the call raised."""
        self.attempted += 1
        try:
            out = fn()
        except Exception as e:  # counted, reported, and the job goes on
            self._fail(name, f"{type(e).__name__}: {e}")
            return None
        try:
            ok, why = check(out), f"wrong output: {_short(out)}"
        except Exception as e:
            ok, why = False, f"check raised {type(e).__name__}: {e}"
        if not ok:
            self._fail(name, why)
        return out

    def _fail(self, name, why):
        self.failed += 1
        if len(self.details) < MAX_FAILURE_DETAILS:
            self.details.append(f"{name}: {why}")


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


def _channel(kind: str, sizes) -> ProductChannel:
    return ProductChannel(tuple(channels.make_channel(kind, q) for q in sizes))


def _rank(level: float, n: int) -> int:
    """Nearest rank of a percentile with up to three decimals, in exact integers."""
    return max(1, -(-round(level * 1000) * n // 100_000))


def latency_summary(samples_s: list[float]) -> dict:
    """Median and tail in microseconds.  The tail is the highest of p90,
    p99, p99.9 and p99.99 that still has at least ten samples beyond it."""
    s = sorted(samples_s)
    n = len(s)
    tail = 50.0
    for level in (90.0, 99.0, 99.9, 99.99):
        if n - _rank(level, n) >= 10:
            tail = level
    return {
        "p50_us": s[_rank(50.0, n) - 1] * 1e6,
        "tail_us": s[_rank(tail, n) - 1] * 1e6,
        "tail_level": tail,
        "samples": n,
        "beyond": n - _rank(tail, n),
    }


def _elapsed(probe, t0: float) -> float:
    """Seconds since clock reading t0, less the speed probes taken since."""
    t1 = time.perf_counter()
    return t1 - t0 - (probe.time_in(t0, t1) if probe else 0.0)


# ---------------------------------------------------------------- checks


def image_size(code: CodeBook) -> int:
    """Binary image size of a ternary code: sum of 2^(zero trits)."""
    return sum(2 ** sum(1 for s in w if s == 0) for w in code.symbol_rows)


def balls_disjoint(rows, sizes) -> bool:
    """Radius-1 balls on the Z (bits) / T (trits) product channel are
    pairwise disjoint; the benchmark's own check, independent of the
    package's verifiers."""
    owner: dict = {}
    for idx, w in enumerate(rows):
        ball = [w] + [
            w[:i] + (b,) + w[i + 1:] for i, s in enumerate(w) for b in _STEPS[sizes[i]][s]
        ]
        for y in ball:
            if owner.setdefault(y, idx) != idx:
                return False
    return True


def shift_closed(code: CodeBook) -> bool:
    rows = code.symbol_set
    return all(w[1:] + w[:1] in rows for w in rows)


def spoil(code: CodeBook, t: int, rng: random.Random) -> CodeBook:
    """Copy of a t-code with one word replaced by a word one step away from
    an anchor codeword, so both verifiers must answer "no".

    The metric path stops at the first row of an offending pair and the
    ball oracle at the second, so where the new word and the codewords
    within distance t of it fall in the lexicographic order sets the cost
    of the "no".  Of `SPOIL_CANDIDATES` seeded moves (anchor in the middle
    fifth, any coordinate, one step up or down) the one whose first and
    second offending rows lie closest to the middle is taken, so each "no"
    costs about half a "yes" whatever the seed.
    """
    rows = code.symbol_rows
    mat = np.array(rows, dtype=np.int64)
    count, n = mat.shape
    lo = count * 2 // 5
    moves = [
        (a, i, d)
        for a in range(lo, max(lo + 1, count * 3 // 5))
        for i in range(n)
        for d in (1, -1)
        if 0 <= rows[a][i] + d < code.alphabet.sizes[i]
    ]
    best = None
    for a, i, d in rng.sample(moves, min(SPOIL_CANDIDATES, len(moves))):
        moved = rows[a][:i] + (rows[a][i] + d,) + rows[a][i + 1:]
        diff = mat - np.array(moved, dtype=np.int64)
        dist = np.maximum(np.where(diff > 0, diff, 0).sum(axis=1), np.where(diff < 0, -diff, 0).sum(axis=1))
        near = np.flatnonzero(dist <= t)
        at = bisect.bisect(rows, moved)
        pos = near + (near >= at)  # positions once `moved` is in
        first = min(at, int(pos.min())) / count
        second = int(np.maximum(pos, at).min()) / count
        score = abs(first - 0.5) + abs(second - 0.5)
        if best is None or score < best[0]:
            best = (score, moved, set(near.tolist()))
    _, moved, near = best
    victim = rng.choice([k for k in range(count) if k not in near])
    out = list(rows)
    out[victim] = moved
    return CodeBook.from_symbols(code.alphabet, out, name=f"spoiled({code.name})")


def expected_failures(code: CodeBook, kind: str, p: float) -> float:
    """Mean failure rate of a radius-1 decoder that corrects every single
    step: a trial fails exactly when two or more coordinates err."""
    errable = _ERRABLE[kind]
    total = 0.0
    for w in code.symbol_rows:
        k = sum(1 for s in w if errable(s))
        total += 1 - (1 - p) ** k - k * p * (1 - p) ** (k - 1)
    return total / len(code)


# ---------------------------------------------------------------- build-verify


def _verify_pair(ops, counts, label, code, ch, t, expect):
    """Metric path and ball oracle on one code; both must answer `expect`."""
    a = ops.run(f"{label}: is_t_code", lambda: words.is_t_code(code, t), lambda v: v is expect)
    b = ops.run(
        f"{label}: corrects_t_errors",
        lambda: channels.corrects_t_errors(code, ch, t),
        lambda v: v is expect,
    )
    counts["agreement_base"] += 1
    counts["agreement"] += int(a is not None and a == b)


def _roundtrip(ops, label, code):
    ops.run(
        f"{label}: io round trip",
        lambda: io.parse_code_file(io.write_code_file(code)),
        lambda back: back == code and back.name == code.name,
    )


def _tables(ops):
    ops.run("table1_report", bounds.table1_report, lambda r: len(r["rows"]) == 42 and all(
        abs(row["s"] - RATE_RATIOS[row["n"]]) <= 0.001
        for row in r["rows"] if row["n"] in RATE_RATIOS
    ))
    ops.run("table2_report", bounds.table2_report, lambda r: [
        (row["n"], row["cr_size"], row["cyclic_image_size"]) for row in r["rows"]
    ] == [(n, CR_SIZES[n], CYCLIC_SIZES[n]) for n in range(6, 17)])
    out = stdio.StringIO()

    def verify_generators():
        with contextlib.redirect_stdout(out):
            return cli.main(["tables", "verify-generators"])

    ops.run("cli tables verify-generators", verify_generators,
            lambda rc: rc == 0 and len(out.getvalue().splitlines()) == 1 + len(CYCLIC_SIZES))


def build_verify(seed: int, tracer, probe, ops: Ops, counts: dict, timings: dict):
    rng = random.Random(seed)
    counts["agreement"] = counts["agreement_base"] = 0

    t0 = time.perf_counter()
    with tracer.span("bench.tables"):
        _tables(ops)
    timings["tables_s"] = _elapsed(probe, t0)

    # (label, code, channel, t) for every code both verifiers certify
    certified = []
    with tracer.span("bench.build"):
        for n in range(6, 17):
            code = ops.run(f"cr n={n}", lambda: groups.cr_code(groups.best_cr_group(n)),
                           lambda c: len(c) == CR_SIZES[n])
            if code is not None:
                certified.append((f"cr n={n}", code, _channel("Z", code.alphabet.sizes), 1))
        for m in range(3, 9):
            code = ops.run(f"even m={m}",
                           lambda: ternary.construct_even(cyclic.builtin_table_generators(m)),
                           lambda c: len(c) == CYCLIC_SIZES[2 * m])
            if code is not None:
                certified.append((f"even m={m}", code, _channel("Z", code.alphabet.sizes), 1))
        for m in range(3, 8):
            code = ops.run(
                f"extended m={m}",
                lambda: ternary.construct_extended(*cyclic.builtin_table_generators(m, extended=True)),
                lambda c: len(c) == CYCLIC_SIZES[2 * m + 1])
            if code is not None:
                certified.append((f"extended m={m}", code, _channel("Z", code.alphabet.sizes), 1))
        outer = linearq.nullspace(linearq.hamming_parity_check(3, 2))
        book86 = None
        for shorten, dims in ((True, (7, 5)), (False, (8, 6))):
            label = f"concat [{dims[0]},{dims[1]}]_3"
            code = ops.run(label, lambda: linearq.concat_code(outer, shorten_to_odd=shorten).codebook(),
                           lambda c: c.n == dims[0] and len(c) == 3 ** dims[1])
            if code is not None:
                certified.append((label, code, _channel("chain", code.alphabet.sizes), 1))
                if not shorten:
                    book86 = code
        rep = linearq.MatrixModZq(3, ((1, 1, 1),), "generator")
        for shorten, n, size in ((True, 10, 27), (False, 12, 81)):
            label = f"doubled n={n}"
            code = ops.run(label,
                           lambda: linearq.double_code(linearq.concat_code(rep, shorten_to_odd=shorten).codebook()),
                           lambda c: c.n == n and len(c) == size)
            if code is not None:
                ops.run(f"{label}: min_asym_distance", lambda: words.min_asym_distance(code),
                        lambda d: d == 4)
                certified.append((label, code, _channel("chain", code.alphabet.sizes), 3))

    with tracer.span("bench.verify"):
        for label, code, ch, t in certified:
            _verify_pair(ops, counts, label, code, ch, t, True)
        if book86 is not None:
            ops.run("[8,6]_3: is_lm_code", lambda: words.is_lm_code(book86, 1, 1, wrap=True),
                    lambda v: v is True)
            ops.run("[8,6]_3: is_perfect", lambda: bounds.is_perfect(book86, 1, 1),
                    lambda v: v is True)
        for label, code, _, _ in certified:
            if label.startswith("cr n=") and code.n % 2 == 0:
                group = groups.best_cr_group(code.n)
                ops.run(f"{label}: is_ternary_code",
                        lambda: ternary.is_ternary_code(code, groups.canonical_pairing(group)),
                        lambda v: v is True)
        c18 = ops.run("cr n=18", lambda: groups.cr_code(groups.best_cr_group(18)),
                      lambda c: len(c) == CR18_SIZE)
        if c18 is not None:
            ops.run("cr n=18: corrects_t_errors",
                    lambda: channels.corrects_t_errors(c18, _channel("Z", c18.alphabet.sizes), 1),
                    lambda v: v is True)

    with tracer.span("bench.io"):
        for label, code, _, _ in certified:
            _roundtrip(ops, label, code)
        if c18 is not None:
            _roundtrip(ops, "cr n=18", c18)

    with tracer.span("bench.spoiled"):
        for label, code, ch, t in certified:
            bad = ops.run(f"{label}: spoil", lambda: spoil(code, t, rng), lambda c: len(c) == len(code))
            if bad is not None:
                _verify_pair(ops, counts, f"{label} spoiled", bad, ch, t, False)


# ---------------------------------------------------------------- decode-sim


def _simulate(ops, probe, counts, label, code, kind, trials, seed, p=None, force_errors=None):
    """One simulation; returns its time.  With force_errors=1 every trial
    must decode; with p the failure count must be within 6 sigma of its
    exact expectation."""
    if force_errors is None:
        rate = expected_failures(code, kind, p)
        slack = 6 * math.sqrt(trials * rate * (1 - rate)) + 1

        def check(r):
            return r.trials == trials and abs(r.failures - trials * rate) <= slack
    else:
        def check(r):
            return r.trials == trials and r.failures == 0

    ch = _channel(kind, code.alphabet.sizes)
    t0 = time.perf_counter()
    result = ops.run(f"simulate {label}", lambda: channels.simulate_channel(
        code, ch, trials=trials, seed=seed, t=1, p=p, force_errors=force_errors), check)
    elapsed = _elapsed(probe, t0)
    counts[f"sim_failures {label}"] = None if result is None else result.failures
    return elapsed


def decode_sim(seed: int, tracer, probe, ops: Ops, counts: dict, timings: dict):
    rng = random.Random(seed)
    sim_seeds = [rng.randrange(2**31) for _ in range(5)]

    with tracer.span("bench.build"):
        img16 = ops.run("image m=8",
                        lambda: ternary.construct_even(cyclic.builtin_table_generators(8), check=False),
                        lambda c: len(c) == CYCLIC_SIZES[16])
        cr14 = ops.run("cr n=14", lambda: groups.cr_code(groups.best_cr_group(14)),
                       lambda c: len(c) == CR_SIZES[14])
        outer = linearq.nullspace(linearq.hamming_parity_check(3, 2))
        book86 = ops.run("concat [8,6]_3", lambda: linearq.concat_code(outer).codebook(),
                         lambda c: len(c) == 729)
        closure8 = ops.run("closure m=8", lambda: cyclic.builtin_table_generators(8),
                           lambda c: image_size(c) == CYCLIC_SIZES[16])
        lee = ops.run("concat [20,18]_5",
                      lambda: linearq.concat_code(linearq.nullspace(linearq.lee_parity_check(5, 2, full=False))),
                      lambda cc: (cc.length, cc.dimension) == (20, 18))

    z_trials = q_trials = 0
    z_s = q_s = 0.0
    with tracer.span("bench.simulate"):
        if img16 is not None:
            z_s += _simulate(ops, probe, counts, "Z image m=8 p=0.05", img16, "Z", 1000, sim_seeds[0], p=0.05)
            z_trials += 1000
        if cr14 is not None:
            z_s += _simulate(ops, probe, counts, "Z cr n=14 force 1", cr14, "Z", 1000, sim_seeds[1], force_errors=1)
            z_trials += 1000
        if book86 is not None:
            q_s += _simulate(ops, probe, counts, "chain [8,6]_3 force 1", book86, "chain", 2000, sim_seeds[2],
                             force_errors=1)
            q_s += _simulate(ops, probe, counts, "L1-wrap [8,6]_3 p=0.05", book86, "L1-wrap", 2000, sim_seeds[3],
                             p=0.05)
            q_trials += 4000
        if closure8 is not None:
            q_s += _simulate(ops, probe, counts, "T closure m=8 p=0.05", closure8, "T", 2000, sim_seeds[4], p=0.05)
            q_trials += 2000
    if z_s:
        timings["sim_z_trials_per_s"] = z_trials / z_s
    if q_s:
        timings["sim_q_trials_per_s"] = q_trials / q_s

    if lee is not None:
        gen = np.array(lee.generator.rows, dtype=np.int64)
        nrng = np.random.default_rng(rng.randrange(2**63))
        sent_words = (nrng.integers(0, 5, size=(20_000, 18)) @ gen) % 5
        hits = nrng.integers(0, 20, size=20_000)
        cases = []
        for row, pos in zip(sent_words.tolist(), hits.tolist()):
            received = list(row)
            received[pos] = (received[pos] - 1) % 5
            cases.append((tuple(row), tuple(received)))
        H = lee.outer_check
        with tracer.span("bench.decode_concat"):
            timings["decode_concat"] = _timed_calls(
                ops, probe, "decode_concat", cases, lambda r: linearq.decode_concat(H, r))

    if cr14 is not None:
        rows = cr14.symbol_rows
        cases = []
        for _ in range(2_000):
            sent = rows[rng.randrange(len(rows))]
            ones = [i for i, s in enumerate(sent) if s]
            received = list(sent)
            if ones:
                received[rng.choice(ones)] = 0
            cases.append((sent, tuple(received)))
        with tracer.span("bench.decode_asymmetric"):
            timings["decode_asym"] = _timed_calls(
                ops, probe, "decode_asymmetric", cases,
                lambda r: words.decode_asymmetric(cr14, r, 1).symbols)


def _timed_calls(ops, probe, name, cases, decode) -> dict:
    """Latency of each decode call, less any speed probe that ran inside it;
    every call must return the sent word."""
    latencies = []
    for sent, received in cases:
        t0 = time.perf_counter()
        try:
            got = decode(received)
        except Exception as e:
            got = e
        latencies.append(_elapsed(probe, t0))
        ops.check(name, got == sent, f"sent {sent}, got {_short(got)}")
    return latency_summary(latencies)


# ---------------------------------------------------------------- search


def _plain_ok(code, m, optimal=None):
    score = int(code.meta["score"])
    return (
        score == image_size(code)
        and shift_closed(code)
        and balls_disjoint(code.symbol_rows, (3,) * m)
        and (optimal is None or (score == optimal and code.meta["proven_optimal"] == "yes"))
    )


def _split_ok(parts, m, optimal=None):
    part0, part1 = parts
    score = int(part0.meta["score"])
    prefixed = [(0,) + w for w in part0.symbol_rows] + [(1,) + w for w in part1.symbol_rows]
    return (
        score == image_size(part0) + image_size(part1)
        and shift_closed(part0)
        and shift_closed(part1)
        and balls_disjoint(prefixed, (2,) + (3,) * m)
        and (optimal is None or (score == optimal and part0.meta["proven_optimal"] == "yes"))
    )


def _searched(ops, tracer, span, label, fn, check, counts, scored):
    """One search instance inside the span of its role.  Records its score
    and proof, and adds the score to search_score when `scored`."""
    with tracer.span(span) as s:
        out = ops.run(label, fn, check)
        if out is not None:
            tracer.add_items(s, sum(len(c) for c in out) if isinstance(out, tuple) else len(out))
    if out is not None:
        meta = (out[0] if isinstance(out, tuple) else out).meta
        counts[f"score {label}"] = int(meta["score"])
        counts["search_proven"] += meta["proven_optimal"] == "yes"
        if scored:
            counts["search_score"] += int(meta["score"])
    return out


def search(seed: int, tracer, probe, ops: Ops, counts: dict, timings: dict):
    rng = random.Random(seed)
    counts["search_score"] = counts["search_proven"] = 0

    # The m=8 graph is built inside the greedy instance, as on every CLI run.
    _searched(ops, tracer, "cyclic.search_greedy", "greedy m=8",
              lambda: cyclic.search_cyclic(8, SearchConfig(strategy="greedy")),
              lambda c: _plain_ok(c, 8), counts, scored=False)
    restart_seed = rng.randrange(2**31)
    _searched(ops, tracer, "cyclic.search_budgeted", "randomized-restart m=8",
              lambda: cyclic.search_cyclic(
                  8, SearchConfig(strategy="randomized-restart", seed=restart_seed, time_budget=60.0)),
              lambda c: _plain_ok(c, 8), counts, scored=True)
    # time_budget is a node budget: 50 000 nodes per unit
    _searched(ops, tracer, "cyclic.search_budgeted", "exact m=7 budget 5",
              lambda: cyclic.search_cyclic(7, SearchConfig(time_budget=5.0)),
              lambda c: _plain_ok(c, 7), counts, scored=True)
    _searched(ops, tracer, "cyclic.search_budgeted", "split m=6 budget 5",
              lambda: cyclic.search_extended(6, SearchConfig(time_budget=5.0)),
              lambda parts: _split_ok(parts, 6), counts, scored=True)

    t0 = time.perf_counter()
    for m, size in PROOF_PLAIN.items():
        _searched(ops, tracer, "cyclic.search_exact", f"exact m={m}",
                  lambda: cyclic.search_cyclic(m, SearchConfig(time_budget=60.0)),
                  lambda c: _plain_ok(c, m, size), counts, scored=False)
    for m, size in PROOF_SPLIT.items():
        _searched(ops, tracer, "cyclic.search_exact", f"split m={m}",
                  lambda: cyclic.search_extended(m, SearchConfig(time_budget=60.0)),
                  lambda parts: _split_ok(parts, m, size), counts, scored=False)
    timings["search_proof_s"] = _elapsed(probe, t0)
    timings["search_score"] = counts["search_score"]
    timings["search_proven"] = counts["search_proven"]


JOBS = {"build-verify": build_verify, "decode-sim": decode_sim, "search": search}


def run(workload: str, seed: int, tracer, probe: SpeedProbe | None) -> dict:
    """Run one workload once; returns ops, deterministic counts and timings.
    With a speed probe, the job's time is also given at the reference speed."""
    ops = Ops()
    counts: dict = {}
    timings: dict = {}
    t0 = time.perf_counter()
    if probe:
        probe.start()
    try:
        JOBS[workload](seed, tracer, probe, ops, counts, timings)
    finally:
        if probe:
            probe.stop()
    wall = time.perf_counter() - t0
    counts["ops"] = ops.attempted
    counts["ops_failed"] = ops.failed
    out = {"counts": counts, "timings": timings, "failures": ops.details, "wall_s": wall}
    if probe:
        out["wall_s"], out["wall_ref_s"] = probe.times()
        out["probes"] = len(probe.marks)
    return out
