#!/usr/bin/env python3
"""Check the benchmark's own output checks: each deliberately wrong
expectation below must be counted as a failed op, never as a pass, and a
call that raises must be counted without stopping the job.

Usage (from the root of a checkout): python3 perfbench/selfcheck.py
Exits 0 when every planted error was caught, 1 otherwise.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(Path.cwd() / "src")]

import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from asymcodes import channels, groups, linearq  # noqa: E402


def caught(label: str, ops: wl.Ops, expect_failed: int) -> bool:
    ok = ops.failed == expect_failed
    print(f"{'ok  ' if ok else 'MISS'} {label}: {ops.failed} of {ops.attempted} ops failed"
          f" (planted {expect_failed})")
    return ok


def main() -> int:
    rng = random.Random(7)
    results = []
    z = lambda c: wl._channel("Z", c.alphabet.sizes)  # noqa: E731

    ops = wl.Ops()
    code = ops.run("cr n=6, size off by one", lambda: groups.cr_code(groups.best_cr_group(6)),
                   lambda c: len(c) == wl.CR_SIZES[6] + 1)
    results.append(caught("wrong code size", ops, 1))

    ops = wl.Ops()
    counts = {"agreement": 0, "agreement_base": 0}
    wl._verify_pair(ops, counts, "cr n=6 expected 'no'", code, z(code), 1, False)
    results.append(caught("good code expected to be rejected", ops, 2))

    ops = wl.Ops()
    bad = wl.spoil(code, 1, rng)
    wl._verify_pair(ops, counts, "spoiled cr n=6 expected 'yes'", bad, z(bad), 1, True)
    results.append(caught("spoiled code expected to pass", ops, 2))

    ops = wl.Ops()
    wl._simulate(ops, None, {}, "spoiled code, force 1", bad, "Z", 500, 1, force_errors=1)
    results.append(caught("single errors on a spoiled code expected to decode", ops, 1))

    ops = wl.Ops()
    H = linearq.lee_parity_check(5, 2, full=False)
    received = (4,) + (0,) * 19  # the zero word with its first symbol decremented
    got = linearq.decode_concat(H, received)
    ops.check("decode_concat compared with the received word", got == received)
    results.append(caught("wrong decode expectation", ops, 1))

    ops = wl.Ops()
    ops.run("call that raises", lambda: 1 // 0, lambda v: True)
    ops.run("check that raises", lambda: 1, lambda v: v[0])
    results.append(caught("exceptions are counted, not raised", ops, 2))

    ops = wl.Ops()
    ch = wl._channel("Z", (2, 2))
    ops.run("oracle on a wrong channel", lambda: channels.corrects_t_errors(code, ch, 1), lambda v: True)
    results.append(caught("package error inside an op", ops, 1))

    # the whole search job with one wrong proof size planted
    saved = dict(wl.PROOF_PLAIN)
    wl.PROOF_PLAIN[3] = saved[3] + 1
    try:
        out = wl.run("search", 1, tracing.NullTracer(), None)
    finally:
        wl.PROOF_PLAIN.clear()
        wl.PROOF_PLAIN.update(saved)
    ok = out["counts"]["ops_failed"] == 1
    print(f"{'ok  ' if ok else 'MISS'} search job with a wrong proof size:"
          f" {out['counts']['ops_failed']} of {out['counts']['ops']} ops failed (planted 1)")
    results.append(ok)

    print("all planted errors caught" if all(results) else "SOME PLANTED ERRORS PASSED")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
