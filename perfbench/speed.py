"""Machine-speed probe taken throughout a job, and the job time it yields.

The benchmark runs on machines whose CPUs are shared with other tenants.
On the 2-vCPU VM it was written on, the same pure-Python loop ran anywhere
from 0.07 s to 0.12 s, in phases lasting seconds to minutes, with no steal
time reported: the CPU itself ran faster or slower.  Raw wall times of one
job then spread by 6-31% (IQR over median) from run to run.

A plain job is therefore interrupted every quarter second to time a fixed
reference computation (about 10 ms, a mix of the tuple and set work of the
ball enumerators and the numpy row sweeps of the metric path).
The work between two probes is scaled by how long the probes around it
took, against `NOMINAL_S`: the result is the job's time at the reference
speed.  Probe time itself is excluded from both the raw and the scaled time.
The probe never touches the package, so a change to the package moves the
scaled time by the same factor as the raw one.
"""

from __future__ import annotations

import signal
import time

import numpy as np

NOMINAL_S = 0.010  # the probe's time at the reference speed
INTERVAL_S = 0.25

_clock = time.perf_counter
_WORDS = [tuple((i >> b) & 1 for b in range(12)) for i in range(0, 4096, 11)]
_MATRIX = np.random.default_rng(0).integers(0, 3, size=(1500, 16))


def reference_work() -> int:
    seen = set()
    for w in _WORDS:
        for i in range(12):
            seen.add(w[:i] + (1 - w[i],) + w[i + 1:])
    best = 1 << 30
    for row in _MATRIX[:12]:
        diff = _MATRIX - row
        up = np.where(diff > 0, diff, 0).sum(axis=1)
        down = np.where(diff < 0, -diff, 0).sum(axis=1)
        best = min(best, int(np.maximum(up, down).max()))
    return len(seen) + best


class SpeedProbe:
    """Times `reference_work` from a SIGALRM handler every `INTERVAL_S`, so
    the machine's speed is sampled evenly, also inside long operations."""

    def __init__(self):
        self.marks: list[tuple[float, float]] = []  # (probe start, probe duration)

    def probe(self, *_signal_args):
        start = _clock()
        reference_work()
        self.marks.append((start, _clock() - start))

    def start(self):
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    def time_in(self, t0: float, t1: float) -> float:
        """Seconds spent in probes that started between clock readings t0 and t1."""
        total = 0.0
        for start, duration in reversed(self.marks):
            if start < t0:
                break
            if start < t1:
                total += duration
        return total

    def times(self) -> tuple[float, float]:
        """(raw, scaled) seconds of job work between the first and last probe."""
        raw = scaled = 0.0
        for (s0, d0), (s1, d1) in zip(self.marks, self.marks[1:]):
            work = s1 - (s0 + d0)
            raw += work
            scaled += work * NOMINAL_S / ((d0 + d1) / 2)
        return raw, scaled
