"""The machine-speed probe that scales the end-to-end times.

The benchmark's host is shared, and its speed drifts: the same work can
take twice as long a minute later, in CPU time as well as wall time.  So
the benchmark runs a fixed probe, which uses nothing from kakeyalab,
between the operations it times, and scales a run's times by
``(REFERENCE_S / median probe time of the run) ** e``, where ``e`` says
how strongly the workload slows when the probe does.  The result reads as
the time on a machine where the probe takes ``REFERENCE_S``.  The medians
on both sides reject short bursts, and the ratio removes most of the
drift between runs.  A change to kakeyalab moves the operations' times but not the
probe's, so it moves the scaled time by the same share as the raw time.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# The probe's time on the quiet 2-core machine of the baseline.  It is a
# fixed unit, not a measurement: changing it rescales every scaled time.
REFERENCE_S = 0.0035
# Probes after an operation: one per this many seconds it took, within
# [1, MAX_PROBES], so that the probes sample the whole run.
PROBE_EVERY_S = 0.15
MAX_PROBES = 8

_BASE = np.arange(4096, dtype=np.int64)


def _probe_work() -> int:
    """Interpreter-bound and numpy-bound work in about the mix of kakeyalab."""
    s = 0
    seen = {}
    for i in range(20000):
        s += (i * i) % 7
        seen[i & 255] = s
    a = _BASE.copy()
    for _ in range(50):
        a = (a * 31 + 7) % 1009
    return s + int(a.sum())


def probe(count: int) -> list[float]:
    """Times of ``count`` probe runs."""
    times = []
    for _ in range(count):
        t = perf_counter()
        _probe_work()
        times.append(perf_counter() - t)
    return times


def probes_after(seconds: float) -> list[float]:
    """The probe runs that follow an operation of ``seconds``."""
    return probe(min(MAX_PROBES, max(1, round(seconds / PROBE_EVERY_S))))


def scale(seconds: float, probe_times: list[float], exponent: float) -> float:
    """``seconds`` at the reference speed, given the probe times of the
    same stretch of the run.  ``exponent`` is how strongly the timed work
    slows with the probe; whatever it is, a change to the timed work moves
    the result by the same share as ``seconds``."""
    return seconds * (REFERENCE_S / statistics.median(probe_times)) ** exponent


class Timer:
    """Times operations one after another, with probes after each."""

    def __init__(self) -> None:
        self.probes: list[float] = []

    def time(self, op) -> tuple[float, object]:
        """Run ``op``; return its time, which leaves out the probes, and its result."""
        t = perf_counter()
        result = op()
        raw = perf_counter() - t
        self.probes += probes_after(raw)
        return raw, result
