"""Host speed, read from a reference kernel of fixed work.

On a shared host the same op runs up to twice as slow for seconds at a
time, in CPU time as well as in wall time, because other tenants share the
core.  A kernel of fixed work timed next to the engine slows down with it.
The benchmark therefore reports each latency at the reference speed: the
measured seconds times REF_S over the kernel's mean time around and during
the op.  Over 40 s of one repeated integrate_F call the median of
consecutive blocks moved by 47% in raw time and by 2.2% at the reference
speed.

The kernel is a Python loop over float math and small numpy arrays, the
same mix as the engine's inner loops; it calls nothing in randers, so an
engine change does not move it.
"""

from __future__ import annotations

import math
import signal
from time import perf_counter

import numpy as np

# Kernel seconds on an unloaded core of the x86-64 host the benchmark was
# tuned on; it only sets the scale of the reported times.
REF_S = 4.0e-3
# Seconds a fresh interpreter there takes to import the numpy and scipy
# modules randers imports: the scale of set-up times.  Scaled by the
# kernel, set-up times spread as widely as raw ones, so they are scaled by
# that reference import instead, timed alternately with them.
REF_IMPORT_S = 0.4
SAMPLE_PERIOD_S = 0.25  # CPU seconds between samples taken during an op


def kernel() -> float:
    a = np.zeros(4)
    s = 0.0
    for i in range(3000):
        a = a * 0.5 + math.sin(i * 1e-3)
        s += float(a[0])
    return s


def time_kernel() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class Timer:
    """Times ops at the reference speed.

    The kernel runs before and after each op, and from a SIGPROF handler
    every SAMPLE_PERIOD_S of CPU time during a long one; the time those
    samples take inside the op is taken out of its latency."""

    def __init__(self):
        self._samples: list[float] = []
        self._inside = 0.0

    def _sample(self, signum, frame) -> None:
        t = time_kernel()
        self._samples.append(t)
        self._inside += t

    def __enter__(self):
        self._old = signal.signal(signal.SIGPROF, self._sample)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._old)
        return False

    def time(self, fn, *args):
        """(result, raw seconds, seconds at the reference speed) of fn(*args).
        Exceptions propagate; the timer is stopped first."""
        self._samples = [time_kernel()]
        self._inside = 0.0
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        t0 = perf_counter()
        try:
            out = fn(*args)
        finally:
            raw = perf_counter() - t0 - self._inside
            signal.setitimer(signal.ITIMER_PROF, 0.0)
        self._samples.append(time_kernel())
        return out, raw, raw * REF_S / (sum(self._samples) / len(self._samples))
