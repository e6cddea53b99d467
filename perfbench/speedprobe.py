"""How fast the machine is running right now, sampled while the program runs.

On a shared host the same pass can take 1.5 times longer from one minute to
the next while its CPU time equals its wall time, most likely because other
guests on the same physical cores slow every instruction down. No time of
the program alone is steady then, so the benchmark also times a fixed
reference kernel, at the same moments, and reports the program's time in
units of the kernel's.

`SpeedProbe` runs the kernel from a SIGALRM handler every INTERVAL_S seconds
of wall time, so the samples fall inside the operations being timed, however
long they are. The handler's own time is measured and taken out of the pass.
The kernel is frozen benchmark code: nothing in the package can change it.
"""
from __future__ import annotations

import signal
from fractions import Fraction
from itertools import combinations
from time import perf_counter

INTERVAL_S = 0.02


# Index tuples the kernel looks up, a third of them present.
_TABLE = {t: 1 for t in combinations(range(24), 3) if sum(t) % 3 == 0}


def reference_kernel() -> int:
    """About 0.2 ms, on a quiet core, of the two kinds of work the package
    does: a scan of index tuples looked up in a dict (as the applied
    differentials do) and a sum of small Fractions (as exact elimination does)."""
    hits = 0
    for t in combinations(range(16), 3):
        hits += _TABLE.get(t, 0)
    q = Fraction(0)
    for i in range(1, 40):
        q += Fraction(i % 11 - 5, i % 7 + 1)
    return hits + q.denominator


class SpeedProbe:
    """Samples the reference kernel's time while active; not reentrant."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples = []  # seconds per kernel call
        self.overhead_s = 0.0  # wall time spent in the handler
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        reference_kernel()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.overhead_s += perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self.samples, self.overhead_s = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def kernel_s(self) -> float:
        """Mean kernel time over the samples: the unit of a normalised time."""
        if not self.samples:
            t0 = perf_counter()
            reference_kernel()
            return perf_counter() - t0
        return sum(self.samples) / len(self.samples)
