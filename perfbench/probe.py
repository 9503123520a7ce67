"""Host speed probe: scales measured wall time to a reference host speed.

Other tenants of a shared host slow this process by up to about 1.8x, for
seconds to minutes at a time, so raw wall times of the same work differ by
that much from run to run.  While a timed block runs, a timer signal every
10 ms runs a fixed pure-Python kernel (Fractions, frozensets, a Counter: the
kind of work hypercut does) and records its thread CPU time.  The block's wall
time, minus the time spent in the probe, is then scaled by the reference
kernel time over the mean kernel time seen during the block.  The kernel
never touches hypercut, so a faster hypercut still reads as faster.
"""

from __future__ import annotations

import signal
from collections import Counter
from fractions import Fraction
from time import perf_counter, thread_time

#: Kernel time on an uncontended core of the 2-core host the benchmark was
#: tuned on; it only sets the scale of the reported seconds.
REFERENCE_S = 2.2e-4
PERIOD_S = 0.01


def kernel() -> Fraction:
    total = Fraction(0)
    seen = Counter()
    for i in range(60):
        hit = frozenset(v % 3 for v in (i, i + 3, i + 7))
        seen[(len(hit), i % 4)] += 1
        total += Fraction(i % 5 + 1, 1 << (i % 6))
    return total


class SpeedProbe:
    """Context manager; ``scaled(wall)`` gives the block's reference-speed time."""

    def __init__(self):
        self.cpu = []  # kernel thread CPU time per sample
        self.spent = 0.0  # wall time spent inside the probe

    def _sample(self, *_):
        t, c = perf_counter(), thread_time()
        kernel()
        self.cpu.append(thread_time() - c)
        self.spent += perf_counter() - t

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()  # at least one sample, however short the block
        self.spent = 0.0  # taken before the caller starts its clock
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def slowdown(self) -> float:
        """Mean kernel time during the block over the reference time."""
        return sum(self.cpu) / len(self.cpu) / REFERENCE_S

    def scaled(self, wall: float) -> float:
        return (wall - self.spent) / self.slowdown
