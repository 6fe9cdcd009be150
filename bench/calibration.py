"""Calibration kernel: a fixed pure-Python workload timed between requests.

The box this benchmark runs on drifts: the same interpreter loop can take
half again as long from one second to the next.  Every ``*_cal`` metric is a
request time divided by the mean time of this kernel in the same run, which
cancels drift that hits both alike.

The kernel imports nothing from symgraph, so no change to the package can
move it.  Do not edit its body: doing so silently rescales every ``*_cal``
figure measured before the edit.
"""

from __future__ import annotations

from fractions import Fraction
from statistics import fmean
from time import perf_counter


def kernel() -> int:
    """Rational arithmetic plus allocation churn, about 5 ms.

    The second half allocates and drops small tuples, Fractions and dict
    entries, as the workloads do.  Timed alone, the first half slows down
    less than the workloads when the box is in a slow phase; with both,
    normalised cost stopped tracking the phase (measured over 14 runs).
    """
    a, b, acc = Fraction(1, 3), Fraction(2, 7), Fraction(0)
    for i in range(1, 120):
        acc += a * b - Fraction(i, 11)
        a, b = b, a + Fraction(1, i)
    seen: dict = {}
    for i in range(3000):
        seen[(i % 7, i % 5), (i % 11, 1 + i % 3), i] = Fraction(i, 7)
    return acc.denominator.bit_length() + len(seen)


SHARE = 0.1  # kernel time as a share of request time


class Calibration:
    """Kernel timings interleaved with the requests of one run.

    ``top_up`` runs the kernel until it has taken ``SHARE`` of the request
    time so far, so kernel samples are spread over the run in proportion to
    request time, and a run of long requests is not calibrated by a handful
    of samples taken in one moment.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._total = 0.0

    def top_up(self, request_seconds: float) -> None:
        while not self.samples or self._total < SHARE * request_seconds:
            start = perf_counter()
            kernel()
            elapsed = perf_counter() - start
            self.samples.append(elapsed)
            self._total += elapsed

    @property
    def unit_s(self) -> float:
        """The run's mean kernel time: one calibration unit, in seconds."""
        return fmean(self.samples)
