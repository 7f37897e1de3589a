"""Rescale measured times to a fixed reference speed of the machine.

On a shared host the speed of a core drifts by 10-30% over seconds, and
that drift, not the program, dominated the run-to-run spread of raw
times.  The run therefore times a fixed pure-Python reference kernel
(sparse products with ``Fraction`` coefficients, the same kind of work
gaquot does, and no gaquot code) between ops, and scales each op's time
by ``REFERENCE_S`` over the median of the reference times measured
nearest to it.  A change to gaquot moves the scaled times exactly as it
moves the raw ones; drift of the machine cancels.  On identical work
this cut the spread of pass times from 10% to 2% (IQR over median).
"""

from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter
from typing import List, Sequence

# Time of one reference_kernel() call on an unloaded core of the
# development host (Intel Xeon, 2 vCPUs, Python 3.11); scaled times
# read as times on that core.
REFERENCE_S = 0.0045
SAMPLE_EVERY_S = 0.1
NEAREST = 7

_FACTORS = {(i, j, (i * j) % 3): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}


def reference_kernel() -> int:
    out = {}
    for e1, c1 in _FACTORS.items():
        for e2, c2 in _FACTORS.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return len(out)


class SpeedReference:
    """Reference-kernel samples over a run, and the scale factor at any moment."""

    def __init__(self) -> None:
        self.stamps: List[float] = []
        self.times: List[float] = []

    def sample(self, force: bool = False) -> None:
        """Time the reference kernel once if ``SAMPLE_EVERY_S`` has passed since the last sample."""
        now = perf_counter()
        if not force and self.stamps and now - self.stamps[-1] < SAMPLE_EVERY_S:
            return
        start = perf_counter()
        reference_kernel()
        end = perf_counter()
        self.stamps.append(end)
        self.times.append(end - start)

    def factor(self, stamp: float) -> float:
        """``REFERENCE_S`` over the median of the ``NEAREST`` samples closest in time to ``stamp``."""
        return REFERENCE_S / statistics.median(nearest(self.stamps, self.times, stamp, NEAREST))


def nearest(stamps: Sequence[float], values: Sequence[float], stamp: float, count: int) -> List[float]:
    """The ``count`` values whose (sorted) stamps lie closest to ``stamp``."""
    if not stamps:
        raise ValueError("no reference samples")
    hi = bisect.bisect_left(stamps, stamp)
    lo = hi - 1
    out: List[float] = []
    while len(out) < count and (lo >= 0 or hi < len(stamps)):
        if hi >= len(stamps) or (lo >= 0 and stamp - stamps[lo] <= stamps[hi] - stamp):
            out.append(values[lo])
            lo -= 1
        else:
            out.append(values[hi])
            hi += 1
    return out
