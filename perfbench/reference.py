"""A fixed reference computation that measures the host's current speed.

The host this benchmark runs on changes speed by up to a factor of two in
phases of a second to a few minutes (other tenants on the same cores).  A
fixed pure-Python kernel timed right before and after every case moves with
those phases in the same proportion as the program does, so dividing a case's
wall time by the kernel time measured around it removes the phase while
keeping every change in the program's own cost.

The kernel imports nothing from hermfact, so no change to the program changes
it.  It exercises what the program spends its time on: Fraction arithmetic
through small slotted objects, list and dict building, JSON text in both
directions and a digest.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
from fractions import Fraction
from time import perf_counter

# Reported times are in seconds on a host where one kernel run takes this long.
NOMINAL_S = 0.001

_SIZE = 5


class _Gauss:
    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def __sub__(self, other):
        return _Gauss(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return _Gauss(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re)

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        return _Gauss(self.re / n, -self.im / n)


_ENTRIES = [[((3 * i + 5 * j) % 11 - 5, (7 * i + 2 * j) % 9 - 4) for j in range(_SIZE)]
            for i in range(_SIZE)]


def kernel() -> str:
    """One elimination over Gaussian rationals, serialized, parsed and hashed."""
    m = [[_Gauss(Fraction(re, 1 + (i + j) % 3), Fraction(im)) for j, (re, im) in enumerate(row)]
         for i, row in enumerate(_ENTRIES)]
    for k in range(_SIZE):
        if m[k][k].re == 0 and m[k][k].im == 0:
            continue
        pivot = m[k][k].inverse()
        for i in range(k + 1, _SIZE):
            f = m[i][k] * pivot
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    obj = {"rows": [[[str(z.re), str(z.im)] for z in row] for row in m]}
    text = json.dumps(obj, indent=1, sort_keys=True)
    back = json.loads(text)
    return hashlib.sha256(json.dumps(back, sort_keys=True).encode()).hexdigest()


def sample() -> float:
    """Seconds of one kernel run.

    The cyclic collector is off meanwhile: a collection started by the
    kernel's few allocations would walk the program's heap and time that.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed(samples) -> float:
    """Host speed factor from kernel timings: NOMINAL_S over their median."""
    return NOMINAL_S / statistics.median(samples)


def normalize(durations, around, window: int = 1) -> list[float]:
    """Scale each duration by the host speed measured around it.

    `around[i]` holds the kernel timings taken right before and after
    duration i.  The speed for duration i is taken from the timings of the
    `window` durations on either side as well, which keeps a single slow
    kernel run from moving the result.
    """
    out = []
    for i, d in enumerate(durations):
        lo, hi = max(0, i - window), min(len(durations), i + window + 1)
        local = [t for j in range(lo, hi) for t in around[j]]
        out.append(d * speed(local))
    return out
