"""How fast the host runs right now, from a fixed reference kernel.

The benchmark runs on a few cores of a shared host whose speed moves in
steps that last from seconds to tens of seconds: the same op, timed
back to back, runs in 0.63 s for a while and then in 1.05 s.  Medians
inside one run cannot take that out, because much of a run can sit in
one step.  So every run also times a fixed kernel that does not use
starspan, between its ops, and scales each op's wall time by how much
slower or faster than nominal the kernel ran at that moment:

    reference seconds = wall seconds * REF_NOMINAL_S / kernel seconds

where the kernel time is the median of the kernel samples within SPAN_S
of the op's middle, and of at least the MIN_SAMPLES nearest ones.  A
change to starspan cannot change the kernel, so it moves the reference
seconds exactly as it moves the wall seconds; a change in the host's
speed moves both the op and the kernel, and cancels.

The kernel mixes the kinds of work the workloads do: text split into
integers (parsing), Fraction arithmetic and comparison (verification and
the object path), an int64 min-plus product (squaring) and an
object-array min-plus product (squaring on huge scales).
"""

from __future__ import annotations

import bisect
import random
import statistics
import time
from fractions import Fraction
from typing import List, Tuple

import numpy as np

# Median kernel time on a 2-core Intel Xeon at 2.1 GHz (Python 3.11,
# numpy 2.4).  It only fixes the unit: on that host, in its usual state,
# a reference second is a wall second.
REF_NOMINAL_S = 0.030
# The host's speed at one moment is the median of the kernel samples
# within SPAN_S of it, and of at least MIN_SAMPLES samples: short ops get
# many nearby samples, long ops the ones just before and after them.
SPAN_S = 0.5
MIN_SAMPLES = 3

_rng = random.Random("refclock")
_TEXT = " ".join(str(_rng.randrange(10**6)) for _ in range(25000))
_FRACS = [Fraction(_rng.randrange(1, 10**6), _rng.randrange(1, 1000)) for _ in range(1000)]
_INT64 = np.array([_rng.randrange(10**6) for _ in range(64 * 64)], dtype=np.int64).reshape(64, 64)
_OBJ = np.array([_rng.randrange(2**300) for _ in range(32 * 32)], dtype=object).reshape(32, 32)


def kernel() -> int:
    """Fixed work, the same on every call; returns a checksum."""
    ints = [int(tok) for tok in _TEXT.split()]
    acc = Fraction(0)
    for a, b in zip(_FRACS, _FRACS[1:]):
        acc += a * b if a < b else a - b
    d = _INT64
    for _ in range(12):
        d = (d[:, :, None] + _INT64[None, :, :]).min(axis=1)
    o = _OBJ
    for _ in range(2):
        o = (o[:, :, None] + _OBJ[None, :, :]).min(axis=1)
    return (sum(ints) + acc.numerator + int(d.sum()) + int(o[0, 0])) % 1000003


_CHECKSUM = kernel()


class HostClock:
    """Kernel samples taken through a run, and the speed they imply."""

    def __init__(self) -> None:
        self.mids: List[float] = []
        self.secs: List[float] = []

    def tick(self) -> None:
        """Time one kernel call now."""
        t = time.perf_counter()
        got = kernel()
        dt = time.perf_counter() - t
        if got != _CHECKSUM:
            raise AssertionError("reference kernel gave another result")
        self.mids.append(t + dt / 2)
        self.secs.append(dt)

    def factor(self, at: float) -> float:
        """Reference seconds per wall second at time `at`: REF_NOMINAL_S
        over the median kernel time near `at`."""
        if not self.secs:
            raise ValueError("no kernel samples taken")
        mids = self.mids
        lo = hi = bisect.bisect_left(mids, at)
        while hi - lo < len(mids):
            left = lo > 0 and (hi == len(mids) or at - mids[lo - 1] <= mids[hi] - at)
            gap = at - mids[lo - 1] if left else mids[hi] - at
            if hi - lo >= MIN_SAMPLES and gap > SPAN_S:
                break
            if left:
                lo -= 1
            else:
                hi += 1
        return REF_NOMINAL_S / statistics.median(self.secs[lo:hi])

    def scale(self, spans: List[Tuple[float, float]]) -> List[float]:
        """Reference seconds of each (start, wall seconds) interval."""
        return [dt * self.factor(t + dt / 2) for t, dt in spans]
