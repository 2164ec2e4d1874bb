"""Random metrics with rational distances, for the rational_obj workload.

starspan's own generator (`gen_random_metric`) only makes integer
metrics, so every benchmark instance it gives runs the solver's int64
path.  This module makes the shortest-path closure of a random
connected graph whose edge weights are fractions with denominators of
at most 1000.  Clearing those denominators (`scaled_int_rows`) gives a
scale of a few hundred bits, which forces the solver onto its exact
object-array path in both the squaring and the probes.

Like `gen_random_metric`, the generator state is seeded from a string
and the only arithmetic is exact, so the same (n, seed) gives the same
metric on any platform.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from starspan import MetricSpace
from starspan.metric import scaled_int_rows

MAX_DENOMINATOR = 1000

# The solver plans int64 only while every intermediate value provably fits;
# a scale of 2**59 or more leaves no room for that, so the object path is
# certain.  rational_obj exists to measure that path, so falling short is a
# generator error, not a weaker instance.
MIN_SCALE_BITS = 59


def scale_bits(m: MetricSpace) -> int:
    """Bit length of the common denominator `scaled_int_rows` clears."""
    return scaled_int_rows(m.dist)[1].bit_length()


def gen_rational_metric(n: int, seed: int) -> MetricSpace:
    """Deterministic rational metric on n sites labelled "0".."n-1".

    A random spanning tree keeps the graph connected and n extra edges
    add shortcuts.  Each weight is a/b with b drawn from 1..1000 and a/b
    in [1, 9].  The closure is computed on integers after clearing all
    edge denominators, then divided back, so it is exact.
    """
    if n < 2:
        raise ValueError("need at least two sites")
    rng = random.Random(f"rational:{n}:{seed}")

    def weight() -> Fraction:
        b = rng.randint(1, MAX_DENOMINATOR)
        return Fraction(rng.randint(b, 9 * b), b)

    w: dict = {}

    def put(i: int, j: int, x: Fraction) -> None:
        key = (min(i, j), max(i, j))
        w[key] = min(w.get(key, x), x)

    for i in range(1, n):
        put(i, rng.randrange(i), weight())
    for _ in range(n):
        i, j = rng.randrange(n), rng.randrange(n)
        x = weight()
        if i != j:
            put(i, j, x)

    scale = 1
    for x in w.values():
        scale = math.lcm(scale, x.denominator)
    inf = scale * 9 * n + 1  # longer than any simple path
    mat = np.full((n, n), inf, dtype=object)
    for i in range(n):
        mat[i, i] = 0
    for (i, j), x in w.items():
        mat[i, j] = mat[j, i] = x.numerator * (scale // x.denominator)
    for k in range(n):
        mat = np.minimum(mat, mat[:, k : k + 1] + mat[k : k + 1, :])
    rows = tuple(tuple(Fraction(int(v), scale) for v in row) for row in mat)
    m = MetricSpace(tuple(str(i) for i in range(n)), rows)
    bits = scale_bits(m)
    if bits < MIN_SCALE_BITS:
        raise AssertionError(
            f"rational instance n={n} seed={seed} clears to a {bits}-bit scale; "
            f"rational_obj needs at least {MIN_SCALE_BITS} bits"
        )
    return m
