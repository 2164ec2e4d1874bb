"""Shared test utilities: independent oracles and deterministic sampling.

Everything here is deliberately naive. These are the reference
implementations the fast code is checked against, so they must be easy
to believe by inspection.
"""

from fractions import Fraction
from typing import Dict, Optional, Tuple

import pytest

from starspan import LambdaGraph, MetricSpace

# Parameter values for _INT64_VALUE_LIMIT: the default, and 1, which
# forces every numpy kernel onto exact big-integer object arrays.
DTYPE_PATHS = [pytest.param(None, id="int64"), pytest.param(1, id="object")]


def rand_fraction(rng, lo, hi, den_max=10) -> Fraction:
    """Random rational in [lo, hi] with denominator <= den_max."""
    lo, hi = Fraction(lo), Fraction(hi)
    den = rng.randint(1, den_max)
    span = (hi - lo) * den
    num = rng.randint(0, span.numerator // span.denominator)
    return lo + Fraction(num, den)


def ones_twos_metric(rng, n) -> MetricSpace:
    """n sites with every distance drawn from {1, 2}: always a metric,
    and full of equal-weight paths and cycles."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = Fraction(rng.randint(1, 2))
    return MetricSpace(tuple(str(i) for i in range(n)), rows)


def sample_points(lo, hi, k):
    """k + 1 evenly spaced rationals covering [lo, hi] inclusive."""
    lo, hi = Fraction(lo), Fraction(hi)
    return [lo + (hi - lo) * Fraction(i, k) for i in range(k + 1)]


def edge_weights_at(g: LambdaGraph, lam) -> Dict[Tuple[int, int], Fraction]:
    lam = Fraction(lam)
    return {(u, v): Fraction(e.slope) * lam + e.intercept for u, v, e in g.edges}


def min_walk_weights(
    g: LambdaGraph, lam, max_edges: int
) -> Dict[Tuple[int, int], Optional[Fraction]]:
    """Minimum weight over walks of at most max_edges edges, each pair.

    Plain dynamic programming on exact Fractions: best[u][v] after step k
    is the cheapest walk using at most k edges (None when no such walk).
    Small and slow on purpose; n <= 4 instances only.
    """
    nv = 2 * g.site_count
    w = edge_weights_at(g, lam)
    best = [[None] * nv for _ in range(nv)]
    for v in range(nv):
        best[v][v] = Fraction(0)
    for _ in range(max_edges):
        nxt = [row[:] for row in best]
        for (x, v), wt in w.items():
            for u in range(nv):
                bux = best[u][x]
                if bux is None:
                    continue
                cand = bux + wt
                if nxt[u][v] is None or cand < nxt[u][v]:
                    nxt[u][v] = cand
        best = nxt
    return {(u, v): best[u][v] for u in range(nv) for v in range(nv)}


def reference_path_lengths(g: LambdaGraph, lam) -> Optional[Dict[int, Fraction]]:
    """Shortest path lengths at lam from a super-source 2n with a
    zero-weight edge into every over vertex; None when a negative cycle
    is reachable.

    Plain Bellman-Ford on exact Fractions over the explicit edge list,
    sweeping in sorted edge order: |V| sweeps still changing something
    means a negative cycle.
    """
    nv = 2 * g.site_count
    src = nv
    edges = sorted(
        [(src, v, Fraction(0)) for v in range(g.site_count)]
        + [(u, v, w) for (u, v), w in edge_weights_at(g, lam).items()]
    )
    dist: Dict[int, Fraction] = {src: Fraction(0)}
    for _ in range(nv + 1):
        changed = False
        for u, v, w in edges:
            if u not in dist:
                continue
            nd = dist[u] + w
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                changed = True
        if not changed:
            return dist
    return None


def triangle_ok_bruteforce(rows) -> bool:
    """All ordered triples, pure Python; cross-checks the fast validator."""
    n = len(rows)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if rows[i][j] > rows[i][k] + rows[k][j]:
                    return False
    return True
