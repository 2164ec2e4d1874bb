"""Shared test utilities: independent oracles and deterministic sampling.

Everything here is deliberately naive. These are the reference
implementations the fast code is checked against, so they must be easy
to believe by inspection.
"""

from fractions import Fraction
from typing import Dict, Optional, Tuple

import pytest

from starspan import (
    DomainError,
    LambdaGraph,
    MetricSpace,
    MetricViolation,
    RunStats,
    StarEmbedding,
    VerificationReport,
    Violation,
    hub_lengths,
    lambda_star_detailed,
    source_path_lengths,
)

# Parameter values for _INT64_VALUE_LIMIT: the default, and 1, which
# forces every numpy kernel onto exact big-integer object arrays.
DTYPE_PATHS = [pytest.param(None, id="int64"), pytest.param(1, id="object")]


def embed_with(m: MetricSpace, engine: str) -> Tuple[StarEmbedding, RunStats]:
    """embed_detailed(m) with lambda* from the named engine, so the
    paper's parametric engine can be checked and timed on its own."""
    lam, stats = lambda_star_detailed(m, engine=engine)
    c = hub_lengths(source_path_lengths(m, lam), m.n)
    return StarEmbedding(m.labels, tuple(c), lam), stats


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


def prime_metric(n, primes, rng=None) -> MetricSpace:
    """n sites with the k-th pair (row-major, i < j) at distance 1 + a/p,
    p = primes[k % len(primes)], for a random 0 < a < p drawn from rng, or
    a = 1 without one: always a metric, since every distance lies in
    (1, 2), and one whose cleared integers are about as large as the
    product of the distinct primes."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            p = primes[k % len(primes)]
            a = rng.randint(1, p - 1) if rng is not None else 1
            rows[i][j] = rows[j][i] = 1 + Fraction(a, p)
            k += 1
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


def reference_check_metric(labels, rows) -> None:
    """Raise what MetricSpace(labels, rows) raises for a bad matrix.

    The Fraction scan the validator used before it moved onto the
    cleared integers: shape, then for each row i its diagonal and its
    pairs (i, j > i), then the triangle inequality with k outermost and
    (i, j) row-major, all compared as exact Fractions.
    """
    n = len(labels)
    if n < 1:
        raise DomainError("a metric space needs at least one site")
    if len(set(labels)) != n:
        raise DomainError("site labels must be distinct")
    if len(rows) != n or any(len(r) != n for r in rows):
        raise DomainError(f"distance matrix must be {n}x{n}")
    for i in range(n):
        if rows[i][i] != 0:
            raise MetricViolation(
                f"d({labels[i]},{labels[i]}) = {rows[i][i]}, expected 0", sites=(i,)
            )
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise MetricViolation(
                    f"asymmetry: d({labels[i]},{labels[j]}) = {rows[i][j]} "
                    f"but d({labels[j]},{labels[i]}) = {rows[j][i]}",
                    sites=(i, j),
                )
            if rows[i][j] <= 0:
                raise MetricViolation(
                    f"d({labels[i]},{labels[j]}) = {rows[i][j]} is not positive",
                    sites=(i, j),
                )
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if rows[i][j] > rows[i][k] + rows[k][j]:
                    raise MetricViolation(
                        f"triangle inequality fails at ({labels[i]},{labels[k]},{labels[j]}): "
                        f"d = {rows[i][j]} > {rows[i][k]} + {rows[k][j]}",
                        sites=(i, k, j),
                    )


def reference_verify_star(m: MetricSpace, s: StarEmbedding) -> VerificationReport:
    """verify_star as one loop of Fraction sums, products and comparisons."""
    if s.labels != m.labels:
        raise DomainError("embedding labels do not match the metric's sites")
    out = []
    for i, c in enumerate(s.hub_len):
        if c < 0:
            out.append(Violation(1, (i,), f"c[{m.labels[i]}] = {c} < 0"))
    for i in range(m.n):
        for j in range(i + 1, m.n):
            tot = s.hub_len[i] + s.hub_len[j]
            d = m.dist[i][j]
            pair = f"({m.labels[i]},{m.labels[j]})"
            if tot < d:
                out.append(Violation(2, (i, j), f"c+c = {tot} < d = {d} at {pair}"))
            if tot > s.lambda_star * d:
                out.append(
                    Violation(3, (i, j), f"c+c = {tot} > lambda*d = {s.lambda_star * d} at {pair}")
                )
    return VerificationReport(tuple(out))
