"""The parametric comparison graph behind star dilation.

For a metric on sites 0..n-1 the graph has 2n vertices: an "over" copy and
an "under" copy of each site.  Edge weights are linear functions of a
parameter lam:

    under(s) -> over(t):  weight -d(s, t)        (every s, t; zero for s = t)
    over(s)  -> under(t): weight lam * d(s, t)    (s != t)

Every cycle alternates between the two families, so its weight is
lam * M - B with M > 0; the cycle is negative exactly when lam < B / M.
Hence the graph has some negative cycle iff lam is below the optimal star
dilation, and at the optimum itself the graph is clean.  That equivalence
is what the rest of the package searches over, and shortest paths from a
zero-weight super-source at the optimum yield the hub edge lengths.

Bellman-Ford here is exact: a probe value lam = p/q clears denominators
once and then relaxes in plain integer arithmetic.  Relaxation sweeps run
in a fixed sorted edge order, so everything is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    DomainError,
    InternalInvariantError,
    NegativeCycleError,
    UnreachableError,
)
from .linfun import LinearFn, Rational, add
from .metric import MetricSpace


def over_vertex(site: int, n: int) -> int:
    return site


def under_vertex(site: int, n: int) -> int:
    return n + site


def vertex_site(v: int, n: int) -> int:
    return v if v < n else v - n


def vertex_name(v: int, n: int, labels: Optional[Sequence[str]] = None) -> str:
    site = vertex_site(v, n)
    lab = labels[site] if labels is not None else str(site)
    return f"over({lab})" if v < n else f"under({lab})"


@dataclass(frozen=True)
class LambdaGraph:
    """2n vertices, n^2 + n(n-1) parametric edges, sorted by (from, to)."""

    site_count: int
    labels: Tuple[str, ...]
    dist: Tuple[Tuple[Fraction, ...], ...]
    edges: Tuple[Tuple[int, int, LinearFn], ...]

    @property
    def vertices(self) -> Tuple[int, ...]:
        return tuple(range(2 * self.site_count))


def build_lambda_graph(m: MetricSpace) -> LambdaGraph:
    """Construct the comparison graph of a metric space (n >= 2)."""
    n = m.n
    if n < 2:
        raise DomainError("need at least two sites")
    edges = []
    for s in range(n):
        for t in range(n):
            edges.append(
                (under_vertex(s, n), over_vertex(t, n), LinearFn(0, -m.dist[s][t]))
            )
            if s != t:
                edges.append(
                    (over_vertex(s, n), under_vertex(t, n), LinearFn(m.dist[s][t], 0))
                )
    edges.sort(key=lambda e: (e[0], e[1]))
    return LambdaGraph(n, m.labels, m.dist, tuple(edges))


@dataclass(frozen=True)
class CycleWitness:
    """A certified negative cycle.

    vertices lists the cycle once, in edge order (the closing edge runs
    from the last vertex back to the first).  weight is the exact sum of
    the cycle's edge weight functions, and weight(probe) < 0.
    """

    vertices: Tuple[int, ...]
    weight: LinearFn
    probe: Fraction


def _scaled_edges(edge_list) -> Tuple[List[Tuple[int, int, int]], int]:
    """Clear denominators of (u, v, Fraction weight) edges, order kept:
    returns (integer edges, scale) with every weight multiplied by scale."""
    scale = 1
    for _, _, w in edge_list:
        scale = math.lcm(scale, w.denominator)
    return [(u, v, int(w * scale)) for u, v, w in edge_list], scale


def _extract_verified_cycle(pred, start, weight_of, lam, cap):
    """Follow predecessor links from start; verify any cycle found.

    Returns a CycleWitness only when the predecessor graph currently
    contains a cycle reachable from start and that cycle's weight really
    is negative at lam; otherwise None.
    """
    x = start
    for _ in range(cap):
        if pred[x] < 0:
            return None
        x = pred[x]
    seen: Dict[int, int] = {}
    seq: List[int] = []
    y = x
    while y not in seen:
        seen[y] = len(seq)
        seq.append(y)
        y = pred[y]
        if y < 0:
            return None
    cycle = seq[seen[y] :]
    cycle.reverse()
    total = LinearFn(0, 0)
    k = len(cycle)
    for i in range(k):
        w = weight_of.get((cycle[i], cycle[(i + 1) % k]))
        if w is None:
            raise InternalInvariantError("predecessor cycle uses a missing edge")
        total = add(total, w)
    value = total(lam)
    if value < 0:
        return CycleWitness(tuple(cycle), total, lam)
    return None


def has_negative_cycle(g: LambdaGraph, lam: Rational) -> Optional[CycleWitness]:
    """Exact negative-cycle test at parameter value lam.

    Returns None when the graph is clean at lam, else a verified witness.
    Starting every distance at zero acts as a free super-source; the graph
    is clean iff some relaxation sweep makes no change, which must happen
    within |V| sweeps when no negative cycle exists.
    """
    lam = Fraction(lam)
    nv = 2 * g.site_count
    exact = [(u, v, e.slope * lam + e.intercept) for u, v, e in g.edges]
    edges, _ = _scaled_edges(exact)
    weight_of = {(u, v): e for u, v, e in g.edges}
    dist = [0] * nv
    pred = [-1] * nv
    check_every = 4

    def sweep() -> int:
        last = -1
        for u, v, w in edges:
            nd = dist[u] + w
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                last = v
        return last

    last = -1
    for rnd in range(1, nv + 1):
        last = sweep()
        if last < 0:
            return None
        if rnd % check_every == 0:
            wit = _extract_verified_cycle(pred, last, weight_of, lam, nv)
            if wit is not None:
                return wit
    # a sweep still changed something after |V| rounds: a negative cycle
    # certainly exists; keep sweeping until the predecessor graph shows it
    for _ in range(nv):
        wit = _extract_verified_cycle(pred, last, weight_of, lam, nv)
        if wit is not None:
            return wit
        last = sweep()
        if last < 0:
            raise InternalInvariantError("relaxation stabilized after detection")
    raise InternalInvariantError("negative cycle detected but no witness found")


def sssp_lengths(
    g: LambdaGraph,
    lam: Rational,
    source: int,
    extra_edges: Sequence[Tuple[int, int, Rational]] = (),
) -> Dict[int, Fraction]:
    """Exact single-source shortest path lengths at parameter value lam.

    extra_edges are constant-weight edges (u, v, w) merged with the
    graph's edges; they may mention one extra vertex (the conventional
    super-source id is 2n).  Raises NegativeCycleError if any negative
    cycle is reachable, UnreachableError if some vertex gets no path.
    """
    lam = Fraction(lam)
    nv = 2 * g.site_count
    ext = [(u, v, Fraction(w)) for u, v, w in extra_edges]
    for u, v, _ in ext:
        if u < 0 or v < 0 or u > nv or v > nv:
            raise DomainError(f"extra edge ({u},{v}) outside vertices 0..{nv}")
    count = nv + 1 if (source == nv or any(u == nv or v == nv for u, v, _ in ext)) else nv
    if not (0 <= source < count):
        raise DomainError(f"source {source} is not a vertex")
    exact = ext + [(u, v, e.slope * lam + e.intercept) for u, v, e in g.edges]
    exact.sort(key=lambda e: (e[0], e[1]))
    edges, scale = _scaled_edges(exact)
    dist: List[Optional[int]] = [None] * count
    dist[source] = 0
    for rnd in range(1, count + 1):
        changed = False
        for u, v, w in edges:
            du = dist[u]
            if du is None:
                continue
            nd = du + w
            if dist[v] is None or nd < dist[v]:
                dist[v] = nd
                changed = True
        if not changed:
            break
    else:
        raise NegativeCycleError(f"negative cycle reachable at lam = {lam}")
    for v, dv in enumerate(dist):
        if dv is None:
            raise UnreachableError(f"vertex {v} unreachable from {source}")
    return {v: Fraction(dv, scale) for v, dv in enumerate(dist)}
