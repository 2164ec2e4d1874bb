"""Recover optimal hub edge lengths once the optimal dilation is known.

At the optimal dilation the comparison graph has no negative cycle, so
shortest paths from a super-source with zero-weight edges into every
"over" vertex are well defined.  Writing l(x) for those path lengths, the
hub edge of site v is

    c_v = (l(under(v)) - l(over(v))) / 2.

The zero-weight edge under(v) -> over(v) forces l(over) <= l(under), so
c_v >= 0, and the over->under / under->over edge inequalities turn into
exactly the two pair constraints of a dilation-lam star.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .errors import InternalInvariantError
from .lgraph import (
    LambdaGraph,
    build_lambda_graph,
    over_vertex,
    sssp_lengths,
    under_vertex,
)
from .linfun import Rational
from .metric import MetricSpace, StarEmbedding
from .parametric import RunStats, lambda_star_detailed


@dataclass(frozen=True)
class PathLengths:
    """Shortest path lengths from the super-source, by vertex id."""

    source: int
    l: Dict[int, Fraction]


def source_path_lengths(g: LambdaGraph, lam_star: Rational) -> PathLengths:
    """Exact shortest path lengths in the source graph at lam_star.

    Raises NegativeCycleError if lam_star is below the optimal dilation.
    """
    n = g.site_count
    src = 2 * n
    extra = [(src, over_vertex(v, n), 0) for v in range(n)]
    lengths = sssp_lengths(g, lam_star, src, extra)
    return PathLengths(src, lengths)


def hub_lengths(pl: PathLengths, n: int) -> List[Fraction]:
    """Hub edge lengths c_v = (l(under(v)) - l(over(v))) / 2, all >= 0."""
    out = []
    for v in range(n):
        c = (pl.l[under_vertex(v, n)] - pl.l[over_vertex(v, n)]) / 2
        if c < 0:
            raise InternalInvariantError(
                f"negative hub edge for site {v}: the zero-weight "
                "under->over edge should make that impossible"
            )
        out.append(c)
    return out


def embed_detailed(m: MetricSpace) -> Tuple[StarEmbedding, RunStats]:
    """Optimal star embedding plus search statistics."""
    g = build_lambda_graph(m)
    lam, stats = lambda_star_detailed(m)
    pl = source_path_lengths(g, lam)
    c = hub_lengths(pl, m.n)
    return StarEmbedding(m.labels, tuple(c), lam), stats


def embed(m: MetricSpace) -> StarEmbedding:
    """Optimal star embedding of a finite metric space.

    The returned hub edge lengths satisfy every pair constraint at the
    returned dilation, and no star over these sites does better.
    """
    return embed_detailed(m)[0]
