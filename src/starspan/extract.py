"""Recover optimal hub edge lengths once the optimal dilation is known.

At the optimal dilation the comparison graph has no negative cycle, so
shortest paths from a super-source with zero-weight edges into every
"over" vertex are well defined.  Writing l(x) for those path lengths, the
hub edge of site v is

    c_v = (l(under(v)) - l(over(v))) / 2.

The zero-weight edge under(v) -> over(v) forces l(over) <= l(under), so
c_v >= 0, and the over->under / under->over edge inequalities turn into
exactly the two pair constraints of a dilation-lam star.

The lengths come from the solver's own Bellman-Ford kernel
(parametric._relax) on the denominator-cleared distance matrix, so no
graph of Fraction edges is built and no Fraction is touched until the
final division.  Under vertices start at +infinity, not 0: a zero start
would cap l(under) at 0 and give other lengths and other hubs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Dict, List, Tuple

from .errors import InternalInvariantError, NegativeCycleError

# Not called here.  benchmark/tracing.py rebinds names in this module
# to time each layer, build_lambda_graph among them, so it must stay
# importable from here.
from .lgraph import build_lambda_graph  # noqa: F401
from .lgraph import over_vertex, under_vertex
from .metric import MetricSpace, Rational, StarEmbedding, require_two_sites
from .parametric import RunStats, _relax, lambda_star_detailed


@dataclass(frozen=True)
class PathLengths:
    """Shortest path lengths from the super-source, by vertex id."""

    source: int
    l: Dict[int, Fraction]


def source_path_lengths(m: MetricSpace, lam_star: Rational) -> PathLengths:
    """Exact shortest path lengths from the super-source at lam_star.

    Vertex ids are those of the comparison graph: over(v) = v, under(v)
    = n + v, and the super-source 2n, whose length is 0.  Raises
    NegativeCycleError if lam_star is below the optimal dilation.
    """
    n = m.n
    require_two_sites(n)
    lam = Fraction(lam_star)
    rows, scale = m.scaled_ints
    lengths, _ = _relax(rows, lam)
    if lengths is None:
        raise NegativeCycleError(f"negative cycle at lam = {lam}")
    unit = lam.denominator * scale
    l = {v: Fraction(int(x), unit) for v, x in enumerate(chain(*lengths))}
    l[2 * n] = Fraction(0)
    return PathLengths(2 * n, l)


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
    lam, stats = lambda_star_detailed(m)
    pl = source_path_lengths(m, lam)
    c = hub_lengths(pl, m.n)
    return StarEmbedding(m.labels, tuple(c), lam), stats


def embed(m: MetricSpace) -> StarEmbedding:
    """Optimal star embedding of a finite metric space.

    The returned hub edge lengths satisfy every pair constraint at the
    returned dilation, and no star over these sites does better.
    """
    return embed_detailed(m)[0]
