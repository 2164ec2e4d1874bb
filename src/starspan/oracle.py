"""Independent ground truth for the optimal star dilation.

Three cross-checks that take a MetricSpace and share only its
denominator-cleared matrix with the production search (scaled_ints, made
by metric.scaled_int_rows, which test_metric checks against a per-entry
formulation):

* exhaustive enumeration of simple cycles in the comparison graph, whose
  best weight ratio IS the optimal dilation (small n only);
* plain interval bisection against the negative-cycle test;
* a certificate checker for a claimed optimal embedding.

A simple cycle alternates over/under vertices, so it is a cyclic sequence
of site pairs (a_1, b_1), ..., (a_k, b_k) with the a_i distinct, the b_i
distinct, and a_i != b_i.  Its weight is
lam * sum d(a_i, b_i) - sum d(b_i, a_{i+1}), so it goes negative exactly
below the ratio of the two sums.  Enumeration fixes a_1 as the smallest
a to visit every cyclic sequence once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import DomainError, SizeError
from .lgraph import build_lambda_graph, has_negative_cycle, over_vertex, under_vertex
from .metric import (
    MetricSpace,
    Rational,
    dilation_bounds,
    require_two_sites,
    verify_star,
)

MAX_EXACT_SITES = 7


@dataclass(frozen=True)
class CycleRatio:
    """A simple cycle and the parameter value where its weight hits zero.

    vertices alternates over(a_1), under(b_1), over(a_2), ...; slope_sum
    is M = sum d(a_i, b_i) > 0, intercept_sum is B = -sum d(b_i, a_{i+1})
    <= 0, and threshold = -B/M is the largest lam at which the cycle is
    still nonpositive.
    """

    vertices: Tuple[int, ...]
    slope_sum: Fraction
    intercept_sum: Fraction
    threshold: Fraction


def best_cycle_ratio(m: MetricSpace) -> CycleRatio:
    """The simple cycle with the largest threshold; exhaustive search.

    Cost grows roughly like n! * 2^n, so this refuses n > 7; up to there
    it finishes in seconds and is trustworthy by construction.
    """
    n = m.n
    require_two_sites(n)
    if n > MAX_EXACT_SITES:
        raise SizeError(f"exact cycle enumeration is capped at {MAX_EXACT_SITES} sites")
    rows, _ = m.scaled_ints
    best_num, best_den = 0, 1
    best_pairs: List[Tuple[int, int]] = []
    used_a = [False] * n
    used_b = [False] * n
    pairs: List[Tuple[int, int]] = []

    def extend(a1: int, last_b: int, m_sum: int, b_sum: int):
        nonlocal best_num, best_den, best_pairs
        num = b_sum + rows[last_b][a1]
        if num * best_den > best_num * m_sum:
            best_num, best_den = num, m_sum
            best_pairs = list(pairs)
        for a in range(a1 + 1, n):
            if used_a[a]:
                continue
            nb = b_sum + rows[last_b][a]
            used_a[a] = True
            for b in range(n):
                if used_b[b] or b == a:
                    continue
                used_b[b] = True
                pairs.append((a, b))
                extend(a1, b, m_sum + rows[a][b], nb)
                pairs.pop()
                used_b[b] = False
            used_a[a] = False

    for a1 in range(n):
        used_a[a1] = True
        for b1 in range(n):
            if b1 == a1:
                continue
            used_b[b1] = True
            pairs.append((a1, b1))
            extend(a1, b1, rows[a1][b1], 0)
            pairs.pop()
            used_b[b1] = False
        used_a[a1] = False

    verts: List[int] = []
    slope = Fraction(0)
    icept = Fraction(0)
    k = len(best_pairs)
    for i, (a, b) in enumerate(best_pairs):
        verts.append(over_vertex(a, n))
        verts.append(under_vertex(b, n))
        slope += m.dist[a][b]
        icept -= m.dist[b][best_pairs[(i + 1) % k][0]]
    return CycleRatio(tuple(verts), slope, icept, Fraction(best_num, best_den))


def exact_lambda_by_cycles(m: MetricSpace) -> Fraction:
    """Optimal dilation as the best simple-cycle ratio (n <= 7)."""
    return best_cycle_ratio(m).threshold


def bisect_lambda(m: MetricSpace, tol: Rational) -> Fraction:
    """Approximate optimal dilation by bisection to within tol.

    Each step probes the midpoint with the exact negative-cycle test: a
    negative cycle means the optimum lies above the midpoint.  The result
    is the midpoint of a bracket of width <= tol that contains the
    optimum, so the absolute error is at most tol.
    """
    g = build_lambda_graph(m)
    tol = Fraction(tol)
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    lo, hi = dilation_bounds(m)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if has_negative_cycle(g, mid) is not None:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@dataclass(frozen=True)
class OptimalityReport:
    """Outcome of certifying a claimed optimal embedding.

    feasible: all constraints hold at the claimed dilation.
    optimal: the claimed dilation equals (or, for large n, behaves
    exactly like) the optimum.  method names the evidence used.
    """

    feasible: bool
    optimal: bool
    method: str
    expected: Optional[Fraction]
    notes: Tuple[str, ...]


def check_optimal(m: MetricSpace, s) -> OptimalityReport:
    """Certify a StarEmbedding against independent evidence.

    For n <= 7 the expected optimum is recomputed by exhaustive cycle
    enumeration and compared exactly.  For larger n the claimed value is
    probed: the comparison graph must be clean at the claimed dilation,
    and (when the claim exceeds 1) must contain a negative cycle just
    below it, at claim * (1 - 2**-20); together those bracket the
    optimum at exactly the claimed value's location.
    """
    notes: List[str] = []
    report = verify_star(m, s)
    feasible = report.ok
    if not feasible:
        notes.extend(report.lines())
    if m.n <= MAX_EXACT_SITES:
        expected = exact_lambda_by_cycles(m)
        optimal = feasible and s.lambda_star == expected
        if s.lambda_star != expected:
            notes.append(f"claimed {s.lambda_star}, cycle enumeration says {expected}")
        return OptimalityReport(feasible, optimal, "exact-cycles", expected, tuple(notes))
    g = build_lambda_graph(m)
    clean_at = has_negative_cycle(g, s.lambda_star) is None
    if not clean_at:
        notes.append(f"negative cycle exists at claimed value {s.lambda_star}")
    tight_below = True
    if s.lambda_star > 1:
        probe = s.lambda_star * (1 - Fraction(1, 2**20))
        tight_below = has_negative_cycle(g, probe) is not None
        if not tight_below:
            notes.append(f"already clean just below the claim, at {probe}")
    return OptimalityReport(
        feasible,
        feasible and clean_at and tight_below,
        "probe",
        None,
        tuple(notes),
    )
