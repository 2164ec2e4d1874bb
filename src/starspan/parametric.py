"""Smallest parameter value at which the comparison graph loses all its
negative cycles, found in strongly polynomial time with exact arithmetic.

The engine maintains a hop matrix D: entry (u, v) is the minimum weight of
any walk from u to v using at most 2**hop_exponent edges, as a function of
the parameter.  Min-plus squaring doubles the hop bound.  Inside a bracket
that always contains the answer every entry is a single line; after a
squaring an entry is the lower envelope of its chains u -> w -> v, and the
bracket is narrowed against a negative-cycle probe until each entry is a
single line again.  After ceil(log2(|V|)) squarings the entries dominate
all walks of length |V|, hence all simple cycles; the answer is then the
largest zero among the negative-sloped diagonal lines that are still
negative at the bracket's left end (or the left end itself).

Exactness and speed coexist by clearing denominators once: the metric is
scaled to integers, so every slope and intercept stays an integer and
every crossing is a ratio of integers.  The parameter stays a Fraction.
Each squaring runs on numpy matrices in two steps.  The screen evaluates
every chain at both bracket ends; an entry with one chain minimal at both
ends is that line throughout, since the envelope is concave.  The other
entries are resolved in crossing rounds, batched across entries in the
manner of Megiddo's parametric search: per entry, the line in force just
right of the left end and the one just left of the right end are picked,
the bracket is binary-searched over all their distinct crossings, and the
picks are repeated at the new ends.  Each round removes an envelope piece
from every entry still pending, so no envelope is ever built.  A bound on
every intermediate value picks int64 when provably safe and exact
big-integer object arrays otherwise; both paths are exact.

Every probe, and the hub extraction in extract, runs one Bellman-Ford
kernel, _relax, on the same scaled matrix.  It stops as soon as a sweep
changes nothing (clean: the shortest path lengths are returned) or the
predecessor graph holds a cycle of exactly verified negative weight,
which on a typical negative probe happens within a few sweeps rather
than after all 2n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import InternalInvariantError
from .linfun import Interval
from .metric import MetricSpace, dilation_bounds, scaled_int_rows


_INT64_VALUE_LIMIT = 1 << 58


def _plan_dtype(value_bound: int):
    """Pick (dtype, sentinel, threshold) so that sums of two values plus a
    sentinel can never collide or overflow."""
    if value_bound < _INT64_VALUE_LIMIT:
        return np.int64, 1 << 61, 1 << 60
    sent = 1 << max(64, value_bound.bit_length() + 3)
    return object, sent, sent >> 1


def _max_abs(a: np.ndarray) -> int:
    return int(np.abs(a).max()) if a.size else 0


def _planned(mat_m: np.ndarray, mat_b: np.ndarray, interval: Interval):
    """The coefficient matrices in the dtype certified for interval, plus
    that dtype's (sentinel, threshold).

    The bound covers every two-entry chain's value at either end (a
    chain's coefficients are at most twice the largest entry's), the
    ends' own numerators and denominators, and the numerator and
    denominator of any crossing between two chains.
    """
    max_m, max_b = _max_abs(mat_m), _max_abs(mat_b)
    max_p = max(abs(interval.lo.numerator), abs(interval.hi.numerator))
    max_q = max(interval.lo.denominator, interval.hi.denominator)
    bound = 2 * (max_m * max_p + max_b * max_q) + max_p + max_q + 4 * (max_m + max_b) + 1
    dtype, sent, thresh = _plan_dtype(bound)
    return mat_m.astype(dtype, copy=False), mat_b.astype(dtype, copy=False), sent, thresh


def _end_values(mat_m: np.ndarray, mat_b: np.ndarray, fin: np.ndarray, x: Fraction, sent):
    """q * (slope * x + intercept) for every entry at x = p/q; sent where
    the entry is infinite."""
    vals = mat_m * x.numerator + mat_b * x.denominator
    vals[~fin] = sent
    return vals


def _square_int(mat_m: np.ndarray, mat_b: np.ndarray, fin: np.ndarray, interval: Interval):
    """One exact min-plus squaring of integer-coefficient line entries,
    screened at both interval ends.

    Entry (u, v) minimizes slope*lam + intercept over all two-entry
    chains u -> w -> v.  An entry with one chain minimal at both ends is
    that chain's line throughout (the envelope is concave) and is
    written to the result.  Every other finite entry is left pending for
    _resolve_pending.

    Returns (out_m, out_b, out_fin, pend_u, pend_v): the squared
    coefficient matrices, with 0 at infinite entries and a placeholder
    line at pending ones, the finiteness mask, and the pending entries'
    coordinates.
    """
    order = len(fin)
    mat_m, mat_b, sent, thresh = _planned(mat_m, mat_b, interval)
    v1 = _end_values(mat_m, mat_b, fin, interval.lo, sent)
    v2 = _end_values(mat_m, mat_b, fin, interval.hi, sent)
    cols = np.arange(order)
    out_m = np.zeros((order, order), dtype=mat_m.dtype)
    out_b = np.zeros_like(out_m)
    out_fin = np.zeros((order, order), dtype=bool)
    covered = np.zeros((order, order), dtype=bool)
    for u in range(order):
        s1 = v1[u][:, None] + v1
        w1 = s1.min(axis=0)
        fin_v = w1 < thresh
        s2 = v2[u][:, None] + v2
        w2 = s2.min(axis=0)
        both = (s1 == w1[None, :]) & (s2 == w2[None, :])
        wsel = both.argmax(axis=0)
        out_m[u] = np.where(fin_v, mat_m[u, wsel] + mat_m[wsel, cols], 0)
        out_b[u] = np.where(fin_v, mat_b[u, wsel] + mat_b[wsel, cols], 0)
        out_fin[u] = fin_v
        covered[u] = both.any(axis=0)
    pend_u, pend_v = np.nonzero(out_fin & ~covered)
    return out_m, out_b, out_fin, pend_u, pend_v


def _pick_lines(mat_m, mat_b, at_lo, at_hi, us, vs, sent):
    """For each pending entry (us[i], vs[i]): the chain line minimal at
    lo, ties going to the smallest slope, and the one minimal at hi, ties
    going to the largest slope.  These are the envelope's pieces just
    right of lo and just left of hi.  Returns (m1, b1, m2, b2)."""
    slopes = mat_m[us] + mat_m[:, vs].T
    rows = np.arange(len(us))
    vals = at_lo[us] + at_lo[:, vs].T
    w1 = np.where(vals == vals.min(axis=1)[:, None], slopes, sent).argmin(axis=1)
    vals = at_hi[us] + at_hi[:, vs].T
    w2 = np.where(vals == vals.min(axis=1)[:, None], slopes, -sent).argmax(axis=1)
    return (
        slopes[rows, w1],
        mat_b[us, w1] + mat_b[w1, vs],
        slopes[rows, w2],
        mat_b[us, w2] + mat_b[w2, vs],
    )


def _distinct_cuts(num: np.ndarray, den: np.ndarray) -> List[Fraction]:
    """The distinct values of num/den (den > 0), sorted."""
    if num.dtype == object:
        return sorted({Fraction(int(a), int(b)) for a, b in zip(num, den)})
    g = np.gcd(num, den)
    pairs = np.unique(np.stack((num // g, den // g), axis=1), axis=0)
    return sorted(Fraction(int(a), int(b)) for a, b in pairs)


def _resolve_pending(
    mat_m: np.ndarray,
    mat_b: np.ndarray,
    fin: np.ndarray,
    out_m: np.ndarray,
    out_b: np.ndarray,
    pend_u: np.ndarray,
    pend_v: np.ndarray,
    interval: Interval,
    probe: Callable[[Fraction], bool],
) -> Tuple[Interval, int]:
    """Resolve the entries _square_int left pending, in crossing rounds,
    writing their lines into out_m/out_b and narrowing the interval.

    mat_m/mat_b/fin are the matrix that was squared.  Each round picks
    two lines per pending entry (_pick_lines).  Equal lines are the
    entry's line throughout.  Otherwise the two cross strictly inside the
    interval, no further left than the entry's first envelope breakpoint
    and no further right than its last one.  Binary-searching all
    distinct crossings with the probe leaves each of them outside the
    narrowed interval's interior, so every still-pending entry loses at
    least one envelope piece per round: at most |V| - 1 rounds.  Pending
    entries go in blocks of |V| so temporaries stay the size of one
    screen row.

    Returns (interval, rounds), rounds counting those that had crossings.
    """
    order = len(fin)
    rounds = 0
    while True:
        mat_m, mat_b, sent, _ = _planned(mat_m, mat_b, interval)
        at_lo = _end_values(mat_m, mat_b, fin, interval.lo, sent)
        at_hi = _end_values(mat_m, mat_b, fin, interval.hi, sent)
        keep = np.zeros(len(pend_u), dtype=bool)
        nums, dens = [], []
        for s in range(0, len(pend_u), order):
            blk = slice(s, s + order)
            us, vs = pend_u[blk], pend_v[blk]
            m1, b1, m2, b2 = _pick_lines(mat_m, mat_b, at_lo, at_hi, us, vs, sent)
            # entries still open are overwritten in a later round
            out_m[us, vs] = m1
            out_b[us, vs] = b1
            keep[blk] = open_ = (m1 != m2) | (b1 != b2)
            nums.append((b2 - b1)[open_])
            dens.append((m1 - m2)[open_])
        if not keep.any():
            return interval, rounds
        rounds += 1
        if rounds > order - 1:
            raise InternalInvariantError("an entry needed more than |V| - 1 crossing rounds")
        den = np.concatenate(dens)
        if (den <= 0).any():
            raise InternalInvariantError("picked lines do not cross left to right")
        cuts = _distinct_cuts(np.concatenate(nums), den)
        if cuts[0] <= interval.lo or cuts[-1] >= interval.hi:
            raise InternalInvariantError("crossing outside the bracket")
        interval = _binary_search_interval(cuts, interval, probe)
        pend_u, pend_v = pend_u[keep], pend_v[keep]


def _binary_search_interval(
    bps: List[Fraction], interval: Interval, probe: Callable[[Fraction], bool]
) -> Interval:
    """Narrow interval to consecutive members of bps (or its own ends).

    probe(t) must mean "the answer is strictly above t".  The result
    keeps the answer inside and strictly excludes every bps member from
    its interior.
    """
    lo, hi = interval.lo, interval.hi
    lo_i, hi_i = 0, len(bps) - 1
    while lo_i <= hi_i:
        mid = (lo_i + hi_i) // 2
        t = bps[mid]
        if probe(t):
            lo, lo_i = t, mid + 1
        else:
            hi, hi_i = t, mid - 1
    return Interval(lo, hi)


def _relax(rows: List[List[int]], t: Fraction) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Exact Bellman-Ford on the comparison graph of an integer distance
    matrix at parameter t = p/q, from a super-source with a zero-weight
    edge into every over vertex.

    Returns None when the graph has a negative cycle, else (d_over,
    d_under): the shortest path lengths times q, in the units of rows.
    For n >= 2 every vertex is reachable, so None answers the probe
    "is the optimal dilation above t" exactly; for n = 1 the under
    vertex is unreachable and keeps the +infinity sentinel.

    Each sweep relaxes every edge at once and records, on each strict
    improvement, the vertex that gave it.  A sweep with no improvement
    means the lengths are final.  After each sweep the predecessor graph
    is searched for a cycle, which counts as a negative cycle only once
    its exact integer weight is summed and found below 0: the graph has
    zero-weight cycles at the optimum, and one must never end a probe.
    Failing that, an improvement in each of the 2n sweeps also proves a
    negative cycle.
    """
    n = len(rows)
    p, q = t.numerator, t.denominator
    maxd = max(max(row) for row in rows)
    bound = (2 * n + 2) * maxd * max(abs(p), q) + 1
    dtype, sent, _ = _plan_dtype(bound)
    mat = np.array(rows, dtype=dtype)
    w_uo = -(mat * q)  # under(s) -> over(t)
    w_ou = mat * p  # over(s) -> under(t), s != t
    np.fill_diagonal(w_ou, sent)
    d_over = np.zeros(n, dtype=dtype) if dtype is not object else np.full(n, 0, dtype=object)
    d_under = np.full(n, sent, dtype=dtype)
    # pred[v] for v in 0..2n-1 is the vertex v's length came from; 2n is
    # the super-source, which is its own predecessor.
    pred = np.full(2 * n + 1, 2 * n)
    cols = np.arange(n)
    for _ in range(2 * n):
        c_over = d_under[:, None] + w_uo
        a_over = c_over.argmin(axis=0)
        c_over = c_over[a_over, cols]
        c_under = d_over[:, None] + w_ou
        a_under = c_under.argmin(axis=0)
        c_under = c_under[a_under, cols]
        i_over = c_over < d_over
        i_under = c_under < d_under
        if not (i_over.any() or i_under.any()):
            return d_over, d_under
        d_over = np.where(i_over, c_over, d_over)
        d_under = np.where(i_under, c_under, d_under)
        pred[:n][i_over] = n + a_over[i_over]
        pred[n : 2 * n][i_under] = a_under[i_under]
        if _negative_pred_cycle(pred, w_uo, w_ou):
            return None
    return None


def _negative_pred_cycle(pred: np.ndarray, w_uo: np.ndarray, w_ou: np.ndarray) -> bool:
    """Whether the predecessor graph of _relax has a cycle of negative
    exact weight.

    Pointer doubling takes every vertex to its 2**k-th ancestor with
    2**k >= 2n: the super-source for a vertex whose chain ends there,
    a vertex on a cycle for every other.  Each cycle is then walked once.
    """
    n = len(w_uo)
    src = 2 * n
    anc = pred
    for _ in range((src - 1).bit_length()):
        anc = anc[anc]
    ends = anc[:src]
    on_cycle = ends[ends != src]
    if not on_cycle.size:
        return False
    seen = set()
    for x in np.unique(on_cycle).tolist():
        if x in seen:
            continue
        total, v = 0, x
        while True:
            seen.add(v)
            u = int(pred[v])
            total += int(w_uo[u - n, v]) if v < n else int(w_ou[u, v - n])
            v = u
            if v == x:
                break
        if total < 0:
            return True
    return False


def _d0_int(rows: List[List[int]]):
    """Packed integer hop matrix for at-most-one-edge walks."""
    n = len(rows)
    nv = 2 * n
    mrows = [[0] * nv for _ in range(nv)]
    brows = [[0] * nv for _ in range(nv)]
    fin = np.zeros((nv, nv), dtype=bool)
    for v in range(nv):
        fin[v, v] = True
    for s in range(n):
        for t in range(n):
            fin[n + s, t] = True
            brows[n + s][t] = -rows[s][t]
            if s != t:
                fin[s, n + t] = True
                mrows[s][n + t] = rows[s][t]
    return np.array(mrows, dtype=object), np.array(brows, dtype=object), fin


@dataclass(frozen=True)
class RunStats:
    """Instrumentation from one optimal-dilation computation.

    max_breakpoints is the most crossing rounds any entry needed in one
    squaring.  Each round removes at least one envelope piece from every
    entry it crosses, so the count never exceeds that entry's breakpoints
    inside the bracket, nor |V| - 1.  probe_count counts the
    negative-cycle probes made while narrowing, not the final check.
    """

    iterations: int
    max_breakpoints: int
    probe_count: int
    final_interval: Interval


def lambda_star_detailed(m: MetricSpace) -> Tuple[Fraction, RunStats]:
    """Exact optimal dilation plus run statistics.

    Runs exactly ceil(log2(2n)) squarings.  Internally the metric is
    scaled to integers once; the answer is a ratio of hop-matrix
    coefficients, which scaling leaves unchanged, so the returned value
    is in the original units.
    """
    nv = 2 * m.n
    interval = Interval(*dilation_bounds(m))
    rows, _ = scaled_int_rows(m.dist)
    mat_m, mat_b, fin = _d0_int(rows)
    iterations = (nv - 1).bit_length()
    probes = 0
    max_breaks = 0

    def probe(t: Fraction) -> bool:
        nonlocal probes
        probes += 1
        return _relax(rows, t) is None

    for _ in range(iterations):
        out_m, out_b, out_fin, pend_u, pend_v = _square_int(mat_m, mat_b, fin, interval)
        interval, rounds = _resolve_pending(
            mat_m, mat_b, fin, out_m, out_b, pend_u, pend_v, interval, probe
        )
        max_breaks = max(max_breaks, rounds)
        mat_m, mat_b, fin = out_m, out_b, out_fin
    lam = interval.lo
    p1, q1 = interval.lo.numerator, interval.lo.denominator
    for v in range(nv):
        if not fin[v, v]:
            raise InternalInvariantError("diagonal entry still infinite at the end")
        mv, bv = int(mat_m[v, v]), int(mat_b[v, v])
        if mv * p1 + bv * q1 < 0:
            if mv == 0:
                raise InternalInvariantError("flat diagonal entry is negative")
            root = Fraction(-bv, mv)
            if root > lam:
                lam = root
    if lam > interval.hi:
        raise InternalInvariantError("diagonal root escaped the bracket")
    if _relax(rows, lam) is None:
        raise InternalInvariantError("negative cycle remains at the computed answer")
    return lam, RunStats(iterations, max_breaks, probes, interval)


def lambda_star(m: MetricSpace) -> Fraction:
    """Exact optimal star dilation of the metric space."""
    return lambda_star_detailed(m)[0]
