"""Finite metric spaces: parsing, validation, generation, star embeddings.

Distances are exact rationals.  Decimal text like "1.5" is converted by its
literal decimal value; binary floats are refused outright so no rounding can
sneak in through an API call.

A star embedding assigns every site v a hub edge length c_v >= 0.  Its
dilation is the largest ratio (c_v + c_w) / d(v, w) over distinct sites; the
embedding is within dilation lam when additionally c_v + c_w <= lam * d(v, w)
for every pair, i.e. no pair is stretched beyond lam.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DomainError, MetricViolation, ParseError

# An exact rational; plain ints are accepted anywhere a Fraction is.
Rational = Union[int, Fraction]
# A denominator-cleared distance matrix, as MetricSpace keeps it.
IntRows = Tuple[Tuple[int, ...], ...]


def to_rational(value) -> Fraction:
    """Exact rational from an int, Fraction, or literal string.

    Strings may be integers ("7"), ratios ("3/2"), or decimals ("0.25");
    decimals convert by their printed value.  Floats are rejected: they
    would smuggle binary rounding into an exact pipeline.
    """
    if isinstance(value, bool):
        raise ParseError("booleans are not distances")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational literal: {value!r}") from exc
    raise ParseError(
        f"unsupported numeric type {type(value).__name__}; "
        "pass an int, Fraction, or string literal"
    )


def _read_rows(rows: Iterable[Iterable[object]]) -> List[List[Fraction]]:
    """The entries of either input format as exact rationals, row by row.

    Each distinct string is read once per call, and rows share its
    Fraction, which is immutable; a plain ASCII digit string is read
    with int().  Every other entry goes through to_rational, which gives
    its value or its ParseError as it would alone.
    """
    seen: Dict[str, Fraction] = {}

    def read(v) -> Fraction:
        if type(v) is not str:
            return to_rational(v)
        x = seen.get(v)
        if x is None:
            try:
                x = Fraction(int(v)) if v.isascii() and v.isdigit() else to_rational(v)
            except ValueError:  # more digits than int() will read
                x = to_rational(v)
            seen[v] = x
        return x

    return [[read(v) for v in row] for row in rows]


def scaled_int_rows(rows: Sequence[Sequence[Fraction]]) -> Tuple[List[List[int]], int]:
    """Clear denominators: returns (integer matrix, scale L) with L*d integral.

    Ratios of entries are unchanged, which is what every scale-free
    computation downstream relies on.
    """
    scale = math.lcm(*{v.denominator for row in rows for v in row})
    if scale == 1:
        # Integer entries: reuse their int objects, so a MetricSpace that
        # keeps the matrix adds only the row containers to its memory.
        return [[v.numerator for v in row] for row in rows], 1
    out = [[v.numerator * (scale // v.denominator) for v in row] for row in rows]
    return out, scale


# Integer arrays are int64 while every value formed from them stays below
# this in absolute value, so that a sum of two still fits; otherwise they
# hold exact Python integers (dtype object).
_INT64_LIMIT = 1 << 61


def _int_array(rows, big: int) -> np.ndarray:
    """rows as an int64 array when big, a bound on every absolute value
    the caller will form from them, is below _INT64_LIMIT; else as exact
    Python integers."""
    return np.array(rows, dtype=np.int64 if big < _INT64_LIMIT else object)


def _first_triangle_violation(mat: np.ndarray):
    """First (i, k, j) with d(i,j) > d(i,k) + d(k,j), scanning k outermost."""
    for k in range(mat.shape[0]):
        bad = mat > mat[:, k : k + 1] + mat[k : k + 1, :]
        if bad.any():
            i, j = (int(x) for x in np.argwhere(bad)[0])
            return i, k, j
    return None


def _scan_pairs(labels, rows) -> None:
    """Raise the first diagonal, symmetry or positivity violation, in
    the order: diagonal of row i, then the pairs (i, j > i) of that row."""
    n = len(labels)
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


def _check_metric(labels, rows) -> Tuple[IntRows, int]:
    """Validate the metric; return its scaled_int_rows, as tuples.

    The pair and triangle checks run on the denominator-cleared integer
    matrix, where they give the same verdicts as on the Fractions; only
    a violation found there is worded by the Fraction scan.
    """
    n = len(labels)
    if n < 1:
        raise DomainError("a metric space needs at least one site")
    if len(set(labels)) != n:
        raise DomainError("site labels must be distinct")
    if len(rows) != n or any(len(r) != n for r in rows):
        raise DomainError(f"distance matrix must be {n}x{n}")
    rows_int, scale = scaled_int_rows(rows)
    mat = _int_array(rows_int, max(max(max(r), -min(r)) for r in rows_int))
    if (
        (np.diagonal(mat) != 0).any()
        or (mat != mat.T).any()
        or (mat[~np.eye(n, dtype=bool)] <= 0).any()
    ):
        _scan_pairs(labels, rows)
    hit = _first_triangle_violation(mat)
    if hit is not None:
        i, k, j = hit
        raise MetricViolation(
            f"triangle inequality fails at ({labels[i]},{labels[k]},{labels[j]}): "
            f"d = {rows[i][j]} > {rows[i][k]} + {rows[k][j]}",
            sites=(i, k, j),
        )
    return tuple(map(tuple, rows_int)), scale


@dataclass(frozen=True)
class MetricSpace:
    """Labelled sites with an exact, validated distance matrix.

    Construction validates everything: squareness, zero diagonal, strict
    positivity off the diagonal, symmetry, and all n^3 triangle
    inequalities.  The checks run on the denominator-cleared integer
    matrix, so they are exact at any size, and the instance keeps that
    matrix: scaled_ints is scaled_int_rows(dist) as tuples, (rows, L)
    with rows[i][j] = L * d(i, j), which the solver, the hub extraction
    and verify_star read instead of clearing denominators again.  It
    takes no part in ==, hash or repr.
    """

    labels: Tuple[str, ...]
    dist: Tuple[Tuple[Fraction, ...], ...]
    scaled_ints: Tuple[IntRows, int] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        rows = tuple(
            tuple(v if type(v) is Fraction else to_rational(v) for v in row)
            for row in self.dist
        )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dist", rows)
        object.__setattr__(self, "scaled_ints", _check_metric(labels, rows))

    @property
    def n(self) -> int:
        return len(self.labels)

    def d(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]

    def scaled(self, alpha: Rational) -> "MetricSpace":
        """The same sites with every distance multiplied by alpha > 0."""
        a = Fraction(alpha)
        if a <= 0:
            raise DomainError("scale factor must be positive")
        return MetricSpace(self.labels, tuple(tuple(v * a for v in row) for row in self.dist))


def require_two_sites(n: int) -> None:
    """Raise DomainError unless there are at least two sites."""
    if n < 2:
        raise DomainError("need at least two sites")


def dilation_bounds(m: MetricSpace) -> Tuple[Fraction, Fraction]:
    """[1, 2*max_d/min_d]: a bracket certain to contain the optimal dilation.

    1 is a lower bound because some pair always has c_v + c_w >= d(v, w)
    tight or worse.  The upper end is witnessed by the star with every
    hub edge equal to the largest distance D: it is feasible for
    lam = 2D / min_d, so the optimum cannot exceed that.  The ratio is
    taken on m.scaled_ints, where the scale cancels.
    """
    require_two_sites(m.n)
    rows, _ = m.scaled_ints
    big = max(map(max, rows))
    small = min(min(row[:i] + row[i + 1 :]) for i, row in enumerate(rows))
    return Fraction(1), Fraction(2 * big, small)


def star_dilation(m: MetricSpace, c: Sequence[Rational]) -> Fraction:
    """Largest stretch max_{v != w} (c_v + c_w) / d(v, w) of the star c."""
    if m.n < 2:
        raise DomainError("dilation needs at least two sites")
    cs = [to_rational(x) for x in c]
    if len(cs) != m.n:
        raise DomainError(f"expected {m.n} hub edge lengths, got {len(cs)}")
    for i, x in enumerate(cs):
        if x < 0:
            raise DomainError(f"hub edge length c[{m.labels[i]}] = {x} is negative")
    return max(
        (cs[u] + cs[v]) / m.dist[u][v]
        for u in range(m.n)
        for v in range(u + 1, m.n)
    )


@dataclass(frozen=True)
class StarEmbedding:
    """Hub edge lengths for each site plus the dilation they achieve."""

    labels: Tuple[str, ...]
    hub_len: Tuple[Fraction, ...]
    lambda_star: Fraction

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))
        object.__setattr__(self, "hub_len", tuple(to_rational(x) for x in self.hub_len))
        object.__setattr__(self, "lambda_star", to_rational(self.lambda_star))


@dataclass(frozen=True)
class Violation:
    """One broken constraint.

    constraint 1: c_v >= 0; constraint 2: c_v + c_w >= d(v, w);
    constraint 3: c_v + c_w <= lambda * d(v, w).
    """

    constraint: int
    sites: Tuple[int, ...]
    message: str


@dataclass(frozen=True)
class VerificationReport:
    violations: Tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> List[str]:
        return [f"constraint ({v.constraint}): {v.message}" for v in self.violations]


def verify_star(m: MetricSpace, s: StarEmbedding) -> VerificationReport:
    """Check every constraint of s against m exactly; never raises on
    mere infeasibility, only on a label or length mismatch.

    Violations come in order: constraint 1 by site, then the pairs i < j
    in row-major order, constraint 2 before 3 on the same pair.  The pair
    constraints are compared on integers: with hubs c = h/H, lambda = p/q
    and d = D/L (m.scaled_ints), c_i + c_j < d_ij is (h_i + h_j)*L <
    D_ij*H, and c_i + c_j > lambda*d_ij is (h_i + h_j)*L*q > p*D_ij*H.
    """
    if s.labels != m.labels:
        raise DomainError("embedding labels do not match the metric's sites")
    if len(s.hub_len) != m.n:
        raise DomainError(f"expected {m.n} hub edge lengths, got {len(s.hub_len)}")
    out = [
        Violation(1, (i,), f"c[{m.labels[i]}] = {c} < 0")
        for i, c in enumerate(s.hub_len)
        if c < 0
    ]
    (hubs,), hub_scale = scaled_int_rows([s.hub_len])
    rows, scale = m.scaled_ints
    p, q = s.lambda_star.numerator, s.lambda_star.denominator
    big = max(2 * max(map(abs, hubs)), max(map(max, rows)), 1)
    big *= scale * hub_scale * max(abs(p), q)
    h = _int_array(hubs, big)
    lhs = (h[:, None] + h[None, :]) * scale
    rhs = _int_array(rows, big) * hub_scale
    below = lhs < rhs
    above = lhs * q > rhs * p
    for i, j in np.argwhere(np.triu(below | above, 1)).tolist():
        tot = s.hub_len[i] + s.hub_len[j]
        d = m.dist[i][j]
        pair = f"({m.labels[i]},{m.labels[j]})"
        if below[i, j]:
            out.append(Violation(2, (i, j), f"c+c = {tot} < d = {d} at {pair}"))
        if above[i, j]:
            out.append(
                Violation(
                    3,
                    (i, j),
                    f"c+c = {tot} > lambda*d = {s.lambda_star * d} at {pair}",
                )
            )
    return VerificationReport(tuple(out))


def _gen_shortest_path(n: int, seed: int) -> List[List[Fraction]]:
    """All-pairs distances of a random connected weighted graph.

    A random spanning tree guarantees connectivity, n extra edges add
    shortcuts, integer weights are drawn from 1..9, and the matrix is the
    exact all-pairs shortest-path closure.
    """
    rng = random.Random(f"shortest_path:{n}:{seed}")
    inf = 10**9
    w = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for i in range(1, n):
        j = rng.randrange(i)
        wt = rng.randint(1, 9)
        w[i][j] = w[j][i] = min(w[i][j], wt)
    for _ in range(n):
        i = rng.randrange(n)
        j = rng.randrange(n)
        wt = rng.randint(1, 9)
        if i != j:
            w[i][j] = w[j][i] = min(w[i][j], wt)
    mat = np.array(w, dtype=np.int64)
    for k in range(n):
        mat = np.minimum(mat, mat[:, k : k + 1] + mat[k : k + 1, :])
    return [[Fraction(int(v)) for v in row] for row in mat]


def _gen_rounded_euclidean(n: int, seed: int) -> List[List[Fraction]]:
    """L1 distances between n distinct random lattice points."""
    rng = random.Random(f"rounded_euclidean:{n}:{seed}")
    span = 10 * n
    pts: List[Tuple[int, int]] = []
    seen = set()
    while len(pts) < n:
        p = (rng.randrange(span + 1), rng.randrange(span + 1))
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return [
        [Fraction(abs(a[0] - b[0]) + abs(a[1] - b[1])) for b in pts]
        for a in pts
    ]


GENERATOR_MODELS = ("shortest_path", "rounded_euclidean")


def gen_random_metric(n: int, seed: int, model: str = "shortest_path") -> MetricSpace:
    """Deterministic random metric on n sites labelled "0".."n-1".

    The same (n, seed, model) always yields the same space, on any
    platform: the generator state is seeded from a string and the only
    arithmetic is integer arithmetic.
    """
    require_two_sites(n)
    if model == "shortest_path":
        rows = _gen_shortest_path(n, seed)
    elif model == "rounded_euclidean":
        rows = _gen_rounded_euclidean(n, seed)
    else:
        raise DomainError(f"unknown model {model!r}; choose from {GENERATOR_MODELS}")
    return MetricSpace(tuple(str(i) for i in range(n)), tuple(map(tuple, rows)))


def _parse_matrix(text: str):
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    labels: Optional[List[str]] = None
    if lines and lines[0].lower().startswith("labels:"):
        labels = lines[0].split(":", 1)[1].split()
        lines = lines[1:]
    if not lines:
        raise ParseError("no matrix rows found")
    rows = _read_rows(ln.split() for ln in lines)
    return labels, rows


def _parse_json(text: str):
    try:
        doc = json.loads(text, parse_float=Fraction)
    except ValueError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "distances" not in doc:
        raise ParseError('JSON metric must be an object with a "distances" key')
    dists = doc["distances"]
    if not isinstance(dists, list) or not all(isinstance(r, list) for r in dists):
        raise ParseError('"distances" must be a list of rows')
    labels = doc.get("points")
    if labels is not None:
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise ParseError('"points" must be a list of strings')
    rows = _read_rows(dists)
    return labels, rows


def parse_metric(text: str, fmt: str = "matrix") -> MetricSpace:
    """Parse a metric space from text.

    fmt "matrix": whitespace-separated rows, one per line; blank lines and
    '#' comments are skipped; an optional first line "labels: a b c" names
    the sites (default: row indices).  fmt "json": an object with a
    "distances" list of rows and an optional "points" list of labels.
    Entries in either format may be integers, ratios like 3/2, or decimal
    literals, all read exactly.

    Raises ParseError for malformed input and MetricViolation when the
    parsed matrix is not a metric.
    """
    if fmt == "matrix":
        labels, rows = _parse_matrix(text)
    elif fmt == "json":
        labels, rows = _parse_json(text)
    else:
        raise DomainError(f"unknown format {fmt!r}; choose 'matrix' or 'json'")
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ParseError(f"matrix is not square: expected {n} entries per row")
    if labels is None:
        labels = [str(i) for i in range(n)]
    if len(labels) != n:
        raise ParseError(f"{len(labels)} labels for {n} rows")
    if len(set(labels)) != n:
        raise ParseError("site labels must be distinct")
    return MetricSpace(tuple(labels), tuple(map(tuple, rows)))


def metric_to_matrix_text(m: MetricSpace) -> str:
    """Canonical matrix-format text; parse_metric reads it back exactly."""
    for lab in m.labels:
        if not lab or any(ch.isspace() for ch in lab):
            raise DomainError(f"label {lab!r} cannot appear in matrix format")
    head = "labels: " + " ".join(m.labels)
    body = "\n".join(" ".join(str(v) for v in row) for row in m.dist)
    return head + "\n" + body + "\n"


def metric_to_json_text(m: MetricSpace) -> str:
    """Canonical JSON-format text; exact round trip via parse_metric."""
    doc = {
        "points": list(m.labels),
        "distances": [[str(v) for v in row] for row in m.dist],
    }
    return json.dumps(doc, indent=1) + "\n"
