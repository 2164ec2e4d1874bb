"""The metric front end against its Fraction references.

Validation, verify_star and the token reader work on denominator-cleared
integers, in int64 or, when values get large, in exact Python-integer
arrays.  These tests compare them with the plain Fraction scans kept in
helpers (reference_check_metric, reference_verify_star) on valid and
broken metrics, passing and failing stars, and both dtype paths, down to
the exception type and text, the violation order and the CLI exit code.
"""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starspan import (
    DomainError,
    MetricSpace,
    MetricViolation,
    ParseError,
    StarEmbedding,
    StarspanError,
    dilation_bounds,
    parse_metric,
    to_rational,
    verify_star,
)
from starspan.cli import main
from starspan.metric import _INT64_LIMIT, scaled_int_rows
from helpers import prime_metric, reference_check_metric, reference_verify_star

F = Fraction

# Distances are drawn from [base, 2 * base], which is always a metric.
# The two larger bases put cleared entries at or above _INT64_LIMIT,
# one of them only just, so the object path runs; the huge primes do
# the same through the denominators.
BASES = (1, 2**20, _INT64_LIMIT - 2**12, _INT64_LIMIT, 2**70)
DENOMINATORS = (1, 3, 1000, 2**61 - 1, 2**89 - 1)
MUTATIONS = ("diagonal", "asymmetry", "zero", "negative", "triangle")


@st.composite
def matrices(draw, broken=True):
    """(labels, rows, base) with rows a metric, or one broken in up to
    three places, each by a nonzero diagonal, an asymmetric pair, a zero
    or negative distance, or a distance beyond any two-step path."""
    n = draw(st.integers(1, 6))
    base = draw(st.sampled_from(BASES))
    den = draw(st.sampled_from(DENOMINATORS))
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = base + F(draw(st.integers(0, base * den)), den)
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)) if broken else ():
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if kind == "diagonal":
            rows[i][i] = F(draw(st.sampled_from((-1, 1, base))), den)
        elif i == j:
            continue
        elif kind == "asymmetry":
            rows[i][j] += F(1, den)
        elif kind == "zero":
            rows[i][j] = rows[j][i] = F(0)
        elif kind == "negative":
            rows[i][j] = rows[j][i] = -rows[i][j]
        else:
            rows[i][j] = rows[j][i] = 4 * base + F(1, den)
    return tuple(f"s{i}" for i in range(n)), rows, base


@st.composite
def stars(draw, m):
    """Hub lengths and a dilation that pass or fail constraints 1-3."""
    big = max(map(max, m.dist))
    den = draw(st.sampled_from(DENOMINATORS))
    factors = st.sampled_from((F(-1, 4), F(0), F(1, 2), F(1), F(3, 2)))
    hubs = [big * draw(factors) + F(draw(st.integers(-1, 1)), den) for _ in range(m.n)]
    stretch = [
        (hubs[i] + hubs[j]) / m.dist[i][j] for i in range(m.n) for j in range(i + 1, m.n)
    ]
    lam = max(stretch, default=F(1))
    lam *= draw(st.sampled_from((F(-1), F(1, 2), F(999, 1000), F(1), 1 + F(1, den), F(2))))
    return StarEmbedding(m.labels, tuple(hubs), lam)


def outcome(fn, *args):
    """What fn returns, or the type, text and sites of what it raises."""
    try:
        return "returned", fn(*args)
    except StarspanError as exc:
        return type(exc), str(exc), getattr(exc, "sites", None)


def metric_outcome(labels, rows):
    """outcome of building the MetricSpace, None when it is built."""

    def build():
        MetricSpace(labels, rows)

    return outcome(build)


def cli_verify(metric_text, star_doc):
    """(exit code, stdout, stderr) of `starspan verify` on the two texts."""
    with tempfile.TemporaryDirectory() as tmp:
        inst, star = os.path.join(tmp, "m.txt"), os.path.join(tmp, "s.json")
        with open(inst, "w", encoding="utf-8") as fh:
            fh.write(metric_text)
        with open(star, "w", encoding="utf-8") as fh:
            json.dump(star_doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", inst, star])
    return code, out.getvalue(), err.getvalue()


def reference_cli_verify(labels, rows, s):
    """What cli_verify prints, worked out from the Fraction references."""
    try:
        reference_check_metric(labels, rows)
    except StarspanError as exc:
        return 1, "", f"error: {exc}\n"
    report = reference_verify_star(MetricSpace(labels, rows), s)
    if report.ok:
        return 0, f"ok: all constraints hold at lambda = {s.lambda_star}\n", ""
    return 1, "", "".join(line + "\n" for line in report.lines())


def matrix_text(labels, rows):
    body = "\n".join(" ".join(str(v) for v in row) for row in rows)
    return "labels: " + " ".join(labels) + "\n" + body + "\n"


def star_doc(s):
    return {
        "lambda_star": str(s.lambda_star),
        "hub_edges": {lab: str(c) for lab, c in zip(s.labels, s.hub_len)},
    }


class TestValidation:
    @given(matrices())
    @settings(deadline=None, max_examples=400, derandomize=True)
    def test_same_verdict_message_and_sites(self, case):
        labels, rows, _ = case
        assert metric_outcome(labels, rows) == outcome(reference_check_metric, labels, rows)

    @pytest.mark.parametrize("kind", MUTATIONS)
    def test_object_path_reports_like_the_reference(self, kind):
        """Cleared entries far above _INT64_LIMIT, from huge prime
        denominators, broken once by each kind of violation."""
        rows = [list(row) for row in prime_metric(4, [2**61 - 1, 2**89 - 1, 2**107 - 1]).dist]
        assert max(map(max, scaled_int_rows(rows)[0])) >= _INT64_LIMIT
        i, j = 1, 3
        if kind == "diagonal":
            rows[j][j] = F(1, 2**89 - 1)
        elif kind == "asymmetry":
            rows[j][i] += F(1, 2**61 - 1)
        elif kind == "zero":
            rows[i][j] = rows[j][i] = F(0)
        elif kind == "negative":
            rows[i][j] = rows[j][i] = -rows[i][j]
        else:
            rows[i][j] = rows[j][i] = F(5)
        labels = tuple("abcd")
        got = metric_outcome(labels, rows)
        assert got[0] is MetricViolation and got == outcome(reference_check_metric, labels, rows)

    @given(matrices(broken=False))
    @settings(deadline=None, max_examples=100, derandomize=True)
    def test_kept_matrix_and_bounds(self, case):
        labels, rows, _ = case
        m = MetricSpace(labels, rows)
        ints, scale = scaled_int_rows(m.dist)
        assert m.scaled_ints == (tuple(map(tuple, ints)), scale)
        if m.n >= 2:
            off = [m.dist[i][j] for i in range(m.n) for j in range(i + 1, m.n)]
            assert dilation_bounds(m) == (F(1), 2 * max(off) / min(off))

    def test_kept_matrix_is_not_part_of_the_value(self):
        m = parse_metric("0 1/2\n1/2 0")
        assert m.scaled_ints == (((0, 1), (1, 0)), 2)
        assert "scaled_ints" not in repr(m)
        other = MetricSpace(m.labels, m.dist)
        assert other == m and hash(other) == hash(m)


class TestVerifyStar:
    @given(st.data())
    @settings(deadline=None, max_examples=300, derandomize=True)
    def test_same_report_as_the_fraction_loop(self, data):
        labels, rows, _ = data.draw(matrices(broken=False))
        m = MetricSpace(labels, rows)
        s = data.draw(stars(m))
        assert verify_star(m, s) == reference_verify_star(m, s)

    def test_every_constraint_both_dtype_paths(self):
        """Stars failing each constraint, on int64 values and on hubs and
        a dilation whose denominators are huge primes."""
        m = prime_metric(5, [2, 3, 5, 7])
        for den in (1, 2**89 - 1):
            kinds = set()
            for hubs, lam in (
                ((F(2),) * 5, F(4)),
                ((F(-1, den), F(2), F(2), F(2), F(2)), F(4)),
                ((F(1, 2),) * 5, F(4)),
                ((F(2),) * 5, F(2) + F(1, den)),
                ((F(1, 2), F(3), F(1, 2), F(3), F(1, den)), F(1, 2)),
            ):
                s = StarEmbedding(m.labels, hubs, lam)
                report = verify_star(m, s)
                assert report == reference_verify_star(m, s)
                kinds |= {v.constraint for v in report.violations}
            assert kinds == {1, 2, 3}

    def test_hub_count_must_match(self):
        m = parse_metric("0 1\n1 0")
        with pytest.raises(DomainError):
            verify_star(m, StarEmbedding(m.labels, (F(1),), F(2)))


class TestCli:
    @given(st.data())
    @settings(deadline=None, max_examples=80, derandomize=True)
    def test_verify_prints_and_exits_like_the_reference(self, data):
        labels, rows, _ = data.draw(matrices())
        try:
            s = data.draw(stars(MetricSpace(labels, rows)))
        except StarspanError:
            s = StarEmbedding(labels, (F(1),) * len(labels), F(1))
        got = cli_verify(matrix_text(labels, rows), star_doc(s))
        assert got == reference_cli_verify(labels, rows, s)


TOKENS = ("7", "07", "+7", "-0", "1_000", "٣", "1.50", "3/6", "1e2", "3/0", "x", "9" * 5000)


def reference_parse(tok):
    """parse_metric's outcome on the two-site matrix [[0, tok], [tok, 0]]
    as the per-token to_rational reader and the Fraction scan give it."""
    try:
        v = to_rational(tok)
    except ParseError as exc:
        return ParseError, str(exc), None
    rows = [[F(0), v], [v, F(0)]]
    try:
        reference_check_metric(("0", "1"), rows)
    except StarspanError as exc:
        return type(exc), str(exc), exc.sites
    return "returned", ((F(0), v), (v, F(0)))


@pytest.mark.parametrize("tok", TOKENS, ids=lambda t: t if len(t) < 9 else "5000-digits")
def test_token_reads_as_before_in_both_formats(tok):
    """Each token as a matrix entry, a JSON string and, where it is one,
    a JSON number: same values, or same error, as reading it alone with
    to_rational; and the same exit code and output from the CLI."""
    want = reference_parse(tok)
    texts = {
        "matrix": f"0 {tok}\n{tok} 0\n",
        "json": json.dumps({"distances": [[0, tok], [tok, 0]]}),
    }
    for fmt, text in texts.items():
        assert outcome(lambda: parse_metric(text, fmt).dist) == want, fmt
    raw = f'{{"distances": [[0, {tok}], [{tok}, 0]]}}'
    try:
        json.loads(raw, parse_float=Fraction)
    except ValueError:
        pass
    else:
        assert outcome(lambda: parse_metric(raw, "json").dist) == want
    s = StarEmbedding(("0", "1"), (F(9), F(9)), F(2))
    got = cli_verify(texts["matrix"], star_doc(s))
    if want[0] == "returned":
        assert got == reference_cli_verify(s.labels, want[1], s)
    else:
        assert got == (2 if want[0] is ParseError else 1, "", f"error: {want[1]}\n")
