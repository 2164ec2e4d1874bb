"""Finite metric spaces: validation, parsing, stars, generators."""

import math
import random
from fractions import Fraction

import pytest

import starspan
from starspan import (
    DomainError,
    MetricSpace,
    MetricViolation,
    ParseError,
    StarEmbedding,
    dilation_bounds,
    gen_random_metric,
    metric_to_json_text,
    metric_to_matrix_text,
    parse_metric,
    star_dilation,
    to_rational,
    verify_star,
)
from starspan.metric import scaled_int_rows
from helpers import triangle_ok_bruteforce


F = Fraction

TWO_POINT = "0 1\n1 0"
# Unit 4-cycle: sides 1, diagonals 2. Tight instance for star dilation.
FOUR_CYCLE = "0 1 2 1\n1 0 1 2\n2 1 0 1\n1 2 1 0"


def mk(rows, labels=None):
    rows = tuple(tuple(F(x) for x in r) for r in rows)
    if labels is None:
        labels = tuple(str(i) for i in range(len(rows)))
    return MetricSpace(tuple(labels), rows)


class TestToRational:
    def test_accepted_forms(self):
        assert to_rational(3) == 3
        assert to_rational("3/2") == F(3, 2)
        assert to_rational("0.1") == F(1, 10)
        assert to_rational(F(5, 7)) == F(5, 7)

    def test_rejects_floats_and_bools(self):
        with pytest.raises(ParseError):
            to_rational(0.1)
        with pytest.raises(ParseError):
            to_rational(True)

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            to_rational("1..2")


def test_scaled_int_rows_preserves_ratios():
    rows = [[F(0), F(1, 3)], [F(1, 3), F(0)]]
    ints, scale = scaled_int_rows(rows)
    assert ints == [[0, 1], [1, 0]]
    assert scale == 3
    ints2, scale2 = scaled_int_rows([[F(0), F(3, 4), F(5, 6)]])
    assert scale2 == 12
    assert ints2 == [[0, 9, 10]]


def test_scaled_int_rows_matches_per_entry_lcm():
    """Same output as folding lcm over every entry and multiplying each
    Fraction by the scale, on random rational rows."""
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 9)
        den_max = rng.choice((1, 10, 1000, 2 ** 40))
        rows = [[F(rng.randint(0, 10 ** 6), rng.randint(1, den_max)) for _ in range(n)] for _ in range(n)]
        scale = 1
        for row in rows:
            for v in row:
                scale = math.lcm(scale, v.denominator)
        want = [[int(v * scale) for v in row] for row in rows]
        assert scaled_int_rows(rows) == (want, scale)


class TestValidation:
    def test_two_point(self):
        m = parse_metric(TWO_POINT)
        assert m.n == 2
        assert m.d(0, 1) == 1

    def test_triangle_violation_reported_with_sites(self):
        with pytest.raises(MetricViolation) as exc:
            parse_metric("0 1 3\n1 0 1\n3 1 0")
        assert exc.value.sites == (0, 1, 2)

    def test_four_cycle_is_a_metric(self):
        m = parse_metric(FOUR_CYCLE)
        # Independent confirmation over all ordered triples.
        assert triangle_ok_bruteforce([[m.d(i, j) for j in range(4)] for i in range(4)])

    def test_nonzero_diagonal(self):
        with pytest.raises(MetricViolation):
            mk([[1, 1], [1, 0]])

    def test_asymmetry(self):
        with pytest.raises(MetricViolation):
            mk([[0, 1], [2, 0]])

    def test_nonpositive_off_diagonal(self):
        with pytest.raises(MetricViolation):
            mk([[0, 0], [0, 0]])
        with pytest.raises(MetricViolation):
            mk([[0, -1], [-1, 0]])

    def test_duplicate_labels(self):
        with pytest.raises(DomainError):
            mk([[0, 1], [1, 0]], labels=("a", "a"))

    def test_non_square(self):
        with pytest.raises(DomainError):
            MetricSpace(("a", "b"), ((F(0), F(1)),))

    def test_single_point_allowed(self):
        assert mk([[0]]).n == 1

    def test_checker_agrees_with_bruteforce(self):
        """The vectorized triangle scan vs the three nested loops."""
        rng = random.Random(99)
        agree = 0
        for _ in range(60):
            n = rng.randint(3, 8)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = rows[j][i] = rng.randint(1, 6)
            ok_slow = triangle_ok_bruteforce(rows)
            try:
                mk(rows)
                ok_fast = True
            except MetricViolation:
                ok_fast = False
            assert ok_fast == ok_slow
            agree += 1
        assert agree == 60


def test_dilation_bounds():
    assert dilation_bounds(parse_metric(TWO_POINT)) == (F(1), F(2))
    # 4-cycle: max = 2, min = 1 so the upper end is 2*2/1 = 4.
    assert dilation_bounds(parse_metric(FOUR_CYCLE)) == (F(1), F(4))


class TestStarDilation:
    def test_two_point_midpoint(self):
        m = parse_metric(TWO_POINT)
        assert star_dilation(m, (F(1, 2), F(1, 2))) == 1

    def test_two_point_slack(self):
        m = parse_metric(TWO_POINT)
        assert star_dilation(m, (1, 1)) == 2

    def test_four_cycle_unit_lengths(self):
        m = parse_metric(FOUR_CYCLE)
        assert star_dilation(m, (1, 1, 1, 1)) == 2
        # Direct check: max over the six unordered pairs of (c_v+c_w)/d.
        worst = max(
            F(2) / m.d(v, w) for v in range(4) for w in range(v + 1, 4)
        )
        assert worst == 2

    def test_rejects_bad_input(self):
        m = parse_metric(TWO_POINT)
        with pytest.raises(DomainError):
            star_dilation(m, (1,))
        with pytest.raises(DomainError):
            star_dilation(m, (-1, 1))
        with pytest.raises(DomainError):
            star_dilation(mk([[0]]), (1,))

    def test_at_least_one_when_dominating(self):
        """If c_v + c_w >= d(v,w) everywhere the dilation is >= 1."""
        rng = random.Random(5)
        for _ in range(50):
            m = gen_random_metric(rng.randint(2, 6), rng.randint(0, 10 ** 6))
            big = max(max(row) for row in m.dist)
            c = [big + F(rng.randint(0, 3)) for _ in range(m.n)]
            assert star_dilation(m, c) >= 1


class TestVerifyStar:
    def test_feasible_two_point(self):
        m = parse_metric(TWO_POINT)
        s = StarEmbedding(m.labels, (F(1, 2), F(1, 2)), F(1))
        assert verify_star(m, s).ok

    def test_zero_lengths_break_domination(self):
        m = parse_metric(TWO_POINT)
        r = verify_star(m, StarEmbedding(m.labels, (F(0), F(0)), F(1)))
        assert not r.ok
        assert [(v.constraint, v.sites) for v in r.violations] == [(2, (0, 1))]

    def test_lambda_below_actual_dilation(self):
        m = parse_metric(TWO_POINT)
        r = verify_star(m, StarEmbedding(m.labels, (F(1), F(1)), F(3, 2)))
        assert not r.ok
        assert all(v.constraint == 3 for v in r.violations)
        assert r.lines()  # human-readable rendering exists

    def test_negative_length(self):
        m = parse_metric(TWO_POINT)
        r = verify_star(m, StarEmbedding(m.labels, (F(-1), F(2)), F(2)))
        assert any(v.constraint == 1 for v in r.violations)

    def test_label_mismatch(self):
        m = parse_metric(TWO_POINT)
        with pytest.raises(DomainError):
            verify_star(m, StarEmbedding(("x", "y"), (F(1), F(1)), F(2)))

    def test_agrees_with_direct_constraint_scan(self):
        rng = random.Random(17)
        for _ in range(80):
            m = gen_random_metric(rng.randint(2, 5), rng.randint(0, 10 ** 6))
            c = [F(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(m.n)]
            lam = F(rng.randint(1, 4), rng.randint(1, 2))
            ok_direct = all(x >= 0 for x in c) and all(
                c[v] + c[w] >= m.d(v, w) and c[v] + c[w] <= lam * m.d(v, w)
                for v in range(m.n)
                for w in range(v + 1, m.n)
            )
            s = StarEmbedding(m.labels, tuple(c), lam)
            assert verify_star(m, s).ok == ok_direct


class TestGenerators:
    def test_deterministic(self):
        for model in starspan.GENERATOR_MODELS:
            a = gen_random_metric(6, 42, model=model)
            b = gen_random_metric(6, 42, model=model)
            assert a == b

    def test_seeds_differ(self):
        assert gen_random_metric(6, 1) != gen_random_metric(6, 2)

    def test_outputs_validate(self):
        # The MetricSpace constructor re-checks all axioms exhaustively.
        for model in starspan.GENERATOR_MODELS:
            for seed in range(8):
                m = gen_random_metric(5, seed, model=model)
                assert m.n == 5
                assert m.labels == ("0", "1", "2", "3", "4")

    def test_large_instance_validates(self):
        m = gen_random_metric(64, 7)
        assert m.n == 64

    def test_rejects_bad_args(self):
        with pytest.raises(DomainError):
            gen_random_metric(1, 0)
        with pytest.raises(DomainError):
            gen_random_metric(5, 0, model="nope")


class TestParsing:
    def test_matrix_with_labels_header(self):
        m = parse_metric("labels: a b\n0 1\n1 0")
        assert m.labels == ("a", "b")

    def test_matrix_comments_and_blanks(self):
        m = parse_metric("# generated\n\n0 1\n1 0\n")
        assert m.n == 2

    def test_fractional_and_decimal_tokens_exact(self):
        m = parse_metric("0 1/3\n1/3 0")
        assert m.d(0, 1) == F(1, 3)
        m = parse_metric("0 0.1\n0.1 0")
        assert m.d(0, 1) == F(1, 10)

    def test_json_format(self):
        text = '{"points": ["a", "b"], "distances": [[0, 1.5], [1.5, 0]]}'
        m = parse_metric(text, fmt="json")
        assert m.labels == ("a", "b")
        assert m.d(0, 1) == F(3, 2)  # decimal literal kept exact

    def test_json_without_points(self):
        m = parse_metric('{"distances": [[0, 2], [2, 0]]}', fmt="json")
        assert m.labels == ("0", "1")

    def test_parse_errors(self):
        for bad in ["0 1\n1", "0 1 2\n1 0 1", "0 x\nx 0", "labels: a\n0 1\n1 0"]:
            with pytest.raises(ParseError):
                parse_metric(bad)
        with pytest.raises(ParseError):
            parse_metric("{", fmt="json")
        with pytest.raises(ParseError):
            parse_metric('{"distances": "no"}', fmt="json")

    def test_matrix_round_trip(self):
        rng = random.Random(23)
        for _ in range(20):
            m = gen_random_metric(rng.randint(2, 7), rng.randint(0, 10 ** 6))
            m = m.scaled(F(1, 3))  # force non-integer entries
            assert parse_metric(metric_to_matrix_text(m)) == m

    def test_json_round_trip(self):
        m = gen_random_metric(5, 3, model="rounded_euclidean").scaled(F(7, 5))
        assert parse_metric(metric_to_json_text(m), fmt="json") == m


def test_scaled_metric():
    m = parse_metric(FOUR_CYCLE)
    s = m.scaled(F(3, 2))
    assert s.d(0, 2) == 3 and s.d(0, 1) == F(3, 2)
    with pytest.raises(DomainError):
        m.scaled(0)
