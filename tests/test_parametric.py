"""The squaring engine: hop matrices, narrowing, exact lambda*."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from starspan import (
    PLUS_INFINITY,
    BreakpointInside,
    DomainError,
    HopMatrix,
    Interval,
    LinearFn,
    MetricSpace,
    MetricViolation,
    build_lambda_graph,
    gen_random_metric,
    has_negative_cycle,
    initial_interval,
    initialize_d0,
    lambda_star,
    lambda_star_detailed,
    lower_envelope,
    narrow_interval,
    parse_metric,
    restrict_hop,
    square,
)
from starspan import parametric
from starspan.oracle import exact_lambda_by_cycles
from helpers import min_walk_weights, sample_points


F = Fraction

TWO_POINT = "0 1\n1 0"
FOUR_CYCLE = "0 1 2 1\n1 0 1 2\n2 1 0 1\n1 2 1 0"
EQUILATERAL3 = "0 1 1\n1 0 1\n1 1 0"


def graph_of(text):
    m = parse_metric(text)
    return m, build_lambda_graph(m)


class TestInitialInterval:
    def test_canonical_instances(self):
        for text, hi in ((TWO_POINT, 2), (FOUR_CYCLE, 4), (EQUILATERAL3, 2)):
            m, g = graph_of(text)
            r = initial_interval(g, m)
            assert r == Interval(F(1), F(hi))


class TestInitializeD0:
    def test_two_point_entries(self):
        m, g = graph_of(TWO_POINT)
        d = initialize_d0(g, initial_interval(g, m))
        assert d.order == 4 and d.hop_exponent == 0
        INF = PLUS_INFINITY
        zero = LinearFn(F(0), F(0))
        lam1 = LinearFn(F(1), F(0))
        expected = (
            (zero, INF, INF, lam1),
            (INF, zero, lam1, INF),
            (zero, LinearFn(F(0), F(-1)), zero, INF),
            (LinearFn(F(0), F(-1)), zero, INF, zero),
        )
        assert d.entries == expected

    def test_matches_one_edge_walks(self):
        rng = random.Random(3)
        for _ in range(5):
            m = gen_random_metric(rng.randint(2, 4), rng.randint(0, 10 ** 6))
            g = build_lambda_graph(m)
            r = initial_interval(g, m)
            d = initialize_d0(g, r)
            for x in sample_points(r.lo, r.hi, 7):
                walks = min_walk_weights(g, x, 1)
                for u in range(d.order):
                    for v in range(d.order):
                        got = d.entry_value(u, v, x)
                        want = walks[(u, v)]
                        assert (got is PLUS_INFINITY) == (want is None)
                        if want is not None:
                            assert got == want


class TestSquare:
    def test_identity_fixed_point(self):
        INF = PLUS_INFINITY
        zero = LinearFn(F(0), F(0))
        rows = tuple(
            tuple(zero if i == j else INF for j in range(3)) for i in range(3)
        )
        d = HopMatrix(3, rows, 0, Interval(F(1), F(2)))
        s = square(d)
        assert s.entries == rows
        assert s.hop_exponent == 1
        assert s.valid_interval == d.valid_interval

    def test_two_point_diagonal_stays_zero(self):
        # (Over(a), Over(a)) after one squaring is min(0, lam - 1),
        # which on [1, 2] is identically 0: a single line, no pieces.
        m, g = graph_of(TWO_POINT)
        d1 = square(initialize_d0(g, initial_interval(g, m)))
        assert d1.entries[0][0] == LinearFn(0, 0)
        for x in (F(1), F(3, 2), F(2)):
            assert d1.entry_value(0, 0, x) == 0 == min(0, x - 1)

    def test_rejects_piecewise_input(self):
        pw = lower_envelope(
            [LinearFn(F(2), F(0)), LinearFn(F(1), F(3, 2))], Interval(F(1), F(2))
        )
        rows = ((pw, LinearFn(F(0), F(0))), (LinearFn(F(0), F(0)), LinearFn(F(0), F(0))))
        d = HopMatrix(2, rows, 1, Interval(F(1), F(2)))
        with pytest.raises(DomainError):
            square(d)

    def test_matches_bounded_walks_through_three_squarings(self):
        """Mirror the engine loop with public ops and compare every
        entry against the exact walk DP at 20 sampled lam values per
        iteration. Covers squaring, narrowing, and restriction at once.
        """
        rng = random.Random(29)
        texts = [TWO_POINT, FOUR_CYCLE]
        metrics = [parse_metric(t) for t in texts] + [
            gen_random_metric(rng.randint(3, 4), rng.randint(0, 10 ** 6))
            for _ in range(4)
        ]
        for m in metrics:
            g = build_lambda_graph(m)
            r = initial_interval(g, m)
            d = initialize_d0(g, r)
            for _ in range(3):
                d = square(d)
                r = narrow_interval(g, d)
                d = restrict_hop(d, r)
                cap = 2 ** d.hop_exponent
                for x in sample_points(r.lo, r.hi, 19):
                    walks = min_walk_weights(g, x, cap)
                    for u in range(d.order):
                        for v in range(d.order):
                            got = d.entry_value(u, v, x)
                            want = walks[(u, v)]
                            assert (got is PLUS_INFINITY) == (want is None)
                            if want is not None:
                                assert got == want, (m.labels, u, v, x)


class TestNarrowInterval:
    def test_no_breakpoints_leaves_interval_alone(self):
        m, g = graph_of(TWO_POINT)
        d1 = square(initialize_d0(g, initial_interval(g, m)))
        calls = []

        def probe(x):
            calls.append(x)
            return False

        assert narrow_interval(g, d1, probe) == d1.valid_interval
        assert calls == []  # nothing to probe without breakpoints

    def test_binary_search_brackets_threshold(self):
        # Hand-built matrix whose entries break at 5/4, 3/2, 7/4; a fake
        # probe that says "negative below 3/2" must narrow to [5/4, 3/2].
        dom = Interval(F(1), F(2))

        def crossing(b):
            return lower_envelope([LinearFn(F(2), F(0)), LinearFn(F(1), b)], dom)

        rows = (
            (crossing(F(5, 4)), crossing(F(3, 2))),
            (crossing(F(7, 4)), LinearFn(F(0), F(0))),
        )
        d = HopMatrix(2, rows, 1, dom)
        _, g = graph_of(TWO_POINT)  # unused by the injected probe
        calls = []

        def probe(x):
            calls.append(x)
            return x < F(3, 2)

        r = narrow_interval(g, d, probe)
        assert r == Interval(F(5, 4), F(3, 2))
        assert set(calls) <= {F(5, 4), F(3, 2), F(7, 4)}
        assert len(calls) <= 2  # binary search over three candidates

    def test_default_probe_keeps_lambda_star_inside(self):
        rng = random.Random(41)
        for _ in range(8):
            m = gen_random_metric(rng.randint(3, 5), rng.randint(0, 10 ** 6))
            g = build_lambda_graph(m)
            star = exact_lambda_by_cycles(g)
            d = initialize_d0(g, initial_interval(g, m))
            r = d.valid_interval
            for _ in range(3):
                d = square(d)
                r = narrow_interval(g, d)
                assert r.lo <= star <= r.hi
                d = restrict_hop(d, r)


class TestRestrictHop:
    def setup_method(self):
        dom = Interval(F(1), F(2))
        pw = lower_envelope(
            [LinearFn(F(2), F(0)), LinearFn(F(1), F(3, 2))], dom
        )  # breakpoint at 3/2
        line = LinearFn(F(0), F(0))
        self.d = HopMatrix(2, ((pw, line), (line, line)), 1, dom)

    def test_restricts_to_single_lines(self):
        r = restrict_hop(self.d, Interval(F(7, 4), F(2)))
        assert r.entries[0][0] == LinearFn(F(1), F(3, 2))
        assert r.valid_interval == Interval(F(7, 4), F(2))
        r2 = restrict_hop(self.d, Interval(F(1), F(5, 4)))
        assert r2.entries[0][0] == LinearFn(F(2), F(0))

    def test_interior_breakpoint_rejected(self):
        with pytest.raises(BreakpointInside):
            restrict_hop(self.d, Interval(F(5, 4), F(7, 4)))

    def test_must_be_subinterval(self):
        with pytest.raises(DomainError):
            restrict_hop(self.d, Interval(F(0), F(3)))


class TestLambdaStar:
    def test_canonical_values(self):
        for text, want in ((TWO_POINT, F(1)), (FOUR_CYCLE, F(2)), (EQUILATERAL3, F(1))):
            m, g = graph_of(text)
            assert lambda_star(g, m) == want

    def test_three_point_is_always_one(self):
        rng = random.Random(53)
        for _ in range(100):
            m = gen_random_metric(3, rng.randint(0, 10 ** 9))
            g = build_lambda_graph(m)
            assert lambda_star(g, m) == 1

    def test_agrees_with_cycle_enumeration(self):
        rng = random.Random(59)
        for _ in range(20):
            m = gen_random_metric(rng.randint(4, 6), rng.randint(0, 10 ** 9))
            g = build_lambda_graph(m)
            assert lambda_star(g, m) == exact_lambda_by_cycles(g)

    def test_probe_certificates_around_answer(self):
        rng = random.Random(67)
        checked_below = 0
        for _ in range(10):
            m = gen_random_metric(rng.randint(4, 6), rng.randint(0, 10 ** 9))
            g = build_lambda_graph(m)
            star = lambda_star(g, m)
            assert has_negative_cycle(g, star) is None
            if star > 1:
                for k in range(10):
                    below = 1 + (star - 1) * F(k, 10)
                    assert has_negative_cycle(g, below) is not None
                    checked_below += 1
        assert checked_below > 0

    def test_iteration_count_and_stats(self):
        for n in (2, 3, 5, 8, 13):
            m = gen_random_metric(n, 4) if n > 2 else parse_metric(TWO_POINT)
            g = build_lambda_graph(m)
            star, stats = lambda_star_detailed(g, m)
            assert stats.iterations == (2 * n - 1).bit_length()
            assert stats.max_breakpoints <= 2 * n - 1
            assert stats.final_interval.contains(star)

    def test_deterministic(self):
        m = gen_random_metric(7, 99)
        g = build_lambda_graph(m)
        assert lambda_star_detailed(g, m) == lambda_star_detailed(g, m)

    def test_exact_with_huge_denominators(self):
        # Six distinct ~2^31 primes as denominators force the scaled
        # integers far past the int64 certification bound, so this
        # exercises the arbitrary-precision path on a real instance.
        primes = [2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549]
        rows = [[F(0)] * 4 for _ in range(4)]
        it = iter(primes)
        for i in range(4):
            for j in range(i + 1, 4):
                p = next(it)
                rows[i][j] = rows[j][i] = 1 + F(1, p)
        text = "\n".join(" ".join(str(x) for x in row) for row in rows)
        m = parse_metric(text)
        g = build_lambda_graph(m)
        assert lambda_star(g, m) == exact_lambda_by_cycles(g)

    def test_object_dtype_path_matches(self, monkeypatch):
        # Shrink the int64 certification limit so every squaring takes
        # the big-integer code path, then require identical answers.
        rng = random.Random(73)
        cases = [parse_metric(FOUR_CYCLE)] + [
            gen_random_metric(rng.randint(3, 5), rng.randint(0, 10 ** 6))
            for _ in range(5)
        ]
        want = [lambda_star(build_lambda_graph(m), m) for m in cases]
        monkeypatch.setattr(parametric, "_INT64_VALUE_LIMIT", 1)
        got = [lambda_star(build_lambda_graph(m), m) for m in cases]
        assert got == want


# Large primes as denominators: clearing them scales the metric far past
# int64, and crossings between chains become ratios of huge integers.
BIG_PRIMES = (2147483647, 1000000007, 998244353, 2305843009213693951)


@st.composite
def adversarial_metrics(draw):
    """Small metrics built to stress ties and exactness: distances from
    tiny value sets (many equal chains), or rationals in (1, 2) over one
    big prime.  The {1, 2, 3} set also yields non-metrics, which are
    discarded."""
    n = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(("ones-twos", "three-to-six", "one-to-three", "primes")))
    if kind == "primes":
        p = draw(st.sampled_from(BIG_PRIMES))
        value = st.builds(lambda a: 1 + F(a, p), st.integers(1, p - 1))
    else:
        value = st.sampled_from({"ones-twos": (1, 2), "three-to-six": (3, 4, 5, 6),
                                 "one-to-three": (1, 2, 3)}[kind])
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = F(draw(value))
    try:
        return MetricSpace(tuple(str(i) for i in range(n)), rows)
    except MetricViolation:
        assume(False)


class TestAdversarial:
    @given(adversarial_metrics())
    @settings(deadline=None, max_examples=100, derandomize=True)
    def test_matches_cycle_enumeration_on_both_dtype_paths(self, m):
        g = build_lambda_graph(m)
        want = exact_lambda_by_cycles(g)
        star, stats = lambda_star_detailed(g, m)
        assert star == want
        assert stats.final_interval.contains(star)
        assert stats.max_breakpoints <= 2 * m.n - 1
        with mock.patch.object(parametric, "_INT64_VALUE_LIMIT", 1):
            assert lambda_star_detailed(g, m) == (star, stats)
