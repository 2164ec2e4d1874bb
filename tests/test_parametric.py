"""The squaring engine: the integer hop matrix, narrowing, exact lambda*."""

import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from starspan import (
    DomainError,
    Interval,
    MetricSpace,
    MetricViolation,
    build_lambda_graph,
    dilation_bounds,
    gen_random_metric,
    has_negative_cycle,
    lambda_star,
    lambda_star_detailed,
    parse_metric,
)
from starspan import parametric
from starspan.metric import scaled_int_rows
from starspan.oracle import exact_lambda_by_cycles
from helpers import DTYPE_PATHS, min_walk_weights, ones_twos_metric, rand_fraction, sample_points


F = Fraction

TWO_POINT = "0 1\n1 0"
FOUR_CYCLE = "0 1 2 1\n1 0 1 2\n2 1 0 1\n1 2 1 0"
EQUILATERAL3 = "0 1 1\n1 0 1\n1 1 0"


def squarings(m, count):
    """Mirror lambda_star_detailed's loop for count squarings, yielding
    (hop exponent, mat_m, mat_b, fin, interval, scale, crossing rounds)
    after each one.

    Entry (u, v) is the line (mat_m*x + mat_b)/scale where fin holds,
    including the entries the screen left to the crossing rounds.
    """
    rows, scale = scaled_int_rows(m.dist)
    interval = Interval(*dilation_bounds(m))
    mat_m, mat_b, fin = parametric._d0_int(rows)

    def probe(t):
        return parametric._relax(rows, t) is None

    for k in range(1, count + 1):
        out_m, out_b, out_fin, pend_u, pend_v = parametric._square_int(mat_m, mat_b, fin, interval)
        interval, rounds = parametric._resolve_pending(
            mat_m, mat_b, fin, out_m, out_b, pend_u, pend_v, interval, probe
        )
        mat_m, mat_b, fin = out_m, out_b, out_fin
        yield k, mat_m, mat_b, fin, interval, scale, rounds


def assert_entries_are_walks(g, mat_m, mat_b, fin, scale, interval, max_edges):
    """Every entry equals the minimum walk weight with at most max_edges
    edges at 20 points of interval; infinite exactly where no walk is."""
    order = len(fin)
    for x in sample_points(interval.lo, interval.hi, 19):
        walks = min_walk_weights(g, x, max_edges)
        for u in range(order):
            for v in range(order):
                want = walks[(u, v)]
                assert bool(fin[u, v]) == (want is not None), (u, v, x)
                if want is not None:
                    got = F(int(mat_m[u, v]) * x + int(mat_b[u, v])) / scale
                    assert got == want, (g.labels, max_edges, u, v, x)


class TestInitialInterval:
    def test_canonical_instances(self):
        # the solver's starting bracket [1, 2*max/min]
        for text, hi in ((TWO_POINT, 2), (FOUR_CYCLE, 4), (EQUILATERAL3, 2)):
            m = parse_metric(text)
            r = Interval(*dilation_bounds(m))
            assert r == Interval(F(1), F(hi))
            _, stats = lambda_star_detailed(m)
            assert r.lo <= stats.final_interval.lo <= stats.final_interval.hi <= r.hi


class TestInitializeD0:
    def test_two_point_entries(self):
        mat_m, mat_b, fin = parametric._d0_int([[0, 1], [1, 0]])
        # vertices over(0), over(1), under(0), under(1)
        assert mat_m.tolist() == [[0, 0, 0, 1], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        assert mat_b.tolist() == [[0, 0, 0, 0], [0, 0, 0, 0], [0, -1, 0, 0], [-1, 0, 0, 0]]
        assert fin.tolist() == [
            [True, False, False, True],
            [False, True, True, False],
            [True, True, True, False],
            [True, True, False, True],
        ]

    def test_matches_one_edge_walks(self):
        rng = random.Random(3)
        metrics = [parse_metric("0 1/2 2/3\n1/2 0 1/3\n2/3 1/3 0")] + [
            gen_random_metric(rng.randint(2, 4), rng.randint(0, 10 ** 6)) for _ in range(5)
        ]
        for m in metrics:
            g = build_lambda_graph(m)
            rows, scale = scaled_int_rows(m.dist)
            mat_m, mat_b, fin = parametric._d0_int(rows)
            r = Interval(*dilation_bounds(m))
            assert_entries_are_walks(g, mat_m, mat_b, fin, scale, r, 1)


class TestSquare:
    def test_identity_fixed_point(self):
        zeros = np.zeros((3, 3), dtype=object)
        fin = np.eye(3, dtype=bool)
        out_m, out_b, out_fin, pend_u, pend_v = parametric._square_int(
            zeros, zeros, fin, Interval(F(1), F(2))
        )
        assert out_m.tolist() == out_b.tolist() == zeros.tolist()
        assert (out_fin == fin).all()
        assert len(pend_u) == len(pend_v) == 0

    def test_two_point_diagonal_stays_zero(self):
        # (over(a), over(a)) after one squaring is min(0, lam - 1), which
        # on [1, 2] is identically 0: one chain is least at both ends.
        mat_m, mat_b, fin = parametric._d0_int([[0, 1], [1, 0]])
        out_m, out_b, out_fin, pend_u, _ = parametric._square_int(
            mat_m, mat_b, fin, Interval(F(1), F(2))
        )
        assert out_fin[0, 0] and 0 not in pend_u.tolist()
        assert out_m[0, 0] == 0 and out_b[0, 0] == 0

    def test_matches_bounded_walks_through_three_squarings(self):
        """Run the production squaring loop and compare every entry,
        pending ones included, against the exact walk DP at 20 sampled
        lam values after each squaring: the screen, the lines the
        crossing rounds write and the narrowing are covered at once.
        """
        rng = random.Random(29)
        texts = [TWO_POINT, FOUR_CYCLE]
        metrics = [parse_metric(t) for t in texts] + [
            gen_random_metric(rng.randint(3, 4), rng.randint(0, 10 ** 6))
            for _ in range(4)
        ]
        # an entry of this one stays open after its first crossing round
        metrics.append(gen_random_metric(4, 72))
        most_rounds = 0
        for m in metrics:
            g = build_lambda_graph(m)
            for k, mat_m, mat_b, fin, r, scale, rounds in squarings(m, 3):
                assert_entries_are_walks(g, mat_m, mat_b, fin, scale, r, 2 ** k)
                most_rounds = max(most_rounds, rounds)
        assert most_rounds >= 2


class TestNarrowInterval:
    def test_no_breakpoints_leaves_interval_alone(self):
        calls = []

        def probe(x):
            calls.append(x)
            return False

        r = Interval(F(1), F(2))
        assert parametric._binary_search_interval([], r, probe) == r
        # a squaring the screen resolves completely makes no probe either
        mat_m, mat_b, fin = parametric._d0_int([[0, 1], [1, 0]])
        out_m, out_b, _, pend_u, pend_v = parametric._square_int(mat_m, mat_b, fin, r)
        assert len(pend_u) == 0
        got = parametric._resolve_pending(mat_m, mat_b, fin, out_m, out_b, pend_u, pend_v, r, probe)
        assert got == (r, 0)
        assert calls == []

    def test_binary_search_brackets_threshold(self):
        # Cuts at 5/4, 3/2, 7/4 and a fake probe that says "negative
        # below 3/2" must narrow [1, 2] to [5/4, 3/2].
        calls = []

        def probe(x):
            calls.append(x)
            return x < F(3, 2)

        cuts = [F(5, 4), F(3, 2), F(7, 4)]
        r = parametric._binary_search_interval(cuts, Interval(F(1), F(2)), probe)
        assert r == Interval(F(5, 4), F(3, 2))
        assert set(calls) <= set(cuts)
        assert len(calls) <= 2  # binary search over three candidates

    def test_default_probe_keeps_lambda_star_inside(self):
        rng = random.Random(41)
        for _ in range(8):
            m = gen_random_metric(rng.randint(3, 5), rng.randint(0, 10 ** 6))
            star = exact_lambda_by_cycles(build_lambda_graph(m))
            count = (2 * m.n - 1).bit_length()
            for *_, r, _, _ in squarings(m, count):
                assert r.contains(star)


def crossing_pair():
    """A 2-site hop matrix whose squaring leaves only entry (0, 0) to the
    crossing rounds: its chains are 4x (through 0) and 2x + 3 (through 1),
    which cross at 3/2 inside [1, 2]."""
    mat_m = np.array([[2, 1], [1, 0]], dtype=object)
    mat_b = np.array([[0, 1], [2, 0]], dtype=object)
    fin = np.ones((2, 2), dtype=bool)
    r = Interval(F(1), F(2))
    out_m, out_b, _, pend_u, pend_v = parametric._square_int(mat_m, mat_b, fin, r)
    assert list(zip(pend_u.tolist(), pend_v.tolist())) == [(0, 0)]
    return mat_m, mat_b, fin, out_m, out_b, pend_u, pend_v, r


class TestRestrictHop:
    """The crossing rounds leave every pending entry a single line on the
    narrowed bracket."""

    def resolve(self, above):
        mat_m, mat_b, fin, out_m, out_b, pend_u, pend_v, r = crossing_pair()
        r, rounds = parametric._resolve_pending(
            mat_m, mat_b, fin, out_m, out_b, pend_u, pend_v, r, lambda t: above
        )
        assert rounds == 1
        return r, (out_m[0, 0], out_b[0, 0])

    def test_restricts_to_single_lines(self):
        assert self.resolve(True) == (Interval(F(3, 2), F(2)), (2, 3))
        assert self.resolve(False) == (Interval(F(1), F(3, 2)), (4, 0))

    def test_interior_breakpoint_rejected(self):
        # the crossing at 3/2 ends up at an end of the bracket, never
        # inside it, so the written line is least over the whole bracket
        chains = [(4, 0), (2, 3)]
        for above in (True, False):
            r, (m, b) = self.resolve(above)
            assert not r.lo < F(3, 2) < r.hi
            for x in (r.lo, r.hi):
                assert m * x + b == min(cm * x + cb for cm, cb in chains)

    def test_must_be_subinterval(self):
        rng = random.Random(43)
        for _ in range(6):
            m = gen_random_metric(rng.randint(3, 5), rng.randint(0, 10 ** 6))
            prev = Interval(*dilation_bounds(m))
            for *_, r, _, _ in squarings(m, (2 * m.n - 1).bit_length()):
                assert prev.lo <= r.lo <= r.hi <= prev.hi
                prev = r


class TestRelax:
    @pytest.mark.parametrize("limit", DTYPE_PATHS)
    def test_probe_matches_has_negative_cycle(self, limit, monkeypatch):
        """The kernel finds a negative cycle exactly where the pure-Python
        checker does: at lambda*, lambda* +- 1/10**6 and random points of
        the bracket, on random and tie-heavy {1, 2} instances, on both
        dtype paths."""
        if limit is not None:
            monkeypatch.setattr(parametric, "_INT64_VALUE_LIMIT", limit)
        rng = random.Random(71)
        eps = F(1, 10 ** 6)
        negatives = 0
        for i in range(24):
            n = rng.randint(2, 8)
            if i % 3:
                m = gen_random_metric(n, rng.randint(0, 10 ** 6))
            else:
                m = ones_twos_metric(rng, n)
            g = build_lambda_graph(m)
            rows, _ = scaled_int_rows(m.dist)
            star = lambda_star(m)
            lo, hi = dilation_bounds(m)
            lams = [star, star - eps, star + eps] + [rand_fraction(rng, lo, hi, 1000) for _ in range(3)]
            for lam in lams:
                negative = parametric._relax(rows, lam) is None
                assert negative == (has_negative_cycle(g, lam) is not None), (m.dist, lam)
                negatives += negative
        assert negatives > 0


class TestLambdaStar:
    def test_canonical_values(self):
        for text, want in ((TWO_POINT, F(1)), (FOUR_CYCLE, F(2)), (EQUILATERAL3, F(1))):
            assert lambda_star(parse_metric(text)) == want

    def test_three_point_is_always_one(self):
        rng = random.Random(53)
        for _ in range(100):
            m = gen_random_metric(3, rng.randint(0, 10 ** 9))
            assert lambda_star(m) == 1

    def test_agrees_with_cycle_enumeration(self):
        rng = random.Random(59)
        for _ in range(20):
            m = gen_random_metric(rng.randint(4, 6), rng.randint(0, 10 ** 9))
            g = build_lambda_graph(m)
            assert lambda_star(m) == exact_lambda_by_cycles(g)

    def test_probe_certificates_around_answer(self):
        rng = random.Random(67)
        checked_below = 0
        for _ in range(10):
            m = gen_random_metric(rng.randint(4, 6), rng.randint(0, 10 ** 9))
            g = build_lambda_graph(m)
            star = lambda_star(m)
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
            star, stats = lambda_star_detailed(m)
            assert stats.iterations == (2 * n - 1).bit_length()
            assert stats.max_breakpoints <= 2 * n - 1
            assert stats.final_interval.contains(star)

    def test_deterministic(self):
        m = gen_random_metric(7, 99)
        assert lambda_star_detailed(m) == lambda_star_detailed(m)

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
        assert lambda_star(m) == exact_lambda_by_cycles(g)

    def test_object_dtype_path_matches(self, monkeypatch):
        # Shrink the int64 certification limit so every squaring takes
        # the big-integer code path, then require identical answers.
        rng = random.Random(73)
        cases = [parse_metric(FOUR_CYCLE)] + [
            gen_random_metric(rng.randint(3, 5), rng.randint(0, 10 ** 6))
            for _ in range(5)
        ]
        want = [lambda_star(m) for m in cases]
        monkeypatch.setattr(parametric, "_INT64_VALUE_LIMIT", 1)
        got = [lambda_star(m) for m in cases]
        assert got == want

    def test_rejects_single_site(self):
        with pytest.raises(DomainError):
            lambda_star(parse_metric("0"))


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
        star, stats = lambda_star_detailed(m)
        assert star == want
        assert stats.final_interval.contains(star)
        assert stats.max_breakpoints <= 2 * m.n - 1
        with mock.patch.object(parametric, "_INT64_VALUE_LIMIT", 1):
            assert lambda_star_detailed(m) == (star, stats)
