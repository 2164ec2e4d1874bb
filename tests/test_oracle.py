"""Reference oracles: cycle enumeration, bisection, optimality checks."""

import random
from fractions import Fraction

import pytest

from starspan import (
    DomainError,
    SizeError,
    StarEmbedding,
    best_cycle_ratio,
    bisect_lambda,
    build_lambda_graph,
    check_optimal,
    embed,
    exact_lambda_by_cycles,
    gen_random_metric,
    parse_metric,
)
from helpers import min_walk_weights


F = Fraction

TWO_POINT = "0 1\n1 0"
FOUR_CYCLE = "0 1 2 1\n1 0 1 2\n2 1 0 1\n1 2 1 0"


class TestCycleEnumeration:
    def test_two_point(self):
        m = parse_metric(TWO_POINT)
        r = best_cycle_ratio(m)
        assert r.threshold == 1
        assert r.slope_sum > 0
        assert r.threshold == -r.intercept_sum / r.slope_sum
        assert exact_lambda_by_cycles(m) == 1

    def test_three_point_always_one(self):
        # Any 3-point metric embeds in a star with no stretch: route
        # every pair through the hub at the tight tripod lengths.
        rng = random.Random(71)
        for _ in range(20):
            m = gen_random_metric(3, rng.randint(0, 10 ** 6))
            assert exact_lambda_by_cycles(m) == 1

    def test_four_cycle(self):
        # Diagonals force c_0+c_2 >= 2 and c_1+c_3 >= 2, so the four
        # unit sides sum to at least 4 while each may stretch to lam:
        # 4 <= sum of sides' (c_v+c_w) <= 4*lam gives lam >= ... = 2,
        # and (1,1,1,1) attains it.
        m = parse_metric(FOUR_CYCLE)
        assert exact_lambda_by_cycles(m) == 2

    def test_cycle_vertices_form_real_cycle(self):
        rng = random.Random(83)
        for _ in range(15):
            m = gen_random_metric(rng.randint(2, 5), rng.randint(0, 10 ** 6))
            g = build_lambda_graph(m)
            em = {(u, v): fn for u, v, fn in g.edges}
            r = best_cycle_ratio(m)
            vs = r.vertices
            slope = F(0)
            intercept = F(0)
            for a, b in zip(vs, vs[1:] + vs[:1]):
                assert (a, b) in em
                slope += F(em[(a, b)].slope)
                intercept += F(em[(a, b)].intercept)
            assert (slope, intercept) == (r.slope_sum, r.intercept_sum)

    def test_size_cap(self):
        m = gen_random_metric(8, 0)
        with pytest.raises(SizeError):
            exact_lambda_by_cycles(m)


def test_simple_cycles_suffice_against_bounded_walks():
    """Closed walks add nothing: the walk threshold equals the simple
    cycle threshold. Checked on n <= 4 by exact min-plus walk DP up to
    2|V| edges: no walk is negative at lam*, some walk is just below.
    """
    rng = random.Random(101)
    metrics = [parse_metric(TWO_POINT), parse_metric(FOUR_CYCLE)] + [
        gen_random_metric(rng.randint(3, 4), rng.randint(0, 10 ** 6))
        for _ in range(6)
    ]
    for m in metrics:
        g = build_lambda_graph(m)
        star = exact_lambda_by_cycles(m)
        cap = 4 * m.n  # 2|V| edges
        at_star = min_walk_weights(g, star, cap)
        for v in range(2 * m.n):  # closed walks only; open paths may dip
            assert at_star[(v, v)] >= 0
        if star > 1:
            below = min_walk_weights(g, star - F(1, 10 ** 6), cap)
            assert any(
                below[(v, v)] is not None and below[(v, v)] < 0
                for v in range(2 * m.n)
            )


class TestBisection:
    def test_two_point(self):
        m = parse_metric(TWO_POINT)
        got = bisect_lambda(m, F(1, 1000))
        assert abs(got - 1) <= F(1, 1000)

    def test_four_cycle_tight_tolerance(self):
        m = parse_metric(FOUR_CYCLE)
        got = bisect_lambda(m, F(1, 10 ** 6))
        assert abs(got - 2) <= F(1, 10 ** 6)

    def test_tolerance_contract_holds_as_it_shrinks(self):
        m = gen_random_metric(5, 12345)
        star = exact_lambda_by_cycles(m)
        for k in (2, 4, 6, 8):
            tol = F(1, 10 ** k)
            assert abs(bisect_lambda(m, tol) - star) <= tol

    def test_rejects_bad_tolerance(self):
        m = parse_metric(TWO_POINT)
        with pytest.raises(DomainError):
            bisect_lambda(m, 0)
        with pytest.raises(DomainError):
            bisect_lambda(m, F(-1, 2))


class TestCheckOptimal:
    def test_hundred_random_solutions_confirmed(self):
        rng = random.Random(2026)
        good = 0
        for _ in range(100):
            m = gen_random_metric(5, rng.randint(0, 10 ** 9))
            rep = check_optimal(m, embed(m))
            assert rep.feasible and rep.optimal
            assert rep.method == "exact-cycles"
            good += 1
        assert good == 100

    def test_feasible_but_not_optimal(self):
        m = parse_metric(FOUR_CYCLE)
        s = StarEmbedding(m.labels, (F(2), F(2), F(2), F(2)), F(4))
        rep = check_optimal(m, s)
        assert rep.feasible and not rep.optimal
        assert rep.expected == 2

    def test_infeasible(self):
        m = parse_metric(FOUR_CYCLE)
        s = StarEmbedding(m.labels, (F(0), F(0), F(0), F(0)), F(1))
        rep = check_optimal(m, s)
        assert not rep.feasible and not rep.optimal

    def test_probe_method_beyond_enumeration_cap(self):
        m = gen_random_metric(8, 77)
        rep = check_optimal(m, embed(m))
        assert rep.feasible and rep.optimal
        assert rep.method == "probe"

    def test_probe_method_rejects_loose_claim(self):
        m = gen_random_metric(8, 78)
        s = embed(m)
        loose = StarEmbedding(
            s.labels,
            tuple(c * 2 for c in s.hub_len),
            s.lambda_star * 2,
        )
        rep = check_optimal(m, loose)
        assert rep.feasible and not rep.optimal

    def test_probe_skips_subunit_test_at_one(self):
        # Equilateral on 8 points: lam* = 1, nothing below 1 to probe.
        rows = [[0 if i == j else 1 for j in range(8)] for i in range(8)]
        text = "\n".join(" ".join(str(x) for x in r) for r in rows)
        m = parse_metric(text)
        s = StarEmbedding(m.labels, (F(1, 2),) * 8, F(1))
        rep = check_optimal(m, s)
        assert rep.feasible and rep.optimal
        assert rep.method == "probe"
