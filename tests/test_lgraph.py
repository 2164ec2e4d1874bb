"""Exact lines and the parametric constraint graph: construction, probing,
shortest paths."""

import random
from fractions import Fraction

import pytest

from starspan import (
    DomainError,
    LinearFn,
    NegativeCycleError,
    add,
    build_lambda_graph,
    gen_random_metric,
    has_negative_cycle,
    over_vertex,
    parse_metric,
    source_path_lengths,
    under_vertex,
    vertex_name,
    vertex_site,
)
from starspan.oracle import exact_lambda_by_cycles
from helpers import rand_fraction


F = Fraction

TWO_POINT = "0 1\n1 0"
FOUR_CYCLE = "0 1 2 1\n1 0 1 2\n2 1 0 1\n1 2 1 0"


def edge_map(g):
    return {(u, v): fn for u, v, fn in g.edges}


def check_witness(g, w, lam):
    """A witness must be a real cycle whose weight is negative at lam."""
    em = edge_map(g)
    slope = F(0)
    intercept = F(0)
    vs = w.vertices
    assert len(set(vs)) == len(vs)
    for a, b in zip(vs, vs[1:] + vs[:1]):
        assert (a, b) in em, f"witness uses missing edge {(a, b)}"
        fn = em[(a, b)]
        slope += fn.slope
        intercept += fn.intercept
    assert w.weight == LinearFn(slope, intercept)
    assert w.weight(lam) < 0
    assert w.probe == lam


class TestVertexNumbering:
    def test_over_under_split(self):
        assert over_vertex(0, 3) == 0 and over_vertex(2, 3) == 2
        assert under_vertex(0, 3) == 3 and under_vertex(2, 3) == 5
        assert vertex_site(5, 3) == 2 and vertex_site(1, 3) == 1

    def test_names(self):
        assert "a" in vertex_name(2, 2, ("a", "b"))
        assert vertex_name(0, 2, ("a", "b")) != vertex_name(2, 2, ("a", "b"))


class TestBuild:
    def test_two_point_edges(self):
        g = build_lambda_graph(parse_metric(TWO_POINT))
        assert g.site_count == 2
        assert g.vertices == (0, 1, 2, 3)
        got = {(u, v): (F(fn.slope), F(fn.intercept)) for u, v, fn in g.edges}
        assert got == {
            (0, 3): (F(1), F(0)),   # Over(a) -> Under(b), weight lam*d(a,b)
            (1, 2): (F(1), F(0)),
            (2, 0): (F(0), F(0)),   # Under(a) -> Over(a), weight -d(a,a)
            (2, 1): (F(0), F(-1)),  # Under(a) -> Over(b), weight -d(a,b)
            (3, 0): (F(0), F(-1)),
            (3, 1): (F(0), F(0)),
        }

    def test_three_point_shape(self):
        g = build_lambda_graph(gen_random_metric(3, 0))
        assert len(g.vertices) == 6
        assert len(g.edges) == 15  # 9 under->over plus 6 over->under

    def test_edge_count_formula(self):
        for n in range(2, 7):
            g = build_lambda_graph(gen_random_metric(n, 1))
            assert len(g.edges) == n * n + n * (n - 1)

    def test_bipartite_orientation(self):
        g = build_lambda_graph(gen_random_metric(5, 4))
        n = g.site_count
        for u, v, fn in g.edges:
            if u < n:  # Over -> Under: the lam-side, slope > 0, no constant
                assert v >= n and fn.slope > 0 and fn.intercept == 0
            else:      # Under -> Over: the -d side, constant
                assert v < n and fn.slope == 0 and fn.intercept <= 0

    def test_rejects_single_site(self):
        with pytest.raises(DomainError):
            build_lambda_graph(parse_metric("0"))


class TestNegativeCycleProbe:
    def test_two_point_below_threshold(self):
        g = build_lambda_graph(parse_metric(TWO_POINT))
        w = has_negative_cycle(g, F(1, 2))
        assert w is not None
        check_witness(g, w, F(1, 2))
        # Hand enumeration of every simple cycle: the two 2-cycles
        # Over(v) -> Under(w) -> Over(v) weigh lam - 1, the single
        # 4-cycle weighs 2*lam. Only a 2-cycle can be negative here.
        assert w.weight == LinearFn(F(1), F(-1))
        assert w.weight(F(1, 2)) == F(-1, 2)

    def test_two_point_clean_at_and_above_threshold(self):
        g = build_lambda_graph(parse_metric(TWO_POINT))
        assert has_negative_cycle(g, F(1)) is None
        assert has_negative_cycle(g, F(2)) is None

    def test_four_cycle_threshold_two(self):
        g = build_lambda_graph(parse_metric(FOUR_CYCLE))
        w = has_negative_cycle(g, F(199, 100))
        assert w is not None
        check_witness(g, w, F(199, 100))
        assert has_negative_cycle(g, F(2)) is None

    def test_switches_at_most_once(self):
        """Scanning 20 increasing lam values flips NegCycle->Clean once."""
        rng = random.Random(31)
        for _ in range(15):
            m = gen_random_metric(rng.randint(2, 5), rng.randint(0, 10 ** 6))
            g = build_lambda_graph(m)
            lams = [F(1, 2) + F(k, 4) for k in range(20)]
            states = [has_negative_cycle(g, x) is None for x in lams]
            flips = sum(a != b for a, b in zip(states, states[1:]))
            assert flips <= 1
            assert states == sorted(states)  # never Clean then NegCycle

    def test_threshold_matches_cycle_enumeration(self):
        rng = random.Random(47)
        for _ in range(12):
            m = gen_random_metric(rng.randint(3, 5), rng.randint(0, 10 ** 6))
            g = build_lambda_graph(m)
            star = exact_lambda_by_cycles(m)
            assert has_negative_cycle(g, star) is None
            if star > 1:
                eps = F(1, 10 ** 9)
                w = has_negative_cycle(g, star - eps)
                assert w is not None
                check_witness(g, w, star - eps)

    def test_witnesses_on_random_instances(self):
        rng = random.Random(61)
        found = 0
        for _ in range(25):
            m = gen_random_metric(rng.randint(3, 6), rng.randint(0, 10 ** 6))
            g = build_lambda_graph(m)
            lam = F(rng.randint(1, 3), rng.randint(3, 5))
            w = has_negative_cycle(g, lam)
            if w is not None:
                check_witness(g, w, lam)
                found += 1
        assert found > 0  # sampled lams this small must catch some

    def test_deterministic(self):
        g = build_lambda_graph(gen_random_metric(5, 9))
        a = has_negative_cycle(g, F(11, 10))
        b = has_negative_cycle(g, F(11, 10))
        assert a == b


class TestShortestPaths:
    def setup_method(self):
        self.m = parse_metric(TWO_POINT)

    def test_two_point_lengths(self):
        pl = source_path_lengths(self.m, F(1))
        assert pl.l == {0: F(0), 1: F(0), 2: F(1), 3: F(1), 4: F(0)}

    def test_monotone_in_lambda(self):
        l1 = source_path_lengths(self.m, F(1)).l
        l2 = source_path_lengths(self.m, F(2)).l
        assert all(l2[v] >= l1[v] for v in l1)

    def test_negative_cycle_raises(self):
        with pytest.raises(NegativeCycleError):
            source_path_lengths(self.m, F(1, 2))

    def test_lengths_are_stable(self):
        """No edge can relax any further at the returned lengths."""
        rng = random.Random(13)
        for _ in range(10):
            m = gen_random_metric(rng.randint(2, 5), rng.randint(0, 10 ** 6))
            g = build_lambda_graph(m)
            n = m.n
            lam = exact_lambda_by_cycles(m) + F(rng.randint(0, 2), 3)
            pl = source_path_lengths(m, lam)
            l = pl.l
            for u, v, fn in g.edges:
                assert l[v] <= l[u] + fn(lam)
            for v in range(n):  # the zero-weight source edges
                assert l[over_vertex(v, n)] <= l[pl.source]


class TestLinearFn:
    def test_call(self):
        f = LinearFn(F(2), F(-3))
        assert f(F(5)) == 7
        assert f(0) == -3

    def test_root(self):
        assert LinearFn(F(2), F(-3)).root() == F(3, 2)
        with pytest.raises(DomainError):
            LinearFn(F(0), F(1)).root()

    def test_add(self):
        s = add(LinearFn(F(1), F(2)), LinearFn(F(3), F(-1)))
        assert s == LinearFn(F(4), F(1))


class TestEvaluate:
    def test_sample_values(self):
        f, g = LinearFn(F(2), F(0)), LinearFn(F(1), F(1))
        assert [min(f(x), g(x)) for x in (F(0), F(1), F(3))] == [0, 2, 4]

    def test_exact_fractions(self):
        assert LinearFn(F(1, 3), F(1, 7))(F(1, 2)) == F(1, 6) + F(1, 7)
        # int coefficients never divide into a float
        root = LinearFn(3, 1).root()
        assert isinstance(root, Fraction) and root == F(-1, 3)


def test_add_is_associative_and_commutative():
    rng = random.Random(3)
    fns = [
        LinearFn(rand_fraction(rng, 0, 5), rand_fraction(rng, -5, 5))
        for _ in range(20)
    ]
    for _ in range(200):
        f, g, h = rng.choice(fns), rng.choice(fns), rng.choice(fns)
        assert add(f, g) == add(g, f)
        assert add(add(f, g), h) == add(f, add(g, h))
