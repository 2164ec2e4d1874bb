"""Turning a clean graph into hub lengths, and the full embed pipeline."""

import random
from fractions import Fraction

import pytest

from starspan import (
    NegativeCycleError,
    PathLengths,
    StarEmbedding,
    build_lambda_graph,
    embed,
    embed_detailed,
    gen_random_metric,
    has_negative_cycle,
    hub_lengths,
    lambda_star,
    parse_metric,
    source_path_lengths,
    star_dilation,
    verify_star,
)
from starspan import parametric
from starspan.oracle import exact_lambda_by_cycles
from helpers import DTYPE_PATHS, ones_twos_metric, reference_path_lengths


F = Fraction

TWO_POINT = "0 1\n1 0"
FOUR_CYCLE = "0 1 2 1\n1 0 1 2\n2 1 0 1\n1 2 1 0"


class TestPathLengths:
    def test_two_point_values(self):
        m = parse_metric(TWO_POINT)
        pl = source_path_lengths(m, F(1))
        assert pl.l == {0: F(0), 1: F(0), 2: F(1), 3: F(1), 4: F(0)}
        assert pl.l[pl.source] == 0

    def test_below_threshold_raises(self):
        m = parse_metric(FOUR_CYCLE)
        with pytest.raises(NegativeCycleError):
            source_path_lengths(m, F(3, 2))

    def test_invariants_on_random_instances(self):
        """l(source) = 0, l(Over) <= 0, and no edge can still relax."""
        rng = random.Random(19)
        for _ in range(12):
            m = gen_random_metric(rng.randint(2, 6), rng.randint(0, 10 ** 6))
            g = build_lambda_graph(m)
            lam = lambda_star(m)
            pl = source_path_lengths(m, lam)
            assert pl.l[pl.source] == 0
            for v in range(m.n):
                assert pl.l[v] <= 0
            for u, v, w in g.edges:
                assert pl.l[v] <= pl.l[u] + w(lam)

    @pytest.mark.parametrize("limit", DTYPE_PATHS)
    def test_matches_reference_lengths(self, limit, monkeypatch):
        """Equal to plain Fraction Bellman-Ford at lambda* (where
        zero-weight cycles exist) and above it, on random and tie-heavy
        {1, 2} instances, on both dtype paths; just below lambda* both
        find a negative cycle."""
        if limit is not None:
            monkeypatch.setattr(parametric, "_INT64_VALUE_LIMIT", limit)
        rng = random.Random(23)
        below_checked = 0
        for i in range(16):
            n = rng.randint(2, 7)
            if i % 2:
                m = gen_random_metric(n, rng.randint(0, 10 ** 6))
            else:
                m = ones_twos_metric(rng, n)
            g = build_lambda_graph(m)
            star = lambda_star(m)
            for lam in (star, star + F(1, 7), 2 * star):
                assert source_path_lengths(m, lam).l == reference_path_lengths(g, lam)
            if star > 1:
                below = star - F(1, 10 ** 6)
                assert reference_path_lengths(g, below) is None
                with pytest.raises(NegativeCycleError):
                    source_path_lengths(m, below)
                below_checked += 1
        assert below_checked > 0


class TestHubLengths:
    def test_two_point_halves(self):
        pl = PathLengths(4, {0: F(0), 1: F(0), 2: F(1), 3: F(1), 4: F(0)})
        assert hub_lengths(pl, 2) == [F(1, 2), F(1, 2)]

    def test_zero_length_allowed(self):
        pl = PathLengths(2, {0: F(-1), 1: F(-1), 2: F(0)})
        assert hub_lengths(pl, 1) == [F(0)]


class TestEmbed:
    def test_two_point(self):
        s = embed(parse_metric(TWO_POINT))
        assert s.lambda_star == 1
        assert s.hub_len == (F(1, 2), F(1, 2))

    def test_four_cycle(self):
        m = parse_metric(FOUR_CYCLE)
        s = embed(m)
        assert s.lambda_star == 2
        assert verify_star(m, s).ok
        assert star_dilation(m, s.hub_len) <= 2

    def test_three_point_realizes_distances_exactly(self):
        rng = random.Random(37)
        for _ in range(25):
            m = gen_random_metric(3, rng.randint(0, 10 ** 9))
            s = embed(m)
            assert s.lambda_star == 1
            c = s.hub_len
            for v in range(3):
                for w in range(v + 1, 3):
                    assert c[v] + c[w] == m.d(v, w)

    def test_output_always_verifies(self):
        rng = random.Random(43)
        for _ in range(30):
            m = gen_random_metric(rng.randint(2, 7), rng.randint(0, 10 ** 9))
            s = embed(m)
            assert verify_star(m, s).ok
            assert star_dilation(m, s.hub_len) <= s.lambda_star

    def test_optimal_against_enumeration(self):
        rng = random.Random(47)
        for _ in range(15):
            m = gen_random_metric(rng.randint(4, 6), rng.randint(0, 10 ** 9))
            g = build_lambda_graph(m)
            s = embed(m)
            assert s.lambda_star == exact_lambda_by_cycles(g)

    def test_detailed_returns_stats(self):
        m = gen_random_metric(5, 11)
        s, stats = embed_detailed(m)
        assert s == embed(m)
        assert stats.iterations == (2 * 5 - 1).bit_length()

    def test_scale_equivariance(self):
        rng = random.Random(53)
        for _ in range(10):
            m = gen_random_metric(rng.randint(3, 6), rng.randint(0, 10 ** 6))
            s = embed(m)
            for alpha in (F(2), F(1, 3), F(7, 5)):
                t = embed(m.scaled(alpha))
                assert t.lambda_star == s.lambda_star
                assert t.hub_len == tuple(alpha * c for c in s.hub_len)


def test_clean_probe_means_feasible_at_that_lambda():
    """Feasibility link: Clean at lam iff a star with dilation <= lam
    can be read off the shortest paths. NegCycle at lam iff the path
    computation itself blows up.
    """
    rng = random.Random(61)
    for _ in range(20):
        m = gen_random_metric(rng.randint(2, 5), rng.randint(0, 10 ** 6))
        g = build_lambda_graph(m)
        lam = F(rng.randint(1, 4), rng.randint(1, 2))
        if lam < 1:
            lam = 1 / lam
        if has_negative_cycle(g, lam) is None:
            pl = source_path_lengths(m, lam)
            c = hub_lengths(pl, m.n)
            s = StarEmbedding(m.labels, tuple(c), F(lam))
            assert verify_star(m, s).ok
        else:
            with pytest.raises(NegativeCycleError):
                source_path_lengths(m, lam)
