"""Exact lines and closed intervals."""

import random
from fractions import Fraction

import pytest

from starspan import DomainError, Interval, LinearFn, add
from helpers import rand_fraction


F = Fraction


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


class TestInterval:
    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            Interval(F(2), F(1))

    def test_contains(self):
        r = Interval(F(1), F(3))
        assert r.contains(F(1)) and r.contains(F(3)) and r.contains(F(2))
        assert not r.contains(F(4))
        assert Interval(F(1), F(1)).contains(1)


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
