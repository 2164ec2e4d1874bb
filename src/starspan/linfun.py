"""Exact lines in one parameter and closed parameter intervals.

A LinearFn is the line x -> slope*x + intercept; the comparison graph's
edge weights and the weights of its cycles are such lines.  An Interval
is a closed bracket [lo, hi] of parameter values.  Coefficients,
endpoints and evaluation points are exact rationals; plain ints are
accepted anywhere a rational is.  Nothing in this module rounds.

All values here are immutable and the functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import DomainError

Rational = Union[int, Fraction]


def _ratio(num: Rational, den: Rational) -> Fraction:
    """Exact num/den.  Guards against int/int producing a float."""
    if isinstance(num, int) and isinstance(den, int):
        return Fraction(num, den)
    return Fraction(num) / Fraction(den)


@dataclass(frozen=True)
class LinearFn:
    """The exact line x -> slope*x + intercept."""

    slope: Rational
    intercept: Rational

    def __call__(self, x: Rational) -> Rational:
        return self.slope * x + self.intercept

    def root(self) -> Fraction:
        """The unique zero of a non-constant line."""
        if self.slope == 0:
            raise DomainError("a constant line has no unique root")
        return _ratio(-self.intercept, self.slope)


def add(f: LinearFn, g: LinearFn) -> LinearFn:
    """Pointwise sum of two lines."""
    return LinearFn(f.slope + g.slope, f.intercept + g.intercept)


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise DomainError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, x: Rational) -> bool:
        return self.lo <= x <= self.hi
