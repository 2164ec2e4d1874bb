"""Exception types shared across the library.

Everything raised on purpose derives from StarspanError, so callers can
catch one base class at the API boundary.  InternalInvariantError is the
exception: it signals a bug in this library, not bad input, and is meant
to surface loudly rather than be caught.
"""


class StarspanError(Exception):
    """Base class for all errors raised deliberately by this package."""


class ParseError(StarspanError):
    """Input text is malformed for the declared format."""


class MetricViolation(StarspanError):
    """A distance matrix breaks one of the metric conditions.

    sites holds the offending index tuple: (i,) for a nonzero diagonal,
    (i, j) for asymmetry or a nonpositive off-diagonal entry, and
    (i, k, j) when d(i,j) > d(i,k) + d(k,j).
    """

    def __init__(self, message, sites=()):
        super().__init__(message)
        self.sites = tuple(sites)


class DomainError(StarspanError):
    """An argument lies outside an operation's documented domain."""


class NegativeCycleError(StarspanError):
    """Shortest paths were requested on a graph with a negative cycle."""


class SizeError(StarspanError):
    """The instance is too large for an exhaustive oracle."""


class InternalInvariantError(StarspanError):
    """An internal consistency check failed; this indicates a bug."""
