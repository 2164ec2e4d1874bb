"""Exact minimum-dilation star networks over finite metric spaces.

Given an n-point metric, find hub-to-site edge lengths whose star network
stretches no pairwise distance by more than a factor lambda, with lambda
as small as possible.  Everything is computed in exact rational
arithmetic; the optimum comes out as an exact Fraction, not an
approximation.
"""

from .errors import (
    DomainError,
    InternalInvariantError,
    MetricViolation,
    NegativeCycleError,
    ParseError,
    SizeError,
    StarspanError,
)
from .extract import (
    PathLengths,
    embed,
    embed_detailed,
    hub_lengths,
    source_path_lengths,
)
from .lgraph import (
    CycleWitness,
    LambdaGraph,
    build_lambda_graph,
    has_negative_cycle,
    over_vertex,
    under_vertex,
    vertex_name,
    vertex_site,
)
from .linfun import (
    Interval,
    LinearFn,
    add,
)
from .metric import (
    GENERATOR_MODELS,
    MetricSpace,
    StarEmbedding,
    VerificationReport,
    Violation,
    dilation_bounds,
    gen_random_metric,
    metric_to_json_text,
    metric_to_matrix_text,
    parse_metric,
    star_dilation,
    to_rational,
    verify_star,
)
from .oracle import (
    CycleRatio,
    OptimalityReport,
    best_cycle_ratio,
    bisect_lambda,
    check_optimal,
    exact_lambda_by_cycles,
)
from .parametric import (
    RunStats,
    lambda_star,
    lambda_star_detailed,
)

__version__ = "0.1.0"
