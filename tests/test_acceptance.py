"""Acceptance suite: one criterion per test, one printed verdict line each.

Every expected value here is either a hand-checkable canonical instance
or is confirmed live against the independent enumeration oracle, so a
regression in the engine cannot hide behind a stale constant.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from starspan import (
    GENERATOR_MODELS,
    bisect_lambda,
    build_lambda_graph,
    embed_detailed,
    gen_random_metric,
    has_negative_cycle,
    lambda_star,
    lambda_star_detailed,
    parse_metric,
    verify_star,
)
from starspan.oracle import exact_lambda_by_cycles
from starspan.parametric import ENGINES
from helpers import embed_with


F = Fraction

TWO_POINT = "0 1\n1 0"
FOUR_CYCLE = "0 1 2 1\n1 0 1 2\n2 1 0 1\n1 2 1 0"

SMALL_CASES = [
    (n, seed, model)
    for n in (4, 5, 6)
    for model in GENERATOR_MODELS
    for seed in range(34)
]  # 204 instances
TRI_CASES = [
    (3, seed, model) for model in GENERATOR_MODELS for seed in range(250)
]  # 500 instances
MID_CASES = [
    (n, seed, model)
    for n in (10, 20, 40)
    for model in GENERATOR_MODELS
    for seed in range(10)
]  # 60 instances


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def corpus():
    """Every instance the certificate, instrumentation and cross-engine
    criteria cover, solved once by each engine: (metric, graph,
    {engine: (embedding, run stats)})."""
    metrics = [parse_metric(text) for text in (TWO_POINT, FOUR_CYCLE)] + [
        gen_random_metric(n, seed, model=model)
        for n, seed, model in SMALL_CASES + TRI_CASES + MID_CASES
    ]
    return [
        (m, build_lambda_graph(m), {e: embed_with(m, e) for e in ENGINES})
        for m in metrics
    ]


def test_criterion_1_oracle_agreement():
    """The paper's engine equals exhaustive cycle enumeration on 204
    instances."""
    t0 = time.perf_counter()
    mismatches = []
    for n, seed, model in SMALL_CASES:
        m = gen_random_metric(n, seed, model=model)
        got = lambda_star_detailed(m, engine="parametric")[0]
        want = exact_lambda_by_cycles(m)
        if got != want:
            mismatches.append((n, seed, model, got, want))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 120
    detail = f"{len(SMALL_CASES) - len(mismatches)}/{len(SMALL_CASES)} exact, {elapsed:.1f}s < 120s"
    assert report(1, "oracle-agreement", ok, detail), mismatches[:5]


def test_criterion_2_three_point_exactness():
    """500 3-point metrics: lambda* = 1 and distances realized exactly."""
    t0 = time.perf_counter()
    bad = []
    for n, seed, model in TRI_CASES:
        m = gen_random_metric(n, seed, model=model)
        s, _ = embed_detailed(m)
        c = s.hub_len
        exact = all(
            c[v] + c[w] == m.d(v, w) for v in range(3) for w in range(v + 1, 3)
        )
        if s.lambda_star != 1 or not exact:
            bad.append((seed, model, s.lambda_star))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 10
    detail = f"{len(TRI_CASES) - len(bad)}/{len(TRI_CASES)} exact, {elapsed:.1f}s < 10s"
    assert report(2, "three-point-exactness", ok, detail), bad[:5]


def test_criterion_3_canonical_instances():
    """Unit two-point and unit 4-cycle, values confirmed by the oracle."""
    m2 = parse_metric(TWO_POINT)
    s2, _ = embed_detailed(m2)
    m4 = parse_metric(FOUR_CYCLE)
    s4, _ = embed_detailed(m4)
    oracle2 = exact_lambda_by_cycles(m2)
    oracle4 = exact_lambda_by_cycles(m4)
    ok = (
        s2.lambda_star == oracle2 == 1
        and s2.hub_len == (F(1, 2), F(1, 2))
        and s4.lambda_star == oracle4 == 2
        and verify_star(m4, s4).ok
    )
    hub = ",".join(str(c) for c in s2.hub_len)
    detail = f"two-point lam*={s2.lambda_star} c=({hub}); 4-cycle lam*={s4.lambda_star}"
    assert report(3, "canonical-instances", ok, detail)


def test_criterion_4_bisection_sandwich():
    """Bisection at tol 1e-9 lands within 1e-9 of the exact answer."""
    t0 = time.perf_counter()
    tol = F(1, 10 ** 9)
    worst = F(0)
    bad = []
    for n, seed, model in MID_CASES:
        m = gen_random_metric(n, seed, model=model)
        exact = lambda_star(m)
        approx = bisect_lambda(m, tol)
        gap = abs(approx - exact)
        worst = max(worst, gap)
        if gap > tol:
            bad.append((n, seed, model, gap))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 300
    detail = (
        f"{len(MID_CASES) - len(bad)}/{len(MID_CASES)} within 1e-9 "
        f"(worst gap {float(worst):.2e}), {elapsed:.1f}s < 300s"
    )
    assert report(4, "bisection-sandwich", ok, detail), bad[:5]


def test_criterion_5_certificates(corpus):
    """Every corpus solution verifies, is clean at lambda*, and has a
    negative-cycle witness just below lambda* whenever lambda* > 1."""
    bad = []
    probed_below = 0
    for m, g, solved in corpus:
        s, _ = solved["newton"]
        lam = s.lambda_star
        if not verify_star(m, s).ok:
            bad.append(("verify", m.n, lam))
            continue
        if has_negative_cycle(g, lam) is not None:
            bad.append(("not-clean-at-answer", m.n, lam))
            continue
        if lam > 1:
            below = lam * (1 - F(1, 2 ** 20))
            if has_negative_cycle(g, below) is None:
                bad.append(("no-witness-below", m.n, lam))
                continue
            probed_below += 1
    ok = not bad
    detail = (
        f"{len(corpus) - len(bad)}/{len(corpus)} certified, "
        f"{probed_below} sub-optimal probes produced witnesses"
    )
    assert report(5, "certificates", ok, detail), bad[:5]


def test_criterion_6_instrumentation(corpus):
    """The paper's engine keeps its breakpoint and iteration counts
    inside the proven bounds."""
    bad = []
    max_breaks = 0
    for m, _, solved in corpus:
        _, stats = solved["parametric"]
        nv = 2 * m.n
        max_breaks = max(max_breaks, stats.max_breakpoints)
        if stats.max_breakpoints > nv - 1:
            bad.append(("breakpoints", m.n, stats.max_breakpoints))
        if stats.iterations != (nv - 1).bit_length():
            bad.append(("iterations", m.n, stats.iterations))
    ok = not bad
    detail = (
        f"{len(corpus)} instances, max {max_breaks} crossing rounds per squaring, "
        f"iterations always ceil(log2(2n))"
    )
    assert report(6, "instrumentation", ok, detail), bad[:5]


def test_criterion_7_scaling():
    """The paper's engine: wall time at n=128 under a minute; empirical
    exponent <= 3.6."""
    sizes = (32, 64, 128, 256)
    times = []
    for n in sizes:
        m = gen_random_metric(n, 1)
        t0 = time.perf_counter()
        embed_with(m, "parametric")
        times.append(time.perf_counter() - t0)
    slope = float(
        np.polyfit(np.log([float(n) for n in sizes]), np.log(times), 1)[0]
    )
    ok = times[2] < 60 and slope <= 3.6
    detail = (
        ", ".join(f"n={n}: {t:.2f}s" for n, t in zip(sizes, times))
        + f"; fitted exponent {slope:.2f} <= 3.6"
    )
    assert report(7, "scaling", ok, detail)


def test_criterion_8_scale_equivariance():
    """Rescaling distances by alpha keeps lambda* and scales hubs by alpha."""
    cases = [
        (n, seed, model)
        for n in (4, 5, 6, 7, 8)
        for model in GENERATOR_MODELS
        for seed in range(5)
    ]  # 50 instances
    alphas = (F(2), F(1, 3), F(7, 5))
    bad = []
    for n, seed, model in cases:
        m = gen_random_metric(n, seed, model=model)
        s, _ = embed_detailed(m)
        for alpha in alphas:
            t, _ = embed_detailed(m.scaled(alpha))
            if t.lambda_star != s.lambda_star or t.hub_len != tuple(
                alpha * c for c in s.hub_len
            ):
                bad.append((n, seed, model, alpha))
    ok = not bad
    detail = f"{len(cases)} instances x {len(alphas)} scale factors, all bit-identical"
    assert report(8, "scale-equivariance", ok, detail), bad[:5]


def test_criterion_9_published_figure_instance():
    """The 5-point illustration with lambda* = 8/5 is not reproducible:
    its source drawing never states the full distance matrix, so there
    is no instance to freeze. Recorded as excluded rather than faked."""
    print("ACCEPTANCE 9 figure-instance: SKIP (source figure underspecifies the metric)")
    pytest.skip("source figure does not pin down the full distance matrix")


def test_criterion_10_cross_engine(corpus):
    """Both engines give bit-identical embeddings on the whole corpus."""
    bad = []
    jumps = []
    for m, _, solved in corpus:
        (s_newton, stats), (s_param, _) = solved["newton"], solved["parametric"]
        if s_newton != s_param:
            bad.append((m.n, s_newton.lambda_star, s_param.lambda_star))
        if stats.engine != "newton":
            bad.append(("fell-back-to", stats.engine, m.n))
        jumps.append(stats.jumps)
    ok = not bad
    detail = (
        f"{len(corpus) - len(bad)}/{len(corpus)} bit-identical, "
        f"Newton jumps mean {sum(jumps) / len(jumps):.2f}, max {max(jumps)}"
    )
    assert report(10, "cross-engine", ok, detail), bad[:5]
