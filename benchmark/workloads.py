"""The benchmark's workloads: instances made from a seed, the timed call
on each, and the untimed check of its output.

Every workload is a list of cases.  A case owns one timed call (`op`)
and knows how to turn what the call returned into an outcome that can be
compared: the exact dilation, a sha256 of the hub vector and, for CLI
calls, the exit codes.  At the default seed the outcome must equal the
value committed in expected.json.  At any other seed it is certified from
scratch instead: `verify_star` must accept it and an independent
optimality check must agree (see `certify_optimal`).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import starspan
import starspan.cli
from starspan import (
    MetricSpace,
    RunStats,
    StarEmbedding,
    build_lambda_graph,
    check_optimal,
    dilation_bounds,
    gen_random_metric,
    has_negative_cycle,
    metric_to_matrix_text,
    parse_metric,
    verify_star,
)
from starspan.oracle import MAX_EXACT_SITES

from ratgen import gen_rational_metric, scale_bits

DEFAULT_SEED = 1
SP, RE = "shortest_path", "rounded_euclidean"

# Sizes and instance counts.  Each list is one pass; a run repeats whole
# passes.  A workload keeps to one size where it can, so that its median
# op is a typical call and not the gap between two sizes.  See NOTES.md
# for why each workload looks the way it does.
MID_INT = [(24, SP), (24, RE)] * 56
RATIONAL_OBJ = [32] * 24
CLI_SMALL_COUNT = 200
CLI_SMALL_SIZES = (6, 24)
VERIFY_LARGE = [(192, SP), (192, RE)] * 2
TIGHTEN = Fraction(999, 1000)


def hub_sha256(hub: Sequence[Fraction]) -> str:
    return hashlib.sha256(" ".join(str(c) for c in hub).encode()).hexdigest()


def certify_optimal(m: MetricSpace, s: StarEmbedding) -> Optional[str]:
    """None if s is feasible and optimal for m, else the reason it is not.

    At n = 7 `check_optimal` enumerates cycles, which takes seconds; there
    the probe sandwich it applies to every larger n is applied directly:
    clean at the claim, a negative cycle just below it.
    """
    report = verify_star(m, s)
    if not report.ok:
        return "verify_star: " + "; ".join(report.lines()[:3])
    if m.n != MAX_EXACT_SITES:
        opt = check_optimal(m, s)
        return None if opt.optimal else "check_optimal: " + "; ".join(opt.notes)
    g = build_lambda_graph(m)
    if has_negative_cycle(g, s.lambda_star) is not None:
        return f"negative cycle at the claimed {s.lambda_star}"
    below = s.lambda_star * (1 - Fraction(1, 2**20))
    if s.lambda_star > 1 and has_negative_cycle(g, below) is None:
        return f"already clean below the claimed {s.lambda_star}"
    return None


@dataclass
class Case:
    """One timed call and how to judge what it returned."""

    name: str
    op: Callable[[], object]
    # outcome(result) -> (comparable outcome, embedding to certify or None,
    # error message or None).  Runs outside the timed section.
    outcome: Callable[[object], Tuple[dict, Optional[StarEmbedding], Optional[str]]]
    metric: MetricSpace
    scale_bits: int
    # Library ops return RunStats too; None for CLI ops.
    stats: Optional[Callable[[object], RunStats]] = None
    # For verify_large: the claim checked and the exit code it must get.
    claim: Optional[StarEmbedding] = None
    expect_exit: Optional[int] = None


def _star_outcome(s: StarEmbedding):
    out = {"lambda": str(s.lambda_star), "hub_sha256": hub_sha256(s.hub_len)}
    return out, s, None


def _library_cases(metrics: List[Tuple[str, MetricSpace]], workdir: str) -> List[Case]:
    cases = []
    for name, m in metrics:
        path = os.path.join(workdir, name + ".txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(metric_to_matrix_text(m))
        # The benchmark solves what a user would load from that file.
        with open(path, "r", encoding="utf-8") as fh:
            loaded = parse_metric(fh.read())
        cases.append(
            Case(
                name,
                lambda m=loaded: starspan.embed_detailed(m),
                lambda result: _star_outcome(result[0]),
                loaded,
                scale_bits(loaded),
                stats=lambda result: result[1],
            )
        )
    return cases


def _cli(argv: List[str]) -> Tuple[int, str, str]:
    """cli.main in-process, with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # Looked up on the module at call time, so a tracer can wrap it.
        rc = starspan.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def mid_int(seed: int, workdir: str) -> List[Case]:
    return _library_cases(
        [
            (f"{model[:2]}{n}-{i}", gen_random_metric(n, 1000 * seed + i, model))
            for i, (n, model) in enumerate(MID_INT)
        ],
        workdir,
    )


def rational_obj(seed: int, workdir: str) -> List[Case]:
    return _library_cases(
        [
            (f"q{n}-{i}", gen_rational_metric(n, 1000 * seed + i))
            for i, n in enumerate(RATIONAL_OBJ)
        ],
        workdir,
    )


def cli_small(seed: int, workdir: str) -> List[Case]:
    rng = random.Random(f"cli_small:{seed}")
    lo, hi = CLI_SMALL_SIZES
    cases = []
    for i in range(CLI_SMALL_COUNT):
        # Sizes cycle instead of being drawn, so the seed changes which
        # metrics are solved but not how much work a pass is.
        n = lo + (i // 2) % (hi - lo + 1)
        model = (SP, RE)[i % 2]
        m = gen_random_metric(n, rng.randrange(2**31), model)
        name = f"{model[:2]}{n}-{i}"
        inst = os.path.join(workdir, name + ".txt")
        star = os.path.join(workdir, name + ".json")
        with open(inst, "w", encoding="utf-8") as fh:
            fh.write(metric_to_matrix_text(m))

        def op(inst=inst, star=star):
            return _cli(["embed", inst, "-o", star]), _cli(["verify", inst, star])

        def outcome(result, star=star, m=m):
            (rc_e, _, err_e), (rc_v, out_v, err_v) = result
            if rc_e != 0 or rc_v != 0 or not out_v.startswith("ok:"):
                return {}, None, f"exit codes embed={rc_e} verify={rc_v}: {err_e}{err_v}"
            with open(star, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            s = StarEmbedding(
                m.labels,
                tuple(Fraction(doc["hub_edges"][lab]["exact"]) for lab in m.labels),
                Fraction(doc["lambda_star"]["exact"]),
            )
            return _star_outcome(s)

        cases.append(Case(name, op, outcome, m, scale_bits(m)))
    return cases


def verify_large(seed: int, workdir: str) -> List[Case]:
    """Certificates built without the solver: every hub edge equal to the
    largest distance D is feasible exactly down to lam = 2D / min_d, the
    upper end of `dilation_bounds`.  The tightened claim breaks every
    closest pair, so `verify` must exit 1."""
    cases = []
    for i, (n, model) in enumerate(VERIFY_LARGE):
        m = gen_random_metric(n, 1000 * seed + i, model)
        inst = os.path.join(workdir, f"{model[:2]}{n}-{i}.txt")
        with open(inst, "w", encoding="utf-8") as fh:
            fh.write(metric_to_matrix_text(m))
        big = max(max(row) for row in m.dist)
        hi = dilation_bounds(m)[1]
        for kind, lam, rc in (("valid", hi, 0), ("tight", hi * TIGHTEN, 1)):
            name = f"{model[:2]}{n}-{i}-{kind}"
            claim = StarEmbedding(m.labels, (big,) * n, lam)
            star = os.path.join(workdir, name + ".json")
            with open(star, "w", encoding="utf-8") as fh:
                json.dump(
                    {
                        "lambda_star": str(lam),
                        "hub_edges": {lab: str(big) for lab in m.labels},
                    },
                    fh,
                )

            def outcome(result, lam=lam, rc=rc):
                got = result[0]
                err = None if got == rc else f"verify exited {got}, expected {rc}"
                return {"lambda": str(lam), "exit": got}, None, err

            cases.append(
                Case(
                    name,
                    lambda inst=inst, star=star: _cli(["verify", inst, star]),
                    outcome,
                    m,
                    scale_bits(m),
                    claim=claim,
                    expect_exit=rc,
                )
            )
    return cases


WORKLOADS: Dict[str, Callable[[int, str], List[Case]]] = {
    "mid_int": mid_int,
    "rational_obj": rational_obj,
    "cli_small": cli_small,
    "verify_large": verify_large,
}


@dataclass
class Checker:
    """Judges outcomes; certifies each distinct outcome of a case once."""

    expected: Optional[Dict[str, dict]]
    _seen: Dict[Tuple[str, str], Optional[str]] = field(default_factory=dict)

    def check(self, case: Case, result) -> Optional[str]:
        """None if the op's result is correct, else why not."""
        out, star, err = case.outcome(result)
        if err is not None:
            return err
        key = (case.name, json.dumps(out, sort_keys=True))
        if key not in self._seen:
            self._seen[key] = self._judge(case, out, star)
        return self._seen[key]

    def _judge(self, case: Case, out: dict, star: Optional[StarEmbedding]) -> Optional[str]:
        if self.expected is not None:
            want = self.expected.get(case.name)
            if want != out:
                return f"{case.name}: got {out}, committed {want}"
            if star is not None:
                report = verify_star(case.metric, star)
                if not report.ok:
                    return "verify_star: " + "; ".join(report.lines()[:3])
        elif star is not None:
            return certify_optimal(case.metric, star)
        if case.claim is not None:
            # The CLI's verdict must agree with the library's.
            ok = verify_star(case.metric, case.claim).ok
            if ok != (case.expect_exit == 0):
                return f"verify_star says ok={ok} for a claim expected to exit {case.expect_exit}"
        return None


def load_expected(path: str, workload: str, seed: int) -> Optional[Dict[str, dict]]:
    """Committed outcomes for the default seed; None for any other seed."""
    if seed != DEFAULT_SEED:
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)[workload]
