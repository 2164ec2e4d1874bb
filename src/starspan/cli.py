"""Command-line front end.

Subcommands:
  embed    compute an optimal star embedding, emit JSON
  lambda   print only the optimal dilation (exact and decimal)
  verify   check a claimed embedding against a metric
  gen      write a random metric instance
  bench    time the solver across sizes, write a CSV report
  oracle   independent dilation via cycle enumeration or bisection

Exit codes: 0 success (for verify: certificate holds), 1 domain failures
(metric violations, infeasible certificates), 2 malformed input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction

from .errors import DomainError, MetricViolation, ParseError, SizeError, StarspanError
from .extract import embed_detailed
from .metric import (
    MetricSpace,
    StarEmbedding,
    gen_random_metric,
    metric_to_json_text,
    metric_to_matrix_text,
    parse_metric,
    to_rational,
    verify_star,
)
from .oracle import MAX_EXACT_SITES, bisect_lambda, exact_lambda_by_cycles
from .parametric import lambda_star

RESULT_SCHEMA = 1


def rational_to_decimal_str(x: Fraction, digits: int = 20) -> str:
    """Decimal approximation with the given significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        name = "standard input" if path == "-" else path
        raise ParseError(f"{name} is not valid UTF-8 text: {exc}") from exc


def _load_metric(path: str, fmt: str) -> MetricSpace:
    return parse_metric(_read_text(path), fmt)


def _exact_pair(x: Fraction) -> dict:
    return {"exact": str(x), "decimal": rational_to_decimal_str(x)}


def _embed_result(m: MetricSpace, s: StarEmbedding, wall: float) -> dict:
    try:
        canon = metric_to_matrix_text(m)
    except DomainError:
        # Some label cannot appear in matrix text.  The JSON text starts
        # with "{" and the matrix text with "labels:", so they never collide.
        canon = metric_to_json_text(m)
    return {
        "schema": RESULT_SCHEMA,
        "lambda_star": _exact_pair(s.lambda_star),
        "hub_edges": {
            lab: _exact_pair(c) for lab, c in zip(s.labels, s.hub_len)
        },
        "input": {
            "sites": m.n,
            "sha256": hashlib.sha256(canon.encode()).hexdigest(),
        },
        "timing": {"wall_seconds": round(wall, 6)},
    }


def cmd_embed(args) -> int:
    m = _load_metric(args.metric, args.format)
    t0 = time.perf_counter()
    s, _ = embed_detailed(m)
    wall = time.perf_counter() - t0
    doc = json.dumps(_embed_result(m, s, wall), indent=1) + "\n"
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(doc)
    else:
        sys.stdout.write(doc)
    return 0


def cmd_lambda(args) -> int:
    lam = lambda_star(_load_metric(args.metric, args.format))
    print(f"{lam} {rational_to_decimal_str(lam)}")
    return 0


def _parse_star_doc(text: str, m: MetricSpace) -> StarEmbedding:
    """Read a claimed embedding: either this tool's embed output or a
    bare {"lambda_star": ..., "hub_edges": {label: ...}} object."""
    try:
        doc = json.loads(text, parse_float=Fraction)
    except ValueError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "lambda_star" not in doc or "hub_edges" not in doc:
        raise ParseError('embedding JSON needs "lambda_star" and "hub_edges"')

    def num(v):
        if isinstance(v, dict):
            if "exact" not in v:
                raise ParseError("value object is missing its \"exact\" field")
            v = v["exact"]
        return to_rational(v)

    lam = num(doc["lambda_star"])
    hub = doc["hub_edges"]
    if not isinstance(hub, dict):
        raise ParseError('"hub_edges" must map site labels to lengths')
    missing = [lab for lab in m.labels if lab not in hub]
    known = set(m.labels)
    extra = [lab for lab in hub if lab not in known]
    if missing or extra:
        raise ParseError(
            f"hub_edges labels do not match the metric (missing {missing}, extra {extra})"
        )
    return StarEmbedding(m.labels, tuple(num(hub[lab]) for lab in m.labels), lam)


def cmd_verify(args) -> int:
    m = _load_metric(args.metric, args.format)
    s = _parse_star_doc(_read_text(args.star), m)
    report = verify_star(m, s)
    if report.ok:
        print(f"ok: all constraints hold at lambda = {s.lambda_star}")
        return 0
    for line in report.lines():
        print(line, file=sys.stderr)
    return 1


def cmd_gen(args) -> int:
    m = gen_random_metric(args.sites, args.seed, args.model)
    text = metric_to_json_text(m) if args.format == "json" else metric_to_matrix_text(m)
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_bench(args) -> int:
    rows = ["n,seed,model,wall_seconds,lambda_star,iterations,max_breakpoints,engine,jumps"]
    for n in args.sizes:
        for seed in args.seeds:
            m = gen_random_metric(n, seed, args.model)
            t0 = time.perf_counter()
            s, stats = embed_detailed(m)
            wall = time.perf_counter() - t0
            rows.append(
                f"{n},{seed},{args.model},{wall:.6f},"
                f"{s.lambda_star},{stats.iterations},{stats.max_breakpoints},"
                f"{stats.engine},{stats.jumps}"
            )
            print(f"n={n} seed={seed} done in {wall:.3f}s", file=sys.stderr)
    text = "\n".join(rows) + "\n"
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_oracle(args) -> int:
    m = _load_metric(args.metric, args.format)
    if args.tol is None:
        if m.n > MAX_EXACT_SITES:
            raise SizeError(
                f"exact enumeration handles at most {MAX_EXACT_SITES} sites; pass --tol"
            )
        lam = exact_lambda_by_cycles(m)
        print(f"{lam} {rational_to_decimal_str(lam)}")
    else:
        lam = bisect_lambda(m, to_rational(args.tol))
        print(f"{lam} {rational_to_decimal_str(lam)}")
    return 0


def _int_list(text: str) -> list:
    """Comma-separated integers, as an argparse type; empty items skipped."""
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="starspan",
        description="exact minimum-dilation star networks over finite metrics",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_metric_arg(sp):
        sp.add_argument("metric", help="metric file path, or - for stdin")
        sp.add_argument(
            "--format",
            choices=("matrix", "json"),
            default="matrix",
            help="input format (default: matrix)",
        )

    sp = sub.add_parser("embed", help="compute an optimal star embedding")
    add_metric_arg(sp)
    sp.add_argument("--output", "-o", help="write JSON here instead of stdout")
    sp.set_defaults(fn=cmd_embed)

    sp = sub.add_parser("lambda", help="print only the optimal dilation")
    add_metric_arg(sp)
    sp.set_defaults(fn=cmd_lambda)

    sp = sub.add_parser("verify", help="check a claimed embedding")
    add_metric_arg(sp)
    sp.add_argument("star", help="embedding JSON path, or - for stdin")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("gen", help="write a random metric instance")
    sp.add_argument("sites", type=int)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--model", choices=("shortest_path", "rounded_euclidean"), default="shortest_path"
    )
    sp.add_argument(
        "--format", choices=("matrix", "json"), default="matrix", help="output format"
    )
    sp.add_argument("--output", "-o", help="write here instead of stdout")
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("bench", help="time the solver across sizes")
    sp.add_argument(
        "--sizes", type=_int_list, default="32,64,128", help="comma-separated site counts"
    )
    sp.add_argument("--seeds", type=_int_list, default="1", help="comma-separated seeds")
    sp.add_argument(
        "--model", choices=("shortest_path", "rounded_euclidean"), default="shortest_path"
    )
    sp.add_argument("--output", "-o", help="CSV report path (default stdout)")
    sp.set_defaults(fn=cmd_bench)

    sp = sub.add_parser("oracle", help="independent dilation computation")
    add_metric_arg(sp)
    sp.add_argument(
        "--tol",
        help="bisect to this tolerance (exact ratio like 1/1000000000) "
        "instead of exhaustive enumeration",
    )
    sp.set_defaults(fn=cmd_oracle)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MetricViolation, DomainError, SizeError, StarspanError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
