"""Set up one workload, run it as a closed loop and compute its metrics.

One process, one thread, one client: each op starts when the previous
one has returned.  Ops run in whole passes over the workload's case
list: at least one pass, and another only while it is expected to end
within the time budget.  Only the ops themselves are timed; checking
their outputs happens between them, off the clock.

With trace off the metrics are the end-to-end ones, in reference
seconds: each set-up and each op is timed on the wall clock and scaled
by the host's speed at that moment, from a reference kernel timed
between them (refclock.py).  The wall-clock figures are kept in the
result file's detail.  With trace on,
every op runs twice, once bare and once with the tracer installed (the
order alternates from op to op), and the metrics are the per-layer ones.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy

from refclock import REF_NOMINAL_S, HostClock
from tracing import Tracer
from workloads import WORKLOADS, Case, Checker, load_expected

SETUP_REPS = 3
# Kernel samples before each set-up and after the last.
SETUP_TICKS = 3
# Op time after which the next kernel sample is due.
REF_EVERY_S = 0.1
MAX_ERRORS_KEPT = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
    "success_frac": "frac",
}

# Per-layer time metric -> span name whose self time it reports.
LAYER_SPANS = {
    "metric.parse_s": "metric.parse",
    "metric.verify_s": "metric.verify",
    "lgraph.build_s": "lgraph.build",
    "parametric.solve_s": "parametric.solve",
    "extract.sssp_s": "extract.sssp",
    "extract.hub_s": "extract.hub",
    "cli.self_s": "cli.main",
}
# Per-layer count metric -> (RunStats field, how ops combine).
COUNTS = {
    "parametric.probe_count": ("probe_count", sum),
    "parametric.iterations": ("iterations", sum),
    "parametric.max_breakpoints": ("max_breakpoints", max),
}


def machine_context() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _import_seconds(src: str) -> float:
    """Wall time for a fresh interpreter to start and import the program."""
    code = f"import sys; sys.path.insert(0, {src!r}); import numpy, starspan"
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t


def set_up(
    workload: str, seed: int, workdir: str, src: str, clock: HostClock
) -> Tuple[List[Case], List[Tuple[float, float]]]:
    """Build the cases SETUP_REPS times; each sample (start, seconds) is a
    fresh import plus generating the instances and writing their files."""
    samples = []
    for _ in range(SETUP_REPS):
        for _ in range(SETUP_TICKS):
            clock.tick()
        start = time.perf_counter()
        imp = _import_seconds(src)
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        t = time.perf_counter()
        cases = WORKLOADS[workload](seed, workdir)
        samples.append((start, imp + time.perf_counter() - t))
    for _ in range(SETUP_TICKS):
        clock.tick()
    return cases, samples


@dataclass
class Tally:
    latencies: List[float] = field(default_factory=list)
    starts: List[float] = field(default_factory=list)
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(msg)


def _timed(case: Case):
    # Each op starts from a collected heap, as it would in a fresh process,
    # so no op pays for the garbage of the one before it.
    gc.collect()
    t = time.perf_counter()
    try:
        result, err = case.op(), None
    except Exception as exc:  # a failed op is counted, and the loop goes on
        result, err = None, f"{case.name}: {type(exc).__name__}: {exc}"
    return result, t, time.perf_counter() - t, err


def _record(tally: Tally, checker: Checker, case: Case, result, t: float, dt: float,
            err) -> None:
    tally.starts.append(t)
    tally.latencies.append(dt)
    if err is None:
        try:
            err = checker.check(case, result)
        except Exception as exc:  # output too malformed to check
            err = f"{case.name}: checking raised {type(exc).__name__}: {exc}"
    if err is not None:
        tally.fail(err)


def _passes(budget: float, timed):
    """Yield pass numbers: one at least, more while the next should fit."""
    n = 0
    while n == 0 or timed() * (n + 1) / n <= budget:
        yield n
        n += 1


def run_plain(cases: List[Case], checker: Checker, seconds: float,
              clock: Optional[HostClock] = None) -> Tally:
    """Whole passes within `seconds` of wall time, with a kernel sample on
    `clock` at the start, after every REF_EVERY_S of op time and at the end."""
    clock = clock or HostClock()
    tally = Tally()
    first_stats: Dict[str, object] = {}
    clock.tick()
    begin, since = time.perf_counter(), 0.0
    for _ in _passes(seconds, lambda: time.perf_counter() - begin):
        for case in cases:
            result, t, dt, err = _timed(case)
            _record(tally, checker, case, result, t, dt, err)
            if err is None and case.stats is not None:
                stats = case.stats(result)
                if first_stats.setdefault(case.name, stats) != stats:
                    tally.fail(f"{case.name}: RunStats changed between repeats")
            since += dt
            if since >= REF_EVERY_S:
                clock.tick()
                since = 0.0
    clock.tick()
    return tally


def run_traced(
    cases: List[Case], checker: Checker, seconds: float, tracer: Tracer
) -> Tuple[Tally, Tally, List[Dict[str, int]]]:
    """Each op bare and traced, in alternating order; returns the bare
    tally, the traced tally and the bare RunStats counts of pass 0."""
    bare, traced = Tally(), Tally()
    bare_counts: List[Dict[str, int]] = []
    op = 0
    for npass in _passes(seconds / 2, lambda: sum(bare.latencies)):
        for case in cases:
            for tracing in ((False, True) if op % 2 == 0 else (True, False)):
                if tracing:
                    tracer.op = op
                    with tracer:
                        result, t, dt, err = _timed(case)
                    _record(traced, checker, case, result, t, dt, err)
                else:
                    result, t, dt, err = _timed(case)
                    _record(bare, checker, case, result, t, dt, err)
                    if npass == 0 and err is None and case.stats is not None:
                        s = case.stats(result)
                        bare_counts.append({k: getattr(s, f) for k, (f, _) in COUNTS.items()})
            op += 1
    return bare, traced, bare_counts


def _count_metrics(tracer: Tracer, ops: range) -> Dict[str, int]:
    out = {}
    for name, (field_name, combine) in COUNTS.items():
        out[name] = combine(tracer.counts.get(op, {}).get(field_name, 0) for op in ops)
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: str, src: str,
            expected_path: str) -> dict:
    """Run one workload; returns the result document (see run.py)."""
    context = machine_context()
    context["loadavg_start"] = os.getloadavg()
    clock = HostClock()
    cases, setup_samples = set_up(workload, seed, workdir, src, clock)
    checker = Checker(load_expected(expected_path, workload, seed))
    detail: dict = {"setup_samples_s": [dt for _, dt in setup_samples], "cases": len(cases)}

    if not trace:
        tally = run_plain(cases, checker, seconds, clock)
        wall = tally.latencies
        ref = clock.scale(list(zip(tally.starts, wall)))
        setups = clock.scale(setup_samples)
        attempted, failed, errors = len(wall), tally.failed, tally.errors
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(ref) / sum(ref),
            "op_p50_s": statistics.median(ref),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_frac": 1 - failed / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        detail["op_samples"] = len(wall)
        detail["wall"] = {
            "setup_s": statistics.median(dt for _, dt in setup_samples),
            "ops_per_s": len(wall) / sum(wall),
            "op_p50_s": statistics.median(wall),
        }
        # A percentile is reported only with at least 10 samples beyond it.
        if len(wall) >= 200:
            detail["op_p95_s"] = statistics.quantiles(ref, n=20)[-1]
            detail["wall"]["op_p95_s"] = statistics.quantiles(wall, n=20)[-1]
    else:
        tracer = Tracer()
        bare, traced, bare_counts = run_traced(cases, checker, seconds, tracer)
        attempted = len(bare.latencies) + len(traced.latencies)
        failed = bare.failed + traced.failed
        errors = (bare.errors + traced.errors)[:MAX_ERRORS_KEPT]
        nops = len(traced.latencies)
        selfs = tracer.self_times()
        metrics = {
            k: {"value": selfs.get(span, 0.0) / nops, "unit": "s"}
            for k, span in LAYER_SPANS.items()
        }
        counts = _count_metrics(tracer, range(len(cases)))
        if bare_counts:
            want = {k: combine(c[k] for c in bare_counts) for k, (_, combine) in COUNTS.items()}
            if want != counts:
                failed += 1
                errors.append(f"traced counts {counts} differ from RunStats {want}")
        for k, v in counts.items():
            metrics[k] = {"value": v, "unit": "count"}
        metrics["metric.scale_bits"] = {"value": max(c.scale_bits for c in cases), "unit": "bits"}
        metrics["trace.overhead_frac"] = {
            "value": sum(traced.latencies) / sum(bare.latencies) - 1,
            "unit": "frac",
        }
        detail["op_samples"] = nops
        detail["self_time_per_op_s"] = {k: v / nops for k, v in selfs.items()}
        tracer.write(os.path.join(workdir, "spans.jsonl"))

    context["loadavg_end"] = os.getloadavg()
    context["ref_kernel_nominal_s"] = REF_NOMINAL_S
    context["ref_kernel_s"] = {
        "samples": len(clock.secs),
        "median": statistics.median(clock.secs),
        "min": min(clock.secs),
        "max": max(clock.secs),
    }
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "context": context,
        "detail": detail,
        "error_frac": failed / attempted,
        "errors": errors,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }

