"""Tests of the benchmark itself (not of starspan).

From the root of a checkout:  python3 -m pytest benchmark/test_bench.py
"""

from __future__ import annotations

import filecmp
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

import measure  # noqa: E402
import ratgen  # noqa: E402
import refclock  # noqa: E402
import starspan.cli  # noqa: E402
import workloads  # noqa: E402
from workloads import SP, RE, WORKLOADS, Checker  # noqa: E402

TINY = {
    "MID_INT": [(8, SP), (8, RE)],
    "RATIONAL_OBJ": [12],
    "CLI_SMALL_COUNT": 4,
    "CLI_SMALL_SIZES": (6, 9),
    "VERIFY_LARGE": [(10, SP), (12, RE)],
}


@pytest.fixture
def tiny(monkeypatch):
    for name, value in TINY.items():
        monkeypatch.setattr(workloads, name, value)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_instances(workload, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    WORKLOADS[workload](5, str(a))
    WORKLOADS[workload](5, str(b))
    names = sorted(os.listdir(a))
    assert names and names == sorted(os.listdir(b))
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert match == names and not mismatch and not errors


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_pass_has_no_errors(workload, trace, tiny, tmp_path):
    doc = measure.measure(workload, 2, 0.0, trace, str(tmp_path / "w"), SRC, "")
    res = doc["result"]
    assert doc["error_frac"] == 0, doc["errors"]
    assert res["correct"] and res["attempted"] >= 1 and res["failed"] == 0
    if trace:
        assert set(res["metrics"]) == (
            set(measure.LAYER_SPANS) | set(measure.COUNTS)
            | {"metric.scale_bits", "trace.overhead_frac"}
        )
        assert (tmp_path / "w" / "spans.jsonl").stat().st_size > 0
    else:
        assert set(res["metrics"]) == set(measure.END_TO_END_UNITS)
    # The tracer put every wrapped function back.
    assert not hasattr(starspan.cli.main, "__wrapped__")


def _library_case(tmp_path):
    return workloads._library_cases(
        [("sp8", starspan.gen_random_metric(8, 3, SP))], str(tmp_path)
    )[0]


def test_wrong_lambda_is_a_failure(tmp_path):
    case = _library_case(tmp_path)

    def wrong():
        s, stats = starspan.embed_detailed(case.metric)
        # Still feasible (a larger lambda is looser), but not optimal.
        return replace(s, lambda_star=s.lambda_star + Fraction(1, 7)), stats

    bad = replace(case, op=wrong)
    tally = measure.run_plain([bad], Checker(None), 0.0)
    assert tally.failed == len(tally.latencies) == 1

    committed = {case.name: {"lambda": "1", "hub_sha256": "0" * 64}}
    tally = measure.run_plain([case], Checker(committed), 0.0)
    assert tally.failed == 1 and "committed" in tally.errors[0]


def test_rational_instances_must_force_the_object_path(monkeypatch):
    assert ratgen.scale_bits(ratgen.gen_rational_metric(32, 1)) >= ratgen.MIN_SCALE_BITS
    monkeypatch.setattr(ratgen, "MIN_SCALE_BITS", 10**6)
    with pytest.raises(AssertionError):
        ratgen.gen_rational_metric(12, 1)


def test_host_clock_scales_by_the_nearest_kernel_samples(monkeypatch):
    monkeypatch.setattr(refclock, "MIN_SAMPLES", 3)
    monkeypatch.setattr(refclock, "SPAN_S", 0.5)
    clock = refclock.HostClock()
    nominal = refclock.REF_NOMINAL_S
    clock.mids = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    clock.secs = [nominal, nominal, nominal, 2 * nominal, 2 * nominal, 2 * nominal]
    assert clock.factor(0.5) == 1.0
    assert clock.factor(4.6) == 0.5
    # An op of 2 wall seconds while the host ran at half speed is 1
    # reference second.
    assert clock.scale([(0.0, 0.2), (3.5, 2.0)]) == [0.2, 1.0]
    # Within SPAN_S of the middle, every sample counts.
    monkeypatch.setattr(refclock, "SPAN_S", 10.0)
    assert clock.factor(0.5) == 2 / 3
    clock.tick()
    assert len(clock.secs) == 7 and clock.secs[-1] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "mid_int", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""
