"""Tests of the benchmark's own logic: span self time, host-speed scaling, the patcher, the output checks."""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checkers import _exact, check_workload, lambda_at  # noqa: E402
from hostspeed import REFERENCE_PROBE_S, scale  # noqa: E402
from jobs import WORKLOADS, job_key  # noqa: E402
from tracer import Tracer  # noqa: E402

REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())


def test_self_time_on_nested_and_recursive_spans():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def tick(dt):
        now[0] += dt

    leaf = tracer.wrap("leaf", lambda: tick(1.0))

    def outer():
        tick(2.0)
        leaf()
        leaf()
        tick(0.5)

    def rec(k):
        tick(1.0)
        if k:
            rec_traced(k - 1)
        leaf()

    outer_traced = tracer.wrap("outer", outer)
    rec_traced = tracer.wrap("rec", rec)
    outer_traced()
    rec_traced(2)
    stats = tracer.span_stats()
    assert stats["outer"] == {"calls": 1, "s": 4.5, "self_s": 2.5}
    assert stats["leaf"] == {"calls": 5, "s": 5.0, "self_s": 5.0}
    # rec(2) spans 6 s; the nested rec(1), rec(0) add no inclusive time
    assert stats["rec"] == {"calls": 3, "s": 6.0, "self_s": 3.0}


def test_scaling_cancels_a_host_that_slows_jobs_and_probes_alike():
    jobs = [2.0, 0.5]
    assert scale(jobs, [REFERENCE_PROBE_S] * 3) == jobs
    # the host runs at 3/4 speed: jobs and probes take 4/3 as long
    slow = scale([t * 4 / 3 for t in jobs], [REFERENCE_PROBE_S * 4 / 3] * 3)
    assert slow == pytest.approx(jobs)
    # one probe hit by a burst of contention does not move the factor
    assert scale(jobs, [REFERENCE_PROBE_S, 5 * REFERENCE_PROBE_S, REFERENCE_PROBE_S]) == jobs


def test_patcher_reaches_names_imported_into_other_modules():
    from arithdyn import boettcher
    from arithdyn.exactnum import ComplexBall, RatPoly, series
    from arithdyn.polymap import PolyMap

    original_inverse, original_mul = series.series_inverse, ComplexBall.__mul__
    tracer = Tracer()
    try:
        tracer.install()
        assert boettcher.series_inverse is not original_inverse
        boettcher.boettcher_frame(PolyMap.from_text("X^2+1"), 4)
        2 * ComplexBall(1, 1)  # __rmul__ is an alias of __mul__
        RatPoly([1, 0, 1]).eval(Fraction(3))  # inherited method, shadowed on RatPoly
    finally:
        tracer.uninstall()
    stats = tracer.span_stats()
    assert stats["exactnum.series_inverse"]["calls"] == 1
    assert stats["boettcher.boettcher_frame"]["calls"] == 1
    assert stats["exactnum.ComplexBall.mul"]["calls"] >= 1
    assert tracer.counters["dynamics.orbit_bits.max"] == 5  # 10/1: 4 + 1 bits
    assert boettcher.series_inverse is original_inverse
    assert series.series_inverse is original_inverse
    assert ComplexBall.__rmul__ is original_mul and ComplexBall.__mul__ is original_mul
    assert "eval" not in vars(RatPoly)


def _output(result: dict) -> str:
    return json.dumps({"result": result})


def _snap_result(pairs):
    factors = [{"coeffs": ["1/1"] * (d + 1), "mult": m} for d, m in pairs]
    multiset = sorted(d for d, m in pairs for _ in range(d * m))
    return {"factors": {"factors": factors}, "multiset": multiset}


def test_snap_check_rejects_a_wrong_degree_multiset():
    argv = WORKLOADS["tower"][0]
    pairs = REFERENCE["tower"][job_key(argv)]
    assert check_workload([argv], [_output(_snap_result(pairs))], REFERENCE) == [None]
    wrong = [[pairs[0][0] + 1, pairs[0][1]]] + pairs[1:]
    assert check_workload([argv], [_output(_snap_result(wrong))], REFERENCE)[0]


def _census_result(shift: Fraction):
    """A census result for the height-4 lambda job, last midpoint shifted."""
    qs = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4)]
    records = []
    for q in qs:
        v = _exact(lambda_at(q)) + (shift if q == qs[-1] else 0)
        records.append({"q": f"{q.numerator}/{q.denominator}",
                        "mid": f"{v.numerator}/{v.denominator}", "rad": f"1/{10 ** 30}"})
    return {"verdicts": {"certified-no-rational": 5}, "records": records}


def test_census_check_rejects_an_enclosure_that_misses_the_oracle():
    argv = ["census", "--function", "lambda", "--height", "4", "--precision", "512"]
    assert argv in WORKLOADS["census"]
    assert check_workload([argv], [_output(_census_result(Fraction(0)))], REFERENCE) == [None]
    bad = check_workload([argv], [_output(_census_result(Fraction(1, 10 ** 20)))], REFERENCE)
    assert "misses" in bad[0]


@pytest.mark.parametrize("mid, ok", [("0.015625000000000000000000000000+0.000000000000000000000000000000i", True),
                                     ("0.015725000000000000000000000000+0.000000000000000000000000000000i", False)])
def test_fstar_check_needs_one_over_alpha_inside(mid, ok):
    argv = ["fstar", "--map", "X^2+1", "--alpha", "64", "--order", "32"]
    result = {"value": {"mid": mid, "rad": "0.000001000000000000000000000000"}}
    assert (check_workload([argv], [_output(result)], REFERENCE) == [None]) is ok


def test_canonical_height_checks_radius_and_overlap():
    a = ["canonical-height", "--map", "X^2+1", "--alpha", "1/3", "--eps", "1/1000"]
    b = ["canonical-height", "--map", "X^2+1", "--alpha", "1/3", "--eps", "1/100000"]
    near = _output({"canonical": {"mid": "1.3242", "rad": "0.000001"}})
    far = _output({"canonical": {"mid": "1.3300", "rad": "0.000001"}})
    wide = _output({"canonical": {"mid": "1.3242", "rad": "0.01"}})
    assert check_workload([a, b], [near, near], REFERENCE) == [None, None]
    assert all(check_workload([a, b], [near, far], REFERENCE))
    assert check_workload([a], [wide], REFERENCE)[0]
    assert check_workload([a, b], [near, None], REFERENCE) == [None, None]


def test_boettcher_check_rejects_a_changed_coefficient():
    argv = WORKLOADS["escape"][-3]
    coeffs = dict(REFERENCE["boettcher"][job_key(argv)])
    assert check_workload([argv], [_output({"coefficients": coeffs})], REFERENCE) == [None]
    coeffs["b7"] = "1/1"
    assert "b7" in check_workload([argv], [_output({"coefficients": coeffs})], REFERENCE)[0]
