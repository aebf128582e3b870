import hashlib
import json
import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arithdyn.boettcher as boettcher
from arithdyn.boettcher import (
    boettcher_frame,
    boettcher_series,
    delta_exception_set,
    delta_v,
    fstar_eval,
    good_place,
    padic_abs,
    phi_eval,
    psi_eval,
)
from arithdyn.cli import main
from arithdyn.countkit.census import enumerate_rationals, make_evaluator
from arithdyn.errors import DomainError, ResourceGuardError
from arithdyn.exactnum import ComplexBall, RatPoly, RealBall, ball_cexp, ball_pi
from arithdyn.exactnum.series import series_compose_poly, series_inverse, series_power
from arithdyn.polymap import PolyMap
from conftest import random_monic_map
import oracles
from oracles import series_compose_series

P2 = PolyMap.from_text("X^2")
P21 = PolyMap.from_text("X^2+1")


def test_power_map_series_is_identity():
    for D in (2, 3, 4):
        B = boettcher_series(PolyMap(RatPoly([0] * D + [1])), 8)
        assert all(B.b(k) == 0 for k in range(9))


def test_quadratic_family_coefficients():
    for c in (F(1), F(-1), F(1, 2)):
        P = PolyMap(RatPoly([c, 0, 1]))
        B = boettcher_series(P, 6)
        assert B.b(1) == c / 2
        assert B.b(2) == 0
        assert B.b(3) == c * (2 - c) / 8


def test_functional_equation_residual_random(rng):
    for _ in range(4):
        P = random_monic_map(rng)
        N = 8
        B = boettcher_series(P, N)
        lhs = series_compose_poly(B.phi, P.poly)
        rhs = series_power(B.phi, P.degree)
        floor = max(lhs.cert_exp, rhs.cert_exp)
        assert floor <= P.degree - 1 - N
        for e in range(P.degree, floor - 1, -1):
            assert lhs.coefficient(e) == rhs.coefficient(e)


def test_inverse_of_identity_is_identity():
    from arithdyn.exactnum.series import TruncSeries, series_inverse

    s = TruncSeries.identity(-4)
    inv = series_inverse(s)
    assert inv.coefficient(1) == 1
    assert all(inv.coefficient(e) == 0 for e in range(0, inv.cert_exp - 1, -1))


def test_inverse_series_examples():
    B = boettcher_series(P21, 8)
    psi = series_inverse(B.phi)
    assert psi.coefficient(1) == 1
    assert psi.coefficient(-1) == -B.b(1)
    rt = series_compose_series(psi, B.phi)
    assert rt.coefficient(1) == 1
    for e in range(0, rt.cert_exp - 1, -1):
        assert rt.coefficient(e) == 0


@given(seed=st.integers(0, 2 ** 32), N=st.integers(1, 20))
@settings(max_examples=12, deadline=None)
def test_horner_composition_matches_the_dict_oracle(seed, N):
    P = random_monic_map(random.Random(seed), max_degree=4)
    B = boettcher_series(P, N)
    for c in range(1, -N - 1, -1):
        phi = B.phi.truncate(c)
        new = series_compose_poly(phi, P.poly)
        old = oracles.series_compose_poly(phi, P.poly)
        assert new.cert_exp == old.cert_exp == (c - 1) * P.degree + 1
        for e in range(P.degree, new.cert_exp - 1, -1):
            assert new.coefficient(e) == old.coefficient(e)
    rt = series_compose_series(series_inverse(B.phi), B.phi)
    assert rt.cert_exp == -N
    for e in range(1, rt.cert_exp - 1, -1):
        assert rt.coefficient(e) == (e == 1)


def test_cubic_series_and_inverse_within_time_budget():
    t0 = time.perf_counter()
    B = boettcher_series(PolyMap.from_text("X^3+X+1"), 24)
    series_inverse(B.phi)
    assert time.perf_counter() - t0 < 0.04  # 3-5 ms on integer numerators


def test_cubic_series_order_48_within_budget(capsys):
    # stdout pinned from the output of the schoolbook series products (0.9 s
    # there); 7-13 ms on integer numerators
    t0 = time.perf_counter()
    assert main(["boettcher-series", "--map", "X^3+X+1", "--order", "48"]) == 0
    assert time.perf_counter() - t0 < 0.1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9ded23e7297f23719f9b1e9826902e37e298ab65d35e18ad57c840f5bf1970c7")


def test_escape_radius_examples(capsys):
    assert P2.escape_radius == 1
    assert P21.escape_radius == 2
    assert PolyMap.from_text("X^2-3*X+1").escape_radius == 5
    assert main(["escape-radius", "--map", "X^2-3*X+1"]) == 0
    res = json.loads(capsys.readouterr().out)["result"]
    assert res == {"radius": "5/1", "safe": "10/1"}


def test_fstar_power_map_exact_quarter():
    res = fstar_eval(P2, 4, ComplexBall(0, F(1, 24)), N=8)
    assert res.value.re == F(1, 4) and res.value.im == 0 and res.value.rad == 0


def test_fstar_enumerates_roots_power_map():
    # 1/f at tau = k/D^n + i/24 runs through solutions of X^(2^n) = alpha^(2^n)
    alpha = F(2)
    for n in (1, 2, 3):
        for k in range(2 ** n):
            tau = ComplexBall(F(k, 2 ** n) - F(1, 2) if F(k, 2 ** n) > F(1, 2) else F(k, 2 ** n),
                              F(1, 24))
            res = fstar_eval(P2, alpha, tau, N=8, prec=160)
            root = res.value.inverse()
            powered = root ** (2 ** n)
            assert powered.contains(alpha ** (2 ** n), 0), (n, k)
            assert root.abs_lower() <= 2 <= root.abs_upper()


def test_fstar_decay_shape():
    # |f(it)| <= c exp(-2 pi t): fitted c reported, decay strictly monotone
    vals = []
    for t in (1, 2, 3):
        res = fstar_eval(P2, 4, ComplexBall(0, F(t)), N=8, prec=160)
        vals.append(res.value.abs_upper())
    fitted = max(v * F(math.ceil(math.exp(2 * math.pi * t) * 100), 100)
                 for t, v in zip((1, 2, 3), vals))
    assert vals[0] > vals[1] > vals[2]
    assert fitted > 0  # recorded, not asserted against any external constant


def test_fstar_strip_domain_checks():
    with pytest.raises(DomainError):
        fstar_eval(P2, 4, ComplexBall(0, F(1, 48)), N=4)  # Im too small
    with pytest.raises(DomainError):
        fstar_eval(P2, 4, ComplexBall(F(3, 4), F(1, 2)), N=4)  # Re outside strip


def test_fstar_generic_map_round_trip():
    # at tau = i/24 the exponential factor is 1, so 1/f = psi(phi(alpha)) = alpha
    frame = boettcher_frame(P21, 20)
    alpha = F(7 * frame.rho + 5)
    res = fstar_eval(P21, alpha, ComplexBall(0, F(1, 24)), N=20, prec=192)
    inv = res.value.inverse()
    assert inv.contains(alpha, 0)
    assert inv.rad < F(1, 10 ** 6)
    # odd map symmetry: at tau = 1/2 + i/24 the preimage is -alpha
    res2 = fstar_eval(P21, alpha, ComplexBall(F(1, 2), F(1, 24)), N=20, prec=192)
    inv2 = res2.value.inverse()
    assert inv2.contains(-alpha, 0)


def test_phi_psi_certified_round_trip_numeric():
    frame = boettcher_frame(P21, 16)
    alpha = F(9 * frame.rho)
    w = phi_eval(frame, alpha)
    z = psi_eval(frame, w)
    assert z.contains(alpha, 0)


def test_phi_functional_equation_through_certified_evaluator():
    # end-to-end soundness of the tail machinery: the enclosures of
    # phi(P(alpha)) and phi(alpha)^D must intersect (they share the exact value)
    for map_text, D in (("X^2+1", 2), ("X^3-2*X+1", 3)):
        P = PolyMap.from_text(map_text)
        frame = boettcher_frame(P, 14)
        alpha = 3 * frame.rho
        lhs = phi_eval(frame, P.eval(alpha))
        rhs = phi_eval(frame, alpha) ** D
        diff = lhs - rhs
        assert diff.contains(0, 0), map_text


def test_fstar_generic_cubic_round_trip():
    P = PolyMap.from_text("X^3-2*X+1")
    frame = boettcher_frame(P, 14)
    alpha = F(7 * frame.rho + 3)
    res = fstar_eval(P, alpha, ComplexBall(0, F(1, 24)), N=14, prec=192)
    inv = res.value.inverse()
    assert inv.contains(alpha, 0)


def _fields(b: ComplexBall):
    return b.re, b.im, b.rad


def _record_psi_calls(monkeypatch) -> list:
    """Make every psi_eval call through the module append its (frame, w, prec)."""
    seen, psi = [], boettcher.psi_eval

    def record(frame, w, prec=128, tail=None):
        seen.append((frame, w, prec))
        return psi(frame, w, prec, tail)

    monkeypatch.setattr(boettcher, "psi_eval", record)
    return seen


@pytest.mark.parametrize("map_text, alpha, N", [
    ("X^2+1", 64, 16), ("X^3+X+1", 100, 12), ("X^2-1/3", 40, 10)])
def test_real_axis_psi_equals_the_complex_loop_at_every_census_point(monkeypatch, map_text,
                                                                     alpha, N):
    seen = _record_psi_calls(monkeypatch)
    oracles.census(make_evaluator("fstar", N=N, map_text=map_text, alpha=alpha), 6)
    assert len(seen) >= len(enumerate_rationals(6))
    for frame, w, prec in seen:
        assert w.im == 0  # the pullback i(1+q)/(1-q) keeps w on the real axis
        slow = oracles.psi_complex_loop(frame, w, prec)
        assert _fields(psi_eval(frame, w, prec)) == _fields(slow)


def test_real_axis_psi_equals_the_complex_loop_at_random_real_balls(rng):
    maps = [P21, PolyMap.from_text("X^3+X+1"), PolyMap.from_text("X^2-2")]
    maps += [P for P in (random_monic_map(rng) for _ in range(6)) if P.escape_radius != 1]
    for P in maps:
        frame = boettcher_frame(P, rng.choice((6, 12, 20)))
        for _ in range(8):
            mid = 6 * frame.rho + 1 + F(rng.getrandbits(150), 2 ** rng.randint(100, 150))
            rad = F(rng.randint(0, 1000), 2 ** rng.randint(10, 200))
            w = ComplexBall(rng.choice((1, -1)) * mid, 0, rad)
            for prec in (64, 128):
                fast, slow = psi_eval(frame, w, prec), oracles.psi_complex_loop(frame, w, prec)
                assert _fields(fast) == _fields(slow), (P, w, prec)


def test_an_off_axis_tau_takes_the_complex_loop(monkeypatch):
    seen = _record_psi_calls(monkeypatch)
    fstar_eval(P21, 64, ComplexBall(F(1, 5), F(1, 3)), N=16)
    (frame, w, prec), = seen
    assert w.inverse().round_to(prec + 32).im != 0  # so psi_eval sums over ComplexBall
    assert _fields(psi_eval(frame, w, prec)) == _fields(oracles.psi_complex_loop(frame, w, prec))


@pytest.mark.parametrize("prec", [64, 128, 300])
def test_cexp_on_the_real_axis_equals_the_cos_sin_formula(prec):
    pi = ball_pi(prec)
    zs = [ComplexBall(0), ComplexBall(F(1, 3)), ComplexBall(F(-5, 2), 0, F(1, 2 ** 90)),
          ComplexBall(100, 0, F(1, 7)),
          # the exponent of f* at tau = i, with the radius of pi
          ComplexBall.from_real_pair(pi * F(23, 12), RealBall.exact(0)),
          ComplexBall(F(1, 3), F(1, 5), F(1, 2 ** 40))]  # off the axis: cos and sin as before
    for z in zs:
        assert _fields(ball_cexp(z, prec)) == _fields(oracles.cexp_by_cos_sin(z, prec)), z


def test_frame_radius_equals_the_full_search(rng, monkeypatch):
    cs = ("1", "-1", "1/2", "-3/4", "2", "-2/3", "5/4", "3")
    maps = [PolyMap.from_text(f"X^2+{c}") for c in cs]
    maps += [PolyMap.from_text("X^2-2"), PolyMap.from_text("X^3+X+1")]
    maps += [P for P in (random_monic_map(rng) for _ in range(12)) if P.escape_radius != 1]
    for P in maps:
        frame = boettcher_frame(P, 4)
        assert (frame.rho, frame.distortion) == oracles.frame_radius_by_full_search(P), P
    # X^2+1 at rho = 4: (1/4 + 1/32)/2 > 1/8, so only rho = 8 is bounded
    radii, bound = [], boettcher.distortion_bound
    monkeypatch.setattr(boettcher, "distortion_bound",
                        lambda P, rho, prec=96: radii.append(rho) or bound(P, rho, prec))
    assert boettcher_frame(P21, 4).rho == 8 and radii == [8]


def test_fstar_refuses_a_psi_tail_past_the_print_guard_up_front(capsys):
    # the tail's denominator has about 9.06 (N+1) Im tau bits: at N = 64 and
    # Im tau = 2000 it has more than 100,000 digits, and printing it failed
    # after 0.6-0.75 s of work
    job = ["fstar", "--map", "X^2+1", "--alpha", "64", "--tau-im", "2000"]
    t0 = time.perf_counter()
    assert main([*job, "--order", "64"]) == 3
    assert time.perf_counter() - t0 < 0.3  # 15-40 ms: the frame and phi(alpha)
    err = capsys.readouterr().err
    assert err.startswith("resource guard: fstar: the psi tail at order 64")
    assert main([*job, "--order", "16"]) == 0
    tail = json.loads(capsys.readouterr().out)["result"]["psi_tail"]
    assert 90_000 < len(tail) < 100_000
    # a census prints no tail: its f* at the same N and tau is not refused
    value = make_evaluator("fstar", N=64, map_text="X^2+1", alpha=64)(F(1999, 2001), 128)
    assert value.lo > 0


def test_the_tail_guard_refuses_only_tails_past_its_cap():
    for map_text, alpha, tau, N in (("X^2+1", 64, ComplexBall(0, 50), 8),
                                    ("X^3+X+1", 100, ComplexBall(F(1, 5), 30), 16),
                                    ("X^2-1/3", 40, ComplexBall(F(-1, 2), F(81, 2)), 12)):
        P = PolyMap.from_text(map_text)
        res = fstar_eval(P, alpha, tau, N)
        e = res.psi_tail.denominator.bit_length() - 1
        assert e > 4000
        capped = fstar_eval(P, alpha, tau, N, tail_bits_cap=e)
        assert _fields(capped.value) == _fields(res.value) and capped[1:] == res[1:]
        with pytest.raises(ResourceGuardError):
            fstar_eval(P, alpha, tau, N, tail_bits_cap=e * 9 // 10)


def test_delta_v_examples():
    assert delta_v(P21, 3).exact == 1
    d2 = delta_v(P21, 2)
    assert d2.exact == 4 and d2.power == 4 and d2.power_exponent == 1
    assert delta_v(PolyMap.from_text("X^2+1/3"), 3).exact == 3


def test_delta_v_cubic_branch_powers():
    # D = 3, p = 3: delta^2 = max(1,|a_i|_3)^2 * 3 / |3|_3^2 stays exact
    P = PolyMap.from_text("X^3+1")
    dv = delta_v(P, 3)
    assert dv.power_exponent == 2
    assert dv.power == F(27)  # (1)^2 * 3 / (1/3)^2
    assert dv.exceeded_by(F(1, 9))  # |1/9|_3 = 9, 9^2 = 81 > 27
    assert not dv.exceeded_by(F(1, 3))  # 3^2 = 9 < 27


def test_delta_exception_set():
    assert delta_exception_set(P21) == [2]
    assert delta_exception_set(PolyMap.from_text("X^2+1/3")) == [2, 3]
    P6 = PolyMap(RatPoly([F(1, 10), 0, 0, 0, 0, 0, 1]))
    assert delta_exception_set(P6) == [2, 3, 5]
    # off the exception set the threshold is 1
    for p in (7, 11, 13):
        assert delta_v(P6, p).exact == 1


def test_padic_abs():
    assert padic_abs(F(1, 8), 2) == 8
    assert padic_abs(F(12), 2) == F(1, 4)
    assert padic_abs(F(5, 7), 3) == 1
    assert padic_abs(F(0), 5) == 0


def test_good_place_examples():
    gp = good_place(P2, F(1, 8))
    assert gp.prime == 2 and gp.abs_value == 8
    assert gp.margin.lo > 1
    gp3 = good_place(P2, 3)
    assert gp3.prime is None and gp3.abs_value == 3
    assert gp3.margin.lo > 1
    assert good_place(P21, 0) is None
    assert good_place(P21, 1) is None  # |1| = 1 < R = 2, no p divides 1
