import math
import random
from fractions import Fraction as F

import pytest

from arithdyn.countkit.census import enumerate_rationals, make_evaluator
from arithdyn.countkit.modular import (
    _nome,
    _tail_up,
    _theta_sums,
    delta_eval,
    lambda_eval,
    modular_eval,
)
from arithdyn.errors import DomainError
from arithdyn.exactnum import ComplexBall, RealBall, as_complex_ball, ball_exp, ball_pi, rad_up
from arithdyn.exactnum.ball import _GUARD, _ball, _enter, _grid_abs, _inv, _mul
from oracles import (
    ORACLE_DPS,
    delta_fixed_terms,
    delta_oracle,
    lambda_fixed_terms,
    lambda_oracle,
    mpf_fraction,
    theta_sums_oracle,
)

# the oracle's own error, far below every enclosure radius tested here
ORACLE_SLACK = F(1, 10 ** (ORACLE_DPS - 10))


def _contains_oracle(ball, ref) -> bool:
    """ball (real or complex) contains the mpmath value ref up to its 200 digits."""
    re, im = mpf_fraction(ref.real), mpf_fraction(ref.imag)
    if isinstance(ball, ComplexBall):
        return (re - ball.re) ** 2 + (im - ball.im) ** 2 <= (ball.rad + ORACLE_SLACK) ** 2
    return abs(im) <= ORACLE_SLACK and abs(re - ball.mid) <= ball.rad + ORACLE_SLACK


def test_lambda_leading_term_at_3i():
    mv = lambda_eval(ComplexBall(0, 3), N=10, prec=128)
    q = math.exp(-3 * math.pi)
    assert 15 * q <= float(mv.value.re) <= 17 * q
    assert abs(float(mv.value.im)) <= float(mv.value.rad)


def test_lambda_at_i_contains_half():
    mv = lambda_eval(ComplexBall(0, 1), N=14, prec=160)
    assert mv.value.contains(F(1, 2), 0)
    assert mv.value.rad < F(1, 10 ** 30)


def test_delta_product_near_one():
    # delta(4i) / ((2 pi)^12 q) = prod (1-q^n)^24 within 1 +/- 1e-9
    prec = 128
    mv = delta_eval(ComplexBall(0, 4), N=10, prec=prec)
    two_pi = ball_pi(prec) * 2
    # q = exp(-8 pi), real positive
    q = ball_exp(two_pi * (-4), prec)
    denom = (two_pi ** 12) * q
    ratio_lo = mv.value.abs_lower() / denom.hi
    ratio_hi = mv.value.abs_upper() / denom.lo
    assert ratio_lo >= 1 - F(1, 10 ** 9)
    assert ratio_hi <= 1 + F(1, 10 ** 9)


def test_modular_domain_check():
    with pytest.raises(DomainError):
        lambda_eval(ComplexBall(0, F(1, 2)), N=8)
    with pytest.raises(DomainError):
        modular_eval("zeta", ComplexBall(0, 2))


def test_nesting_under_more_terms():
    tau = ComplexBall(F(1, 3), F(3, 2))
    coarse = lambda_eval(tau, N=6, prec=128).value
    fine = lambda_eval(tau, N=12, prec=128).value
    # doubling N never moves the enclosure outside the previous ball
    d2 = (fine.re - coarse.re) ** 2 + (fine.im - coarse.im) ** 2
    assert d2 <= (coarse.rad + fine.rad) ** 2
    assert fine.rad <= coarse.rad


def test_disk_pullbacks_match_complex_path():
    q = F(1, 3)
    real_v = make_evaluator("lambda", N=10)(q, 96)
    t = 2 / (1 - q)
    complex_v = lambda_eval(ComplexBall(0, t), N=10, prec=96).value
    assert abs(real_v.mid - complex_v.re) <= real_v.rad + complex_v.rad
    dv = make_evaluator("delta", N=10)(q, 96)
    assert dv.mid > 0
    # the census evaluator is the real part of the modular value at 2i/(1-q), exactly
    for function, evaluate in (("lambda", lambda_eval), ("delta", delta_eval)):
        for z, N, prec in ((q, 10, 96), (F(5, 7), 16, 128), (F(1, 9), 24, 512)):
            v = make_evaluator(function, N=N)(z, prec)
            ref = evaluate(ComplexBall(0, 2 / (1 - z)), N, prec).value.real
            assert (v.mid, v.rad) == (ref.mid, ref.rad), (function, z)


@pytest.mark.parametrize("q", [F(1), F(3, 2)])
@pytest.mark.parametrize("function", ["lambda", "delta", "fstar"])
def test_disk_pullbacks_reject_q_outside_the_unit_interval(function, q):
    evaluator = make_evaluator(function, N=8, map_text="X^2", alpha=F(4))
    with pytest.raises(DomainError):
        evaluator(q, 96)


def test_delta_eval_positive_on_imaginary_axis():
    mv = delta_eval(ComplexBall(0, 2), N=16, prec=128)
    assert mv.value.abs_lower() > 0
    assert abs(float(mv.value.im)) <= float(mv.value.rad)


@pytest.mark.parametrize("prec", [96, 128, 512])
def test_real_axis_pullbacks_contain_the_mpmath_values(prec):
    lambda_at, delta_at = make_evaluator("lambda", N=16), make_evaluator("delta", N=24)
    for z in enumerate_rationals(8):
        t = 2 / (1 - z)
        lam = lambda_at(z, prec)
        assert _contains_oracle(lam, lambda_oracle(F(0), t)), (z, prec)
        dl = delta_at(z, prec)
        assert _contains_oracle(dl, delta_oracle(F(0), t)), (z, prec)
        assert lam.rad < lam.mid / 2 ** (prec - 8) and dl.rad < dl.mid / 2 ** (prec - 8)


@pytest.mark.parametrize("prec", [96, 128, 512])
@pytest.mark.parametrize("evaluate, N", [(lambda_eval, 16), (delta_eval, 24)])
def test_complex_path_on_the_imaginary_axis_overlaps_the_real_path(evaluate, N, prec):
    for z in enumerate_rationals(8):
        t = 2 / (1 - z)
        real_v = evaluate(ComplexBall(0, t), N=N, prec=prec).value
        assert real_v.im == 0
        # a nonzero input radius sends tau through the complex nome
        complex_v = evaluate(ComplexBall(0, t, F(1, 2 ** 400)), N=N, prec=prec).value
        d2 = (complex_v.re - real_v.re) ** 2 + complex_v.im ** 2
        assert d2 <= (complex_v.rad + real_v.rad) ** 2
        assert complex_v.rad >= real_v.rad


def test_off_axis_tau_contains_the_mpmath_values():
    tau_re, tau_im = F(1, 3), F(3, 2)
    tau = ComplexBall(tau_re, tau_im)
    lam = lambda_eval(tau, N=16, prec=128)
    assert _contains_oracle(lam.value, lambda_oracle(tau_re, tau_im))
    dl = delta_eval(tau, N=24, prec=128)
    assert _contains_oracle(dl.value, delta_oracle(tau_re, tau_im))


@pytest.mark.parametrize("N", [-5, 0])
def test_a_cap_below_one_sums_no_terms_and_stays_sound(N):
    # the tails are those of the bare n = 0 terms, whatever N below 1 says
    lam = lambda_eval(ComplexBall(0, 3), N=N, prec=128)
    assert lam.terms == 0 and _contains_oracle(lam.value, lambda_oracle(F(0), F(3)))
    dl = delta_eval(ComplexBall(0, 3), N=N, prec=128)
    assert dl.terms == 0 and _contains_oracle(dl.value, delta_oracle(F(0), F(3)))


def test_tail_bound_is_the_rounded_up_majorant():
    qa = _nome(ComplexBall(0, 2), 1, 128).abs_upper()
    mv = lambda_eval(ComplexBall(0, 2), N=4, prec=128)
    N = mv.terms
    majorant = (qa ** ((N + 1) * (N + 2)) + 2 * qa ** ((N + 1) ** 2)) / (1 - qa)
    tail = mv.tail_bound
    assert majorant <= tail <= majorant * (1 + F(1, 2 ** 30))
    assert tail.denominator & (tail.denominator - 1) == 0  # a short dyadic


def test_term_cap_binds_before_the_precision_does():
    # at 512 bits the theta sums at 2i would run past 4 terms: the cap stops them
    N = 4
    qa = _nome(ComplexBall(0, 2), 1, 512).abs_upper()
    assert lambda_eval(ComplexBall(0, 2), N=16, prec=512).terms > N
    mv = lambda_eval(ComplexBall(0, 2), N=N, prec=512)
    assert mv.terms == 4
    majorant = (qa ** ((N + 1) * (N + 2)) + 2 * qa ** ((N + 1) ** 2)) / (1 - qa)
    tail = mv.tail_bound
    assert majorant <= tail <= majorant * (1 + F(1, 2 ** 30))
    assert tail.denominator & (tail.denominator - 1) == 0  # a short dyadic


@pytest.mark.parametrize("N", [4, 8, 16])
def test_delta_tail_has_no_exp_rounding_floor(N):
    # t = 24 |q|^5 / (1-|q|)^2 < 1e-52 at 4i once 4 factors are in; a tail
    # taken from a 128-bit exp would sit near 2^-128 ~ 3e-39 instead
    mv = delta_eval(ComplexBall(0, 4), N=N, prec=128)
    assert mv.terms == 4
    assert 0 < mv.tail_bound < F(1, 10 ** 52)


@pytest.mark.parametrize("prec", [64, 96, 128, 512])
@pytest.mark.parametrize("evaluate, reference, N", [(lambda_eval, lambda_fixed_terms, 16),
                                                    (delta_eval, delta_fixed_terms, 24)])
def test_precision_stop_matches_the_fixed_term_sums(evaluate, reference, N, prec):
    taus = [ComplexBall(0, 2 / (1 - z)) for z in enumerate_rationals(8)]
    taus += [ComplexBall(0, 1), ComplexBall(F(1, 3), F(3, 2))]
    # the domain edge Im tau = 1, where |q| is largest
    taus += [ComplexBall(re, 1) for re in (F(-1, 2), F(1, 3), F(1, 2))]
    for tau in taus:
        mv = evaluate(tau, N=N, prec=prec)
        v, ref = mv.value, reference(tau, N, prec).value
        d2 = (v.re - ref.re) ** 2 + (v.im - ref.im) ** 2
        assert d2 <= (v.rad + ref.rad) ** 2, (tau, prec)
        assert v.rad <= ref.rad * (1 + F(1, 2 ** 30)), (tau, prec)
        assert mv.terms <= N


def _grid_contains(v, re, im) -> bool:
    """The grid disk v = (re, im, rad) contains the point re + i im (in ulps)."""
    return (v[0] - re) ** 2 + (v[1] - im) ** 2 <= v[2] ** 2


def test_grid_products_and_inverses_contain_the_exact_values():
    # on a coarse grid the rounding of the centre is a visible part of each
    # radius: the product of two exact grid points, the inverse of one, and
    # the products of points of two disks must lie in the computed disk
    W, rng = 12, random.Random(7)
    # the nome enters with its centre rounded to the grid
    for z in (RealBall(F(1, 3)), ComplexBall(F(1, 3), F(-2, 7)), ComplexBall(F(5, 11), 0, F(1, 9))):
        z = as_complex_ball(z)
        re, im, rad = _enter(z, W)
        assert (re - z.re * 2 ** W) ** 2 + (im - z.im * 2 ** W) ** 2 <= (rad - z.rad * 2 ** W) ** 2
    for _ in range(300):
        xr, yr = rng.randrange(-2 ** 14, 2 ** 14), rng.randrange(2 ** 10, 2 ** 14)
        xi, yi = (rng.randrange(-2 ** 14, 2 ** 14) if rng.random() < 0.7 else 0 for _ in "xy")
        x, y = (xr, xi, 0), (yr, yi, 0)
        exact = (F(xr * yr - xi * yi, 2 ** W), F(xr * yi + xi * yr, 2 ** W))
        assert _grid_contains(_mul(x, y, W), *exact), (x, y)
        n = yr * yr + yi * yi
        assert _grid_contains(_inv(y, W), F(yr << 2 * W, n), F(-yi << 2 * W, n)), y
        # |x| is rounded up: the radius of a product bounds |x| r_y + |y| r_x + r_x r_y
        assert _grid_abs(xr, xi) ** 2 >= xr * xr + xi * xi
        rx, ry = rng.randrange(1, 2 ** 8), rng.randrange(1, 2 ** 8)
        for ux, uy in ((1, 1), (-1, 1), (1, -1), (0, 1)):
            # the points x + rx ux and y + ry uy, ux and uy real
            p = _mul((xr, xi, rx), (yr, yi, ry), W)
            a, b = xr + rx * ux, yr + ry * uy
            z = (F(a * b - xi * yi, 2 ** W), F(a * yi + xi * b, 2 ** W))
            assert _grid_contains(p, *z), (x, y, rx, ry)


def test_integer_theta_tails_equal_the_fraction_formula():
    rng = random.Random(11)
    for _ in range(3000):
        e = rng.randint(1, 500)
        qa = F(rng.randrange(1, 2 ** e) | 1, 2 ** e)
        c, k = rng.choice((1, 2)), rng.randint(1, 40)
        assert _tail_up(qa, c, k) == rad_up(c * qa ** k / (1 - qa)), (qa, c, k)


@pytest.mark.parametrize("prec", [64, 128])
@pytest.mark.parametrize("tau_re, tau_im", [(F(0), F(1)), (F(1, 3), F(1)), (F(-1, 2), F(1)),
                                            (F(0), F(3))])
def test_theta_sums_contain_the_mpmath_sums(tau_re, tau_im, prec):
    # each sum with its own tail: at N = 0 the tail is all of the sum past n = 0
    tau = ComplexBall(tau_re, tau_im)
    q = _nome(tau, 1, prec)
    work = prec + 32
    W = work + _GUARD
    A, B = theta_sums_oracle(tau_re, tau_im)
    for N in (0, 1, 2, 16):
        a, b, _, _ = _theta_sums(q, q.abs_upper(), N, work, W)
        assert _contains_oracle(_ball(a, W, q), A), (tau, N)
        assert _contains_oracle(_ball(b, W, q), B), (tau, N)
