from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithdyn.errors import DomainError
from arithdyn.exactnum import (
    ComplexBall,
    RealBall,
    as_complex_ball,
    ball_decimal,
    ball_e,
    ball_exp,
    ball_log,
    ball_pi,
    ball_sqrt,
    sqrt_down,
    sqrt_up,
)
from arithdyn.exactnum.poly import RatPoly, parse_poly

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)
small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=8)


def test_exact_square():
    b = parse_poly("X^2").eval(RealBall.exact(3))
    assert b.mid == 9 and b.rad == 0


def test_unit_ball_containment_forced():
    p = parse_poly("X^2+1")
    b = p.eval(RealBall(0, 1))
    assert b.contains(2)  # p(1)
    assert b.contains(1)  # p(0)
    assert b.rad >= 1


def test_near_sqrt2_residual():
    # enclosure of sqrt(2) with radius 1e-20 -> p(ball) contains 0, radius <= 1e-18
    mid = sqrt_down(Fraction(2), bits=90)
    z = RealBall(mid, Fraction(1, 10 ** 20))
    assert abs(mid * mid - 2) < Fraction(1, 10 ** 21)  # midpoint quality
    out = parse_poly("X^2-2").eval(z)
    assert out.contains(0)
    assert out.rad <= Fraction(1, 10 ** 18)


@given(coeffs=st.lists(small_rationals, min_size=1, max_size=6), z=rationals)
@settings(max_examples=60, deadline=None)
def test_containment_exact_point(coeffs, z):
    p = RatPoly(coeffs)
    exact = p.eval(z)
    out = p.eval(RealBall.exact(z))
    assert out.contains(exact)
    outc = p.eval(ComplexBall.exact(z))
    assert outc.contains(exact, 0)


@given(coeffs=st.lists(small_rationals, min_size=1, max_size=5),
       z=small_rationals,
       r1=st.fractions(min_value=0, max_value=1, max_denominator=16),
       grow=st.fractions(min_value=0, max_value=1, max_denominator=16))
@settings(max_examples=60, deadline=None)
def test_monotone_under_radius_growth(coeffs, z, r1, grow):
    p = RatPoly(coeffs)
    small = p.eval(RealBall(z, r1))
    big = p.eval(RealBall(z, r1 + grow))
    assert big.contains_ball(small)


def test_ring_ops_exact():
    a = RealBall(Fraction(1, 3), Fraction(1, 100))
    b = RealBall(Fraction(2, 7), Fraction(1, 50))
    s = a + b
    assert s.mid == Fraction(1, 3) + Fraction(2, 7) and s.rad == Fraction(3, 100)
    p = a * b
    assert p.contains(Fraction(1, 3) * Fraction(2, 7))
    q = a / RealBall.exact(Fraction(5))
    assert q.mid == Fraction(1, 15)


def test_inverse_rejects_zero_interval():
    with pytest.raises(DomainError):
        RealBall(0, 1).inverse()
    with pytest.raises(DomainError):
        ComplexBall(Fraction(1, 10), 0, 1).inverse()


def test_complex_mul_contains_product():
    z = ComplexBall(Fraction(1, 2), Fraction(1, 3), Fraction(1, 20))
    w = ComplexBall(Fraction(-2), Fraction(1), Fraction(1, 10))
    prod = z * w
    # centre product must be inside
    re = Fraction(1, 2) * -2 - Fraction(1, 3) * 1
    im = Fraction(1, 2) * 1 + Fraction(1, 3) * -2
    assert prod.contains(re, im)


@given(re=rationals, im=rationals, rad=st.fractions(min_value=0, max_value=4, max_denominator=16),
       t=rationals, s=st.fractions(min_value=0, max_value=1, max_denominator=16))
@settings(max_examples=60, deadline=None)
def test_real_and_imag_contain_the_parts_of_points_of_the_disk(re, im, rad, t, s):
    z = ComplexBall(re, im, rad)
    # a rational point of the disk: the unit vector ((1-t^2), 2t)/(1+t^2) scaled by s*rad
    x = re + s * rad * (1 - t * t) / (1 + t * t)
    y = im + s * rad * 2 * t / (1 + t * t)
    assert z.contains(x, y)
    assert z.real.contains(x) and z.imag.contains(y)
    b = RealBall(re, rad)
    back = as_complex_ball(b).real
    assert (back.mid, back.rad) == (b.mid, b.rad)
    assert as_complex_ball(b).imag.contains(0)


def test_transcendental_enclosures():
    l2 = ball_log(RealBall.exact(2), 128)
    # ln 2 = 0.693147180559945309417232... ; check a 30-digit dyadic-free witness
    lo = Fraction(693147180559945309417232121458, 10 ** 30)
    hi = lo + Fraction(2, 10 ** 30)
    assert l2.lo <= hi and l2.hi >= lo
    assert l2.rad < Fraction(1, 2 ** 100)
    e1 = ball_e(128)
    assert e1.contains_ball(RealBall(Fraction(27182818284590452353602874713527, 10 ** 31), Fraction(1, 10 ** 29))) or \
        e1.overlaps(RealBall(Fraction(27182818284590452353602874713527, 10 ** 31), Fraction(1, 10 ** 29)))
    pi = ball_pi(96)
    assert pi.contains(Fraction(314159265358979323846264338327950288, 10 ** 35))
    s = ball_sqrt(RealBall.exact(2), 128)
    assert (s * s).contains(2)


def test_sqrt_bounds_rational():
    for x in (Fraction(2), Fraction(5, 7), Fraction(10 ** 12), Fraction(1, 3)):
        lo, hi = sqrt_down(x), sqrt_up(x)
        assert lo * lo <= x <= hi * hi
        assert hi - lo < Fraction(1, 2 ** 40) * (1 + hi)


def test_exp_monotone_precision():
    a = ball_exp(RealBall.exact(Fraction(1, 3)), 64)
    b = ball_exp(RealBall.exact(Fraction(1, 3)), 256)
    assert b.rad <= a.rad
    assert a.overlaps(b)


def test_ball_decimal_outward():
    mid, rad = ball_decimal(Fraction(1, 3), Fraction(1, 7 * 10 ** 6), 4)
    assert mid == "0.3333"
    # printed radius must cover both the true radius and the print error
    assert Fraction(rad) >= Fraction(1, 7 * 10 ** 6)


def test_round_to_soundness():
    x = RealBall(Fraction(10 ** 30 + 1, 3 * 10 ** 30), Fraction(0))
    y = x.round_to(40)
    assert y.contains(x.mid)
    assert y.rad > 0


def _significant_bits(r: Fraction) -> int:
    """Bits of the odd part of a dyadic rational's numerator."""
    assert r.denominator & (r.denominator - 1) == 0, "radius must be dyadic"
    n = r.numerator
    return (n >> ((n & -n).bit_length() - 1)).bit_length() if n else 0


@given(mid=rationals, rad=st.fractions(min_value=0, max_value=10, max_denominator=10 ** 40),
       err=st.fractions(min_value=0, max_value=10, max_denominator=10 ** 40),
       im=rationals)
@settings(max_examples=200, deadline=None)
def test_widen_contains_the_exactly_widened_ball(mid, rad, err, im):
    exact = RealBall(mid, rad + err)
    w = RealBall(mid, rad).widen(err)
    assert w.mid == mid and w.contains_ball(exact)
    assert w.contains(exact.lo) and w.contains(exact.hi)
    assert _significant_bits(w.rad) <= 33
    cw = ComplexBall(mid, im, rad).widen(err)
    assert (cw.re, cw.im) == (mid, im) and cw.rad >= rad + err
    assert cw.contains(mid + rad + err, im) and cw.contains(mid, im - rad - err)
    assert _significant_bits(cw.rad) <= 33
