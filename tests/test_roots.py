from fractions import Fraction as F

import mpmath
import pytest

from arithdyn.errors import DomainError
from arithdyn.exactnum import IntPoly
from arithdyn.exactnum.roots import complex_roots_with_radii


def test_rational_roots_exact():
    balls = complex_roots_with_radii(IntPoly([-4, 0, 1]), 64)
    pts = sorted((b.re, b.im, b.rad) for b in balls)
    assert pts == [(F(-2), F(0), F(0)), (F(2), F(0), F(0))]


def test_sqrt2_precision():
    balls = complex_roots_with_radii(IntPoly([-2, 0, 1]), 64)
    assert len(balls) == 2
    for b in balls:
        assert b.rad <= F(1, 10 ** 15)
        assert (b.re * b.re - 2) ** 2 <= (F(1, 10 ** 13)) ** 2


def test_all_roots_modulus_two():
    balls = complex_roots_with_radii(IntPoly([16, 0, 0, 0, 1]), 64)
    assert len(balls) == 4
    for b in balls:
        assert b.abs_lower() <= 2 <= b.abs_upper()


def test_root_count_and_mahler_product():
    # (X-2)(X+3)(X^2+1): Mahler measure 2*3*1*1 = 6
    p = IntPoly([-2, 1]) * IntPoly([3, 1]) * IntPoly([1, 0, 1])
    balls = complex_roots_with_radii(p, 80)
    assert len(balls) == p.degree
    lo, hi = F(1), F(1)
    for b in balls:
        lo *= max(F(1), b.abs_lower())
        hi *= max(F(1), b.abs_upper())
    assert lo <= 6 <= hi


def test_disjointness_certificate():
    balls = complex_roots_with_radii(IntPoly([1, 1, 1, 1, 1, 1, 1]), 96)
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            dx = balls[i].re - balls[j].re
            dy = balls[i].im - balls[j].im
            assert dx * dx + dy * dy > (balls[i].rad + balls[j].rad) ** 2


def test_rejects_non_squarefree():
    with pytest.raises(DomainError):
        complex_roots_with_radii(IntPoly([1, 2, 1]), 64)  # (X+1)^2


def test_rejects_zero():
    with pytest.raises(DomainError):
        complex_roots_with_radii(IntPoly([]), 64)


def test_precision_monotone():
    p = IntPoly([-3, 0, 1])
    r64 = max(b.rad for b in complex_roots_with_radii(p, 64))
    r128 = max(b.rad for b in complex_roots_with_radii(p, 128))
    assert r128 <= r64


def test_coefficients_beyond_double_range():
    # float seeding overflows; the mpmath reseed path must still certify
    p = IntPoly([-(10 ** 400), 0, 1])
    balls = complex_roots_with_radii(p, 64)
    assert len(balls) == 2
    for b in balls:
        assert abs(b.re * b.re - 10 ** 400) <= (2 * abs(b.re) + b.rad) * b.rad + b.rad


def _exact(x: mpmath.mpf) -> F:
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * F(int(man)) * F(2) ** int(exp)


@pytest.mark.parametrize("coeffs", [[-1, -1, 0, 1], [-3] + [0] * 11 + [1], [1, -1, 0, 0, 0, 1],
                                    [-9, 0, 4], [-5, 0, 3, 0, 0, 0, 0, 1]])
@pytest.mark.parametrize("prec", [64, 128])
def test_radii_are_short_dyadics_around_the_roots(coeffs, prec):
    # each radius is rounded up by ``widen``: a dyadic of at most 33
    # significant bits (33 for a dyadic unrounded bound, 32 or 33 for a
    # non-dyadic one, whose bit lengths only bracket its binary exponent), and
    # the disk, grown by the 1e-45 error of a 50-digit root, still holds it
    with mpmath.workdps(50):
        roots = mpmath.polyroots(coeffs[::-1], maxsteps=200, extraprec=200)
        roots = [(_exact(mpmath.mpf(z.real)), _exact(mpmath.mpf(z.imag))) for z in roots]
    for b in complex_roots_with_radii(IntPoly(coeffs), prec):
        num, den = b.rad.numerator, b.rad.denominator
        assert den & (den - 1) == 0 and num.bit_length() <= 33
        assert b.rad <= F(1, 2 ** prec)
        reach = (b.rad + F(1, 10 ** 45)) ** 2
        assert any((re - b.re) ** 2 + (im - b.im) ** 2 <= reach for re, im in roots)
