from fractions import Fraction
from math import gcd, isqrt

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from arithdyn.errors import DomainError
from arithdyn.exactnum import (
    ComplexBall,
    RealBall,
    as_complex_ball,
    ball_cexp,
    ball_decimal,
    ball_e,
    ball_exp,
    ball_log,
    ball_pi,
    ball_root,
    ball_sqrt,
    sqrt_down,
    sqrt_up,
)
from arithdyn.exactnum.ball import _RAD_BITS, _rad_up, _round_sig, ball_cos, ball_sin
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


# -- the integer kernel against the Fraction formulas it replaced -----------
#
# The oracle below is the Fraction arithmetic the balls used before their
# midpoints and radii were held as integer pairs: every operation must give
# exactly the same midpoint and radius.


def _old_round_fraction(q: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    if q == 0:
        return Fraction(0), Fraction(0)
    shift = prec - (abs(q.numerator).bit_length() - q.denominator.bit_length())
    if shift <= 0:
        newv = Fraction(round(q / (1 << (-shift)))) * (1 << (-shift))
    else:
        newv = Fraction(round(q * (1 << shift)), 1 << shift)
    return newv, abs(newv - q)


def _old_rad_up(r: Fraction) -> Fraction:
    if r == 0:
        return Fraction(0)
    shift = 32 - (r.numerator.bit_length() - r.denominator.bit_length())
    if shift <= 0:
        unit = 1 << (-shift)
        return Fraction(-(-r.numerator // (unit * r.denominator))) * unit
    return Fraction(-(-(r.numerator << shift) // r.denominator), 1 << shift)


def _old_sqrt_up(x: Fraction) -> Fraction:
    if x == 0:
        return Fraction(0)
    s = 1 << 64
    t = x.numerator * x.denominator * s * s
    r = isqrt(t)
    return Fraction(r + (r * r < t), x.denominator * s)


def _old_real(op, a, b, arg):
    (am, ar), (bm, br) = a, b
    if op == "+":
        return am + bm, ar + br
    if op == "-":
        return am - bm, ar + br
    if op == "*":
        return am * bm, abs(am) * br + abs(bm) * ar + ar * br
    if op == "round_to":
        m, err = _old_round_fraction(am, arg)
        return m, _old_rad_up(ar + err)
    if op == "widen":
        return am, _old_rad_up(ar + bm)
    unit = Fraction(1, 1 << arg)  # round_to_grid
    return round(am / unit) * unit, _old_rad_up(ar + unit)


def _old_complex(op, z, w, arg):
    (a, b, rz), (c, d, rw) = z, w
    if op == "+":
        return a + c, b + d, rz + rw
    if op == "-":
        return a - c, b - d, rz + rw
    if op == "*":
        rad = _old_sqrt_up(a * a + b * b) * rw + _old_sqrt_up(c * c + d * d) * rz + rz * rw
        return a * c - b * d, a * d + b * c, rad
    if op == "round_to":
        re, e1 = _old_round_fraction(a, arg)
        im, e2 = _old_round_fraction(b, arg)
        return re, im, _old_rad_up(rz + _old_sqrt_up(e1 * e1 + e2 * e2))
    return a, b, _old_rad_up(rz + c)  # widen


def _apply(op, x, y, arg):
    if op in ("+", "-", "*"):
        return {"+": x + y, "-": x - y, "*": x * y}[op]
    if op == "widen":
        return x.widen(y.mid if isinstance(y, RealBall) else y.re)
    return getattr(x, op)(arg)


def _lowest_terms_ints(ball):
    """Every slot an int, and each (numerator, denominator) pair in lowest terms."""
    slots = [getattr(ball, s) for s in ball.__slots__]
    assert all(type(v) is int for v in slots)
    for n, d in zip(slots[::2], slots[1::2]):
        assert d > 0 and gcd(n, d) == 1


dyadics = st.builds(lambda n, k: Fraction(n, 1 << k),
                    st.integers(-(1 << 300), 1 << 300), st.integers(0, 400))
non_dyadics = st.builds(lambda n, d: Fraction(n, d),
                        st.integers(-(1 << 200), 1 << 200), st.integers(1, 1 << 80))
exact_values = st.one_of(st.just(Fraction(0)), st.integers(-1000, 1000).map(Fraction),
                         dyadics, non_dyadics)
radii = exact_values.map(abs)
precs = st.one_of(st.integers(1, 40), st.integers(40, 700))
real_ops = st.sampled_from(["+", "-", "*", "round_to", "widen", "round_to_grid"])
complex_ops = st.sampled_from(["+", "-", "*", "round_to", "widen"])


@given(op=real_ops, am=exact_values, ar=radii, bm=exact_values, br=radii, prec=precs)
@settings(max_examples=400, deadline=None)
def test_real_kernel_matches_the_fraction_formulas(op, am, ar, bm, br, prec):
    if op == "widen":
        bm = abs(bm)
    x, y = RealBall(am, ar), RealBall(bm, br)
    got = _apply(op, x, y, prec)
    assert (got.mid, got.rad) == _old_real(op, (am, ar), (bm, br), prec)
    _lowest_terms_ints(got)


@given(op=complex_ops, a=exact_values, b=exact_values, rz=radii,
       c=exact_values, d=exact_values, rw=radii, prec=precs)
@settings(max_examples=300, deadline=None)
def test_complex_kernel_matches_the_fraction_formulas(op, a, b, rz, c, d, rw, prec):
    if op == "widen":
        c = abs(c)
    z, w = ComplexBall(a, b, rz), ComplexBall(c, d, rw)
    got = _apply(op, z, w, prec)
    assert (got.re, got.im, got.rad) == _old_complex(op, (a, b, rz), (c, d, rw), prec)
    _lowest_terms_ints(got)


@given(odd=st.integers(0, 1 << 200).map(lambda n: 2 * n + 1), neg=st.booleans(),
       k=st.integers(0, 300), j=st.integers(0, 40), rad=radii)
@settings(max_examples=200, deadline=None)
def test_kernel_rounds_exact_ties_like_the_fraction_formulas(odd, neg, k, j, rad):
    """Ties: n/2^k with n = odd 2^j is exactly half-way between two
    neighbours at prec = bl(odd) - 2 significant bits, and at the grid
    2^-(k - j - 1)."""
    n = (-odd if neg else odd) << j
    mid = Fraction(n, 1 << k)
    prec = odd.bit_length() - 2
    x = RealBall(mid, rad)
    if prec >= 1:
        got = x.round_to(prec)
        assert (got.mid, got.rad) == _old_real("round_to", (mid, rad), (0, 0), prec)
        z = ComplexBall(mid, -mid, rad).round_to(prec)
        assert (z.re, z.im, z.rad) == _old_complex("round_to", (mid, -mid, rad), (0, 0, 0), prec)
    w = k - j - 1
    if w >= 0:
        got = x.round_to_grid(w)
        assert (got.mid, got.rad) == _old_real("round_to_grid", (mid, rad), (0, 0), w)


@given(n=st.integers(1, 1 << 400), neg=st.booleans(), k=st.integers(0, 300),
       d=st.integers(3, 1 << 300).filter(lambda d: d & (d - 1)),
       prec=st.sampled_from([1, 2, 32, 128]))
@settings(max_examples=300, deadline=None)
def test_rounding_keeps_at_most_prec_plus_one_bits_and_rad_up_never_rounds_down(n, neg, k, d, prec):
    """A dyadic n/2^k rounds to prec + 1 significant bits (one, after a carry
    to a power of two); a non-dyadic n/d in lowest terms to prec or prec + 1,
    since the bit lengths of n and d only bracket its binary exponent."""
    g = gcd(n, d)
    for num, den in ((n, 1 << k), (n // g, d // g)):
        num = -num if neg else num
        dyadic = not den & (den - 1)
        for up in (False, True):
            R, s = _round_sig(num, den, prec, up)
            assert _significant_bits(Fraction(R)) <= prec + 1
            carried = abs(R) == 1 << (prec + 1)
            assert carried or abs(R).bit_length() in ((prec + 1,) if dyadic else (prec, prec + 1))
        rn, rd = _rad_up(abs(num), den)
        assert Fraction(rn, rd) >= Fraction(abs(num), den)
        assert _significant_bits(Fraction(rn, rd)) <= _RAD_BITS + 1
        assert _significant_bits(RealBall(Fraction(num, den), 0).round_to(prec).mid) <= prec + 1
    # the carry: 2^100 - 1 rounds up to 2^33 at 32 bits, nearest or up
    n = (1 << 100) - 1
    assert _round_sig(n, 1, 32) == _round_sig(n, 1, 32, True) == (1 << 33, -67)


# -- the libmp seam against mpmath's interval context ------------------------

_SEAM_PRECS = [1, 8, 53, 128, 160, 544, 1000]


def _random_exact(rng: random.Random, top: int) -> Fraction:
    """A rational of size below 2^top: a dyadic, or one over an odd or
    mixed denominator."""
    n = rng.randrange(-(1 << (top + 40)), 1 << (top + 40))
    d = rng.choice([1 << 40, 3 << 38, 10 ** 12, rng.randrange(1, 1 << 50) | 1])
    return Fraction(n, d)


def _random_balls(rng: random.Random, positive: bool, count: int = 24) -> list[RealBall]:
    """Exact points and intervals of every width: narrow, wide and (unless
    ``positive``) negative or straddling zero; a positive ball has lo > 0."""
    out = []
    for i in range(count):
        mid = _random_exact(rng, 5)
        kind = i % 4
        if kind == 0:
            rad = Fraction(0)
        elif kind == 1:
            rad = abs(_random_exact(rng, 5)) / rng.choice([1 << 60, 10 ** 15])
        elif kind == 2:
            rad = abs(_random_exact(rng, 2))
        else:
            rad = abs(mid) + abs(_random_exact(rng, 1))  # straddles zero
        if positive:
            mid = abs(mid) + Fraction(1, 7)
            rad = min(rad, mid * Fraction(rng.randrange(1, 1000), 1001))
        out.append(RealBall(mid, rad))
    return out


def _same(a, b) -> bool:
    if isinstance(a, ComplexBall):
        return (a.re, a.im, a.rad) == (b.re, b.im, b.rad)
    return (a.mid, a.rad) == (b.mid, b.rad)


@pytest.mark.parametrize("prec", _SEAM_PRECS)
def test_transcendentals_equal_the_interval_context(prec):
    rng = random.Random(prec)
    anywhere = _random_balls(rng, False) + [RealBall.exact(0), RealBall(0, Fraction(1, 3))]
    for x in anywhere:
        for fast, slow in ((ball_exp, oracles.iv_exp), (ball_sin, oracles.iv_sin),
                           (ball_cos, oracles.iv_cos)):
            assert _same(fast(x, prec), slow(x, prec)), (fast.__name__, x, prec)
    for x in _random_balls(rng, True):
        for fast, slow in ((ball_log, oracles.iv_log), (ball_sqrt, oracles.iv_sqrt)):
            assert _same(fast(x, prec), slow(x, prec)), (fast.__name__, x, prec)
        for k in (2, 3, 4):
            assert _same(ball_root(x, k, prec), oracles.iv_root(x, k, prec)), (k, x, prec)
    assert _same(ball_pi(prec), oracles.iv_pi(prec))
    assert _same(ball_e(prec), oracles.iv_exp(RealBall.exact(1), prec))


@pytest.mark.parametrize("prec", _SEAM_PRECS)
def test_complex_exp_equals_the_interval_context(prec):
    rng = random.Random(-prec)
    for i in range(16):
        re, im = _random_exact(rng, 3), _random_exact(rng, 3) if i % 2 else Fraction(0)
        rad = Fraction(0) if i % 4 < 2 else abs(_random_exact(rng, 0)) / 64
        z = ComplexBall(re, im, rad)
        assert _same(ball_cexp(z, prec), oracles.iv_cexp(z, prec)), (z, prec)


@pytest.mark.parametrize("fast, slow, x", [
    (ball_log, oracles.iv_log, RealBall(1, 1)),
    (ball_log, oracles.iv_log, RealBall.exact(0)),
    (ball_log, oracles.iv_log, RealBall(Fraction(-1, 3), Fraction(1, 7))),
    (ball_sqrt, oracles.iv_sqrt, RealBall(Fraction(1, 3), Fraction(1, 2))),
    (ball_sqrt, oracles.iv_sqrt, RealBall.exact(Fraction(-1, 10 ** 30))),
], ids=["log-touching-0", "log-of-0", "log-negative", "sqrt-straddling-0", "sqrt-negative"])
def test_domain_errors_are_those_of_the_interval_context(fast, slow, x):
    with pytest.raises(DomainError) as new:
        fast(x, 64)
    with pytest.raises(DomainError) as old:
        slow(x, 64)
    assert str(new.value) == str(old.value)
