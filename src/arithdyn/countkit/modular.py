"""Rigorous q-series evaluation of the elliptic modulus ratio ("lambda") and
the discriminant cusp form on the half-plane Im(tau) >= 1.

lambda is computed from its theta-quotient definition

    lambda(tau) = ( 2 sum_{n>=0} q^((2n+1)^2/4) )^4 / ( 1 + 2 sum_{n>=1} q^(n^2) )^4,

with q = exp(pi i tau); the fourth power turns the common factor q^(1/4) of
the numerator terms into a single exact factor 16 q, so only integer powers
of q are ever evaluated.  The discriminant uses
(2 pi)^12 q prod (1 - q^n)^24 with q = exp(2 pi i tau).  All truncation
tails are bounded by explicit geometric majorants (|q| <= e^-pi resp.
e^-2pi on the domain), rounded up by ``rad_up``.  Each series sums at most
N terms and stops at the first one whose tail majorant is below 2^-work,
work = prec + 32 bits: the stopping test compares bit lengths of |q|'s
certified upper bound, and only the stopping index's majorant is formed
exactly.

The series run on one fixed-point grid, after Arb's fixed-point series
(Johansson, IEEE TC 2017; ARITH 2015).  A grid value is three ints
(re, im, rad), read as the disk of radius rad 2^-W around (re + i im) 2^-W,
with W = work + _GUARD.  The invariant: the disk of every grid value
contains the exact value it stands for (a power, partial sum, product or
quotient) at every point of the nome ball.  Each step keeps it:

- the nome enters with its centre's parts rounded to the nearest grid
  point and its radius rounded up, plus 1 ulp for the centre's rounding;
- a sum adds centres and radii, exactly, and so does 1 - q^n and the
  scaling by 2 or 16;
- a product rounds its centre's parts to the nearest grid point with
  ``ball._round_scaled``, the one rounding rule; its radius is
  |x| r_y + |y| r_x + r_x r_y rounded up, plus 1 ulp for the centre
  rounding (at most sqrt(2)/2 ulp), where |x| is an ``isqrt`` rounded up,
  or |re| when im = 0;
- the inverse 1/y is exact as a disk: z -> 1/z maps the disk of centre
  y and radius r_y < |y| onto the disk of centre conj(y) / (|y|^2 - r_y^2)
  and radius r_y / (|y|^2 - r_y^2), so it only rounds that centre to the
  nearest grid point and that radius up, plus 1 ulp;
- a theta tail enters in ulps, rounded up.

A real nome keeps im = 0 throughout, so real and complex tau share one
loop and the real one takes no cross products.

Balls appear only at the two ends.  In: the nome, exp of a real ball when
tau is exactly purely imaginary (as for the disk pullback 2i/(1-q) in
``census.make_evaluator``) and ``ball_cexp`` otherwise.  Out: the grid
value R^4 (R = A/B, lambda's theta quotient) or P^24 (P the partial
product, raised once as P^8 P^16) becomes a ball (the grid's 16 R^4 for
lambda, P^24 widened by the discriminant's tail for Delta), which is
multiplied by q (and (2 pi)^12) as balls and rounded once by ``round_to``.
The value is returned as a ComplexBall, the disk of a RealBall for a real
nome.

Guard bits: the nome ball's own radius, about 2^-work relative to q,
reaches the value through the out-end product just as through a ball loop.
The grid adds K ulps to R^4 or P^24 (each near 1), K a few per product, so
about K 2^-W relative to the value.  _GUARD = 40 keeps that below 2^-30 of
the nome's share for K up to 2^10: no radius is wider, by more than that
factor, than the one the ball loops of ``tests/oracles.py`` give (the
slow-path reference, every product rounded at work bits).  The 40 bits add
one or two 30-bit digits to integers of 200 to 600 bits.

pi and (2 pi)^12 depend on the precision alone: ``modular_constants``
builds them once, for a caller that evaluates many points.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from ..errors import DomainError, ResourceGuardError
from ..exactnum import (
    ComplexBall,
    RealBall,
    as_complex_ball,
    ball_cexp,
    ball_exp,
    ball_pi,
    rad_up,
)
from ..exactnum.ball import _round_scaled

_GUARD = 40  # grid bits past work = prec + 32 (see the module docstring)
# the largest Im tau.  |q| = exp(-scale pi Im tau) has about 4.5 scale Im tau
# bits, and the exact tail majorants raise it to a power and divide, so the
# cost grows about quadratically with Im tau: the discriminant at the default
# precision took 0.04 s at Im tau = 10^4, 0.34 s at 3 * 10^4, 3.5 s at 10^5
# and 31 s at 3 * 10^5 (lambda a third of that; CPython 3.11, 2-core host).
# The census pullback 2i/(1-q) stays below 2H <= 894.
_MAX_TAU_IM = 10 ** 4


def _check_domain(tau: ComplexBall):
    if tau.im + tau.rad > _MAX_TAU_IM:
        raise ResourceGuardError(f"modular: Im tau above {_MAX_TAU_IM}")
    if not (tau.im - tau.rad >= 1):
        raise DomainError("modular evaluation requires Im tau >= 1 (certified)")


class ModularConstants(NamedTuple):
    pi: RealBall
    two_pi_12: RealBall  # (2 pi)^12, the discriminant's constant factor


def modular_constants(prec: int) -> ModularConstants:
    pi_b = ball_pi(prec)
    return ModularConstants(pi_b, (pi_b * 2) ** 12)


def _nome(tau: ComplexBall, scale: int, prec: int,
          pi_b: RealBall | None = None) -> RealBall | ComplexBall:
    """exp(scale * pi * i * tau) as a ball (scale = 1 or 2); a RealBall when
    tau is exactly purely imaginary.  ``pi_b`` is ``ball_pi(prec)``, if given."""
    if pi_b is None:
        pi_b = ball_pi(prec)
    re = pi_b * tau.imag * (-scale)
    if tau.re == 0 and tau.rad == 0:
        # exp at the working precision: its outward rounding of the interval
        # endpoints at prec bits would leave the real nome wider than the
        # complex path's exp(centre) plus growth term
        return ball_exp(re, prec + 32).round_to(prec + 32)
    im = pi_b * tau.real * scale
    return ball_cexp(ComplexBall.from_real_pair(re, im), prec).round_to(prec + 32)


def _shift(qa: Fraction) -> int:
    """s with qa < 2^-s, from the bit lengths of qa's numerator and denominator."""
    return qa.denominator.bit_length() - qa.numerator.bit_length() - 1


# -- the grid: (re, im, rad) is the disk of radius rad 2^-W around (re + i im) 2^-W


def _ulps(x: Fraction, W: int, up: bool = False) -> int:
    """x 2^W rounded to an integer: to nearest, or up when ``up``."""
    return _round_scaled(x.numerator, x.denominator, W, up)


def _enter(q: RealBall | ComplexBall, W: int) -> tuple:
    """The nome ball on the grid: its centre rounded, its radius rounded up,
    plus 1 ulp for the centre."""
    z = as_complex_ball(q)
    return _ulps(z.re, W), _ulps(z.im, W), _ulps(z.rad, W, True) + 1


def _abs_up(re: int, im: int) -> int:
    if not im:
        return abs(re)
    n = re * re + im * im
    r = isqrt(n)
    return r if r * r == n else r + 1


def _mul(x: tuple, y: tuple, W: int) -> tuple:
    xr, xi, xe = x
    yr, yi, ye = y
    if xi or yi:
        re = _round_scaled(xr * yr - xi * yi, 1, -W)
        im = _round_scaled(xr * yi + xi * yr, 1, -W)
    else:
        re, im = _round_scaled(xr * yr, 1, -W), 0
    err = _abs_up(xr, xi) * ye + _abs_up(yr, yi) * xe + xe * ye
    return re, im, _round_scaled(err, 1, -W, True) + 1


def _inv(y: tuple, W: int) -> tuple:
    """1/y: z -> 1/z maps the disk |z - b| <= r < |b| onto the disk of
    centre conj(b) / (|b|^2 - r^2) and radius r / (|b|^2 - r^2)."""
    yr, yi, ye = y
    d = yr * yr + yi * yi - ye * ye
    if d <= 0:
        raise DomainError("theta quotient: denominator not certified nonzero")
    W2 = 2 * W
    return (_round_scaled(yr, d, W2), _round_scaled(-yi, d, W2),
            _round_scaled(ye, d, W2, True) + 1)


def _add(x: tuple, y: tuple, k: int = 1) -> tuple:
    """x + k y, exactly."""
    return x[0] + k * y[0], x[1] + k * y[1], x[2] + abs(k) * y[2]


def _ball(v: tuple, W: int, q: RealBall | ComplexBall) -> RealBall | ComplexBall:
    """The grid value v as a ball of q's type (a real nome's values are real)."""
    re, im, rad = (Fraction(x, 1 << W) for x in v)
    return RealBall(re, rad) if isinstance(q, RealBall) else ComplexBall(re, im, rad)


class ModularValue(NamedTuple):
    value: ComplexBall
    terms: int  # series terms summed (lambda: in each of its two sums), at most N
    tail_bound: Fraction  # majorant added to the radius, rounded up


def _nome_checked(tau: ComplexBall, scale: int, prec: int,
                  constants: ModularConstants | None):
    _check_domain(tau)
    q = _nome(tau, scale, prec, constants.pi if constants else None)
    qa = q.abs_upper()
    if qa >= 1:
        raise DomainError("nome modulus not certified below 1")
    return q, qa


def _theta_sums(q: RealBall | ComplexBall, qa: Fraction, N: int, work: int,
                W: int) -> tuple[tuple, tuple, int, Fraction]:
    """lambda's theta sums A and B on the grid, each widened by its tail, with
    the terms m summed in each and the sum of the two tails."""
    # A = sum_{n=0..m} q^(n^2+n), tail <= |q|^((m+1)(m+2)) / (1-|q|)
    # B = 1 + 2 sum_{n=1..m} q^(n^2), tail <= 2 |q|^((m+1)^2) / (1-|q|)
    # With |q| < 2^-s and s >= 1 (so 1/(1-|q|) < 2), the B tail is below
    # 2^-work once s (m+1)^2 >= work + 2, and the A tail, of higher order
    # in |q|, is then below it too: both sums stop there, or at m = N.
    s = _shift(qa)
    a = b = (1 << W, 0, 0)  # n = 0 terms
    qg = _enter(q, W)
    q2 = _mul(qg, qg, W)
    a_term, step = q2, q2  # q^(n^2+n) and q^(2n), at n = 1
    b_term, odd = qg, qg  # q^(n^2) and q^(2n-1), at n = 1
    m = 0
    while m < N and s * (m + 1) ** 2 < work + 2:
        if m:
            step = _mul(step, q2, W)
            a_term = _mul(a_term, step, W)
            odd = _mul(odd, q2, W)
            b_term = _mul(b_term, odd, W)  # q^(n^2) = q^((n-1)^2) * q^(2n-1)
        m += 1
        a = _add(a, a_term)
        b = _add(b, b_term, 2)
    a_tail = rad_up(qa ** ((m + 1) * (m + 2)) / (1 - qa))
    b_tail = rad_up(2 * qa ** ((m + 1) ** 2) / (1 - qa))
    a = a[0], a[1], a[2] + _ulps(a_tail, W, True)
    b = b[0], b[1], b[2] + _ulps(b_tail, W, True)
    return a, b, m, a_tail + b_tail


def lambda_eval(tau: ComplexBall, N: int = 12, prec: int = 128,
                constants: ModularConstants | None = None) -> ModularValue:
    """Enclosure of lambda(tau) = 16 q (A/B)^4 from at most N theta terms in
    each sum; ``constants``, if given, is ``modular_constants(prec)``."""
    q, qa = _nome_checked(tau, 1, prec, constants)
    work = prec + 32
    W = work + _GUARD
    a, b, m, tail = _theta_sums(q, qa, N, work, W)
    r = _mul(a, _inv(b, W), W)
    r2 = _mul(r, r, W)
    r4 = _mul(r2, r2, W)
    value = (q * _ball(tuple(16 * x for x in r4), W, q)).round_to(work)
    return ModularValue(as_complex_ball(value), m, tail)


def delta_eval(tau: ComplexBall, N: int = 24, prec: int = 128,
               constants: ModularConstants | None = None) -> ModularValue:
    """Enclosure of the discriminant (2 pi)^12 q prod_{n>=1} (1-q^n)^24 from
    at most N factors of the product; ``constants``, if given, is
    ``modular_constants(prec)``."""
    constants = constants or modular_constants(prec)
    q, qa = _nome_checked(tau, 2, prec, constants)
    # |log prod_{n>m} (1-q^n)^24| <= 24 sum_{n>m} |q|^n/(1-|q|) <= t below;
    # with |q| < 2^-s and s >= 1, t < 2^7 |q|^(m+1) is below 2^-work once
    # s (m+1) >= work + 7, where the product stops, or at N factors
    work = prec + 32
    W = work + _GUARD
    s = _shift(qa)
    one = (1 << W, 0, 0)
    prod = one
    qn = qg = _enter(q, W)
    m = 0
    while m < N and s * (m + 1) < work + 7:
        if m:
            qn = _mul(qn, qg, W)
        m += 1
        term = _add(one, qn, -1)  # 1 - q^n
        prod = _mul(prod, term, W) if m > 1 else term
    if m:
        p8 = prod
        for _ in range(3):
            p8 = _mul(p8, p8, W)
        prod = _mul(p8, _mul(p8, p8, W), W)  # P^24 = P^8 P^16
    t = 24 * qa ** (m + 1) / (1 - qa) ** 2
    if t >= 1:
        raise DomainError("discriminant tail not certified below 1")
    p24 = _ball(prod, W, q)
    # e^t - 1 <= sum_{k>=1} t^k = t/(1-t)
    tail = rad_up(p24.abs_upper() * t / (1 - t))
    value = (p24.widen(tail) * q * constants.two_pi_12).round_to(work)
    return ModularValue(as_complex_ball(value), m, tail)


def modular_eval(which: str, tau: ComplexBall, N: int | None = None,
                 prec: int = 128) -> ModularValue:
    if which == "lambda":
        return lambda_eval(tau, N if N is not None else 12, prec)
    if which == "delta":
        return delta_eval(tau, N if N is not None else 24, prec)
    raise DomainError(f"unknown modular function {which!r}")
