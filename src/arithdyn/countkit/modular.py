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

The series run on the fixed-point grid of ``exactnum.ball`` (its module
docstring states the invariant, the per-step error terms and the guard
bits), with W = work + _GUARD: the nome enters the grid, the sums, 1 - q^n
and the scalings by 2 or 16 are exact, the products and the inverse 1/B
round once each, and a theta tail enters in ulps, rounded up.

Balls appear only at the two ends.  In: the nome, exp of a real ball when
tau is exactly purely imaginary (as for the disk pullback 2i/(1-q) in
``census.make_evaluator``) and ``ball_cexp`` otherwise.  Out: the grid
value R^4 (R = A/B, lambda's theta quotient) or P^24 (P the partial
product, raised once as P^8 P^16) becomes a ball (the grid's 16 R^4 for
lambda, P^24 widened by the discriminant's tail for Delta), which is
multiplied by q (and (2 pi)^12) as balls and rounded once by ``round_to``.
The value is returned as a ComplexBall, the disk of a RealBall for a real
nome.

pi and (2 pi)^12 depend on the precision alone: ``modular_constants``
builds them once, for a caller that evaluates many points.
"""

from __future__ import annotations

from fractions import Fraction
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
from ..exactnum.ball import (_GUARD, _RAD_BITS, _ball, _enter, _grid_add, _inv, _mul, _round_sig,
                             _scaled_pair, _ulps)

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


def _tail_up(qa: Fraction, c: int, k: int) -> Fraction:
    """rad_up(c qa^k / (1 - qa)) for c = 1 or 2, from integers.

    qa = n/2^e with n odd (the bound of a rounded ball is dyadic), so
    c qa^k / (1 - qa) = c n^k / ((2^e - n) 2^(e(k-1))) is in lowest terms
    once a factor c = 2 is shifted out of an even denominator: no Fraction
    power and no gcd.  (For a qa that is not dyadic, 2^e is below its
    denominator, and the result is a larger bound.)"""
    n, d = qa.numerator, qa.denominator
    den = (d - n) << (d.bit_length() - 1) * (k - 1)
    if c == 2 and not den & 1:
        c, den = 1, den >> 1
    return Fraction(*_scaled_pair(*_round_sig(c * n ** k, den, _RAD_BITS, True)))


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
        a = _grid_add(a, a_term)
        b = _grid_add(b, b_term, 2)
    a_tail = _tail_up(qa, 1, (m + 1) * (m + 2))
    b_tail = _tail_up(qa, 2, (m + 1) ** 2)
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
        term = _grid_add(one, qn, -1)  # 1 - q^n
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
