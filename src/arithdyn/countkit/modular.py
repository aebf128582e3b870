"""Rigorous q-series evaluation of the elliptic modulus ratio ("lambda") and
the discriminant cusp form on the half-plane Im(tau) >= 1.

lambda is computed from its theta-quotient definition

    lambda(tau) = ( 2 sum_{n>=0} q^((2n+1)^2/4) )^4 / ( 1 + 2 sum_{n>=1} q^(n^2) )^4,

with q = exp(pi i tau); the fourth power turns the common factor q^(1/4) of
the numerator terms into a single exact factor 16 q, so only integer powers
of q are ever evaluated.  The discriminant uses
(2 pi)^12 q prod (1 - q^n)^24 with q = exp(2 pi i tau).  All truncation
tails are bounded by explicit geometric majorants (|q| <= e^-pi resp.
e^-2pi on the domain), rounded up and added to the enclosure radius by
``widen``.  Each series sums at most N terms and stops at the first one
whose tail majorant is below 2^-work, work = prec + 32 bits: the stopping
test compares bit lengths of |q|'s certified upper bound, and only the
stopping index's majorant is formed exactly.

When tau is exactly purely imaginary (an exact point i t, as for the disk
pullback 2i/(1-q) in ``census.make_evaluator``), the nome exp(-scale pi t)
is real: it is a RealBall, and the same series loops then run in real ball
arithmetic, with no complex products.  Any other tau takes the same loops
over ComplexBall.  Either way the result is returned as a ComplexBall.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from ..errors import DomainError
from ..exactnum import (
    ComplexBall,
    RealBall,
    as_complex_ball,
    ball_cexp,
    ball_exp,
    ball_pi,
    rad_up,
)


def _check_domain(tau: ComplexBall):
    if not (tau.im - tau.rad >= 1):
        raise DomainError("modular evaluation requires Im tau >= 1 (certified)")


def _nome(tau: ComplexBall, scale: int, prec: int) -> RealBall | ComplexBall:
    """exp(scale * pi * i * tau) as a ball (scale = 1 or 2); a RealBall when
    tau is exactly purely imaginary."""
    pi_b = ball_pi(prec)
    re = pi_b * tau.imag * (-scale)
    if tau.re == 0 and tau.rad == 0:
        # exp at the working precision: its outward rounding of the interval
        # endpoints at prec bits would leave the real nome wider than the
        # complex path's exp(centre) plus growth term
        return ball_exp(re, prec + 32).round_to(prec + 32)
    im = pi_b * tau.real * scale
    return ball_cexp(ComplexBall.from_real_pair(re, im), prec).round_to(prec + 32)


def _pow4(z, work: int):
    z2 = (z * z).round_to(work)
    return (z2 * z2).round_to(work)


def _shift(qa: Fraction) -> int:
    """s with qa < 2^-s, from the bit lengths of qa's numerator and denominator."""
    return qa.denominator.bit_length() - qa.numerator.bit_length() - 1


class ModularValue(NamedTuple):
    value: ComplexBall
    terms: int  # series terms summed (lambda: in each of its two sums), at most N
    tail_bound: Fraction  # majorant added to the radius, rounded up


def lambda_eval(tau: ComplexBall, N: int = 12, prec: int = 128) -> ModularValue:
    """Enclosure of lambda(tau) from at most N theta terms in each sum."""
    _check_domain(tau)
    q = _nome(tau, 1, prec)
    qa = q.abs_upper()
    if qa >= 1:
        raise DomainError("nome modulus not certified below 1")
    # A = sum_{n=0..m} q^(n^2+n), tail <= |q|^((m+1)(m+2)) / (1-|q|)
    # B = 1 + 2 sum_{n=1..m} q^(n^2), tail <= 2 |q|^((m+1)^2) / (1-|q|)
    # With |q| < 2^-s and s >= 1 (so 1/(1-|q|) < 2), the B tail is below
    # 2^-work once s (m+1)^2 >= work + 2, and the A tail, of higher order
    # in |q|, is then below it too: both sums stop there, or at m = N.
    work = prec + 32
    s = _shift(qa)
    one = type(q).exact(1)
    q2 = (q * q).round_to(work)
    a = b = one  # n = 0 terms
    a_term = b_term = step = one
    odd = q  # q^(2n-1), starting at n = 1
    m = 0
    while m < N and s * (m + 1) ** 2 < work + 2:
        m += 1
        step = (step * q2).round_to(work)  # q^(2n)
        a_term = (a_term * step).round_to(work)  # q^(n^2+n)
        a = (a + a_term).round_to(work)
        b_term = (b_term * odd).round_to(work)  # q^(n^2) = q^((n-1)^2) * q^(2n-1)
        odd = (odd * q2).round_to(work)
        b = (b + 2 * b_term).round_to(work)
    a_tail = rad_up(qa ** ((m + 1) * (m + 2)) / (1 - qa))
    b_tail = rad_up(2 * qa ** ((m + 1) ** 2) / (1 - qa))
    a, b = a.widen(a_tail), b.widen(b_tail)
    value = (16 * q * _pow4(a, work) / _pow4(b, work)).round_to(work)
    return ModularValue(as_complex_ball(value), m, a_tail + b_tail)


def delta_eval(tau: ComplexBall, N: int = 24, prec: int = 128) -> ModularValue:
    """Enclosure of the discriminant (2 pi)^12 q prod_{n>=1} (1-q^n)^24 from
    at most N factors of the product."""
    _check_domain(tau)
    q = _nome(tau, 2, prec)
    qa = q.abs_upper()
    if qa >= 1:
        raise DomainError("nome modulus not certified below 1")
    # |log prod_{n>m} (1-q^n)^24| <= 24 sum_{n>m} |q|^n/(1-|q|) <= t below;
    # with |q| < 2^-s and s >= 1, t < 2^7 |q|^(m+1) is below 2^-work once
    # s (m+1) >= work + 7, where the product stops, or at N factors
    work = prec + 32
    s = _shift(qa)
    one = type(q).exact(1)
    prod = one
    qn = one
    m = 0
    while m < N and s * (m + 1) < work + 7:
        m += 1
        qn = (qn * q).round_to(work)
        term = one - qn
        t2 = (term * term).round_to(work)
        t4 = (t2 * t2).round_to(work)
        t8 = (t4 * t4).round_to(work)
        prod = (prod * t8 * t8 * t8).round_to(work)
    t = 24 * qa ** (m + 1) / (1 - qa) ** 2
    if t >= 1:
        raise DomainError("discriminant tail not certified below 1")
    # e^t - 1 <= sum_{k>=1} t^k = t/(1-t)
    tail = rad_up(prod.abs_upper() * t / (1 - t))
    prod = prod.widen(tail)
    factor = (ball_pi(prec) * 2) ** 12
    value = (prod * q * factor).round_to(work)
    return ModularValue(as_complex_ball(value), m, tail)


def modular_eval(which: str, tau: ComplexBall, N: int | None = None,
                 prec: int = 128) -> ModularValue:
    if which == "lambda":
        return lambda_eval(tau, N if N is not None else 12, prec)
    if which == "delta":
        return delta_eval(tau, N if N is not None else 24, prec)
    raise DomainError(f"unknown modular function {which!r}")
