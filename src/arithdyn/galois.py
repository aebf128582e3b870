"""Multiplicative orders, lifting exponents, exact cyclotomic degrees over
the p-adic field, and the resulting degree lower bounds for iterate roots.

The order of a modulo q^n stabilizes to e * q^(n-m) for n >= m, where e is
the order of a modulo q (modulo 4 when q = 2) and m is maximal with
a^e = 1 mod q^m.  The degree of the b-th cyclotomic extension of Q_p splits
as an unramified part (the order of p modulo the prime-to-p part of b) times
the totally ramified part p^(k-1)(p-1) from the p-power part.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, ResourceGuardError
from .exactnum import RealBall, ball_log
from .ntheory import factorize, is_prime, valuation
from .polymap import DEFAULT_DEGREE_CAP, PolyMap


def _carmichael(n: int) -> dict[int, int]:
    """The group exponent of (Z/n)^* as its factorization {p: e}, built from
    those of n and of each p - 1 (all below ``PROVEN_PRIME_BOUND``), so the
    exponent itself is never factorized."""
    lam: dict[int, int] = {}
    for p, k in factorize(n).items():
        part = {2: k - 2} if p == 2 and k >= 3 else {**factorize(p - 1), p: k - 1}
        for q, e in part.items():
            lam[q] = max(lam.get(q, 0), e)
    return {q: e for q, e in lam.items() if e}


def mult_order(a: int, n: int) -> int:
    """Least f >= 1 with a^f = 1 mod n, via the group exponent and divisor descent."""
    if n < 2:
        raise DomainError("modulus must be >= 2")
    a %= n
    if math.gcd(a, n) != 1:
        raise DomainError(f"{a} is not invertible modulo {n}")
    lam = _carmichael(n)
    f = math.prod(p ** e for p, e in lam.items())
    for p in sorted(lam):
        while f % p == 0 and pow(a, f // p, n) == 1:
            f //= p
    return f


class LiftingExponent(NamedTuple):
    """(e, m) data governing orders modulo prime powers.

    e is the order of a modulo q (modulo 4 when q = 2); m is maximal with
    a^e = 1 mod q^m.  For n >= m the order of a modulo q^n is e * q^(n-m).
    """

    a: int
    q: int
    e: int
    m: int

    def predicted_order(self, n: int) -> int:
        if n < self.m:
            raise DomainError(f"prediction requires n >= m = {self.m}")
        return self.e * self.q ** (n - self.m)


def lifting_exponent(a: int, q: int) -> LiftingExponent:
    """Compute (e, m); the stabilized-order prediction is self-checked for
    n up to m + 3 against direct order computation."""
    if a <= 1:
        raise DomainError("a must exceed 1")
    if not is_prime(q):
        raise DomainError(f"{q} is not prime")
    if a % q == 0:
        raise DomainError(f"{q} divides {a}")
    if q == 2:
        e = 1 if a % 4 == 1 else 2
    else:
        e = mult_order(a, q)
    # m = q-valuation of a^e - 1, probed modularly (a^e itself can be huge)
    m = 1
    while pow(a, e, q ** (m + 1)) == 1:
        m += 1
    le = LiftingExponent(a, q, e, m)
    for n in range(le.m, le.m + 4):
        if q ** n >= 2 and mult_order(a, q ** n) != le.predicted_order(n):
            raise DomainError("lifting-exponent self-check failed")
    return le


def cyclotomic_degree_qp(p: int, b: int) -> int:
    """Exact degree of the b-th cyclotomic extension of the p-adic field.

    With b = p^k * b0 (p not dividing b0): the unramified part has degree
    ord(p mod b0) (1 when b0 <= 2), the ramified part p^(k-1)(p-1).
    """
    if b < 1:
        raise DomainError("b must be >= 1")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    k = valuation(b, p)
    b0 = b // p ** k
    unram = 1 if b0 <= 2 else mult_order(p, b0)
    ram = 1 if k == 0 else p ** (k - 1) * (p - 1)
    return unram * ram


class GalcorBound(NamedTuple):
    """Lower bound b * D^(-m) on the cyclotomic p-adic degree."""

    degree: int  # exact cyclotomic degree
    m: int  # minimal m making degree >= b * D^(-m)
    bound: Fraction
    m_cap: RealBall  # (D-1) log(p) / log(2)


def galcor_lower_bound(p: int, b: int, D: int, prec: int = 64) -> GalcorBound:
    """Minimal m with [cyclotomic degree] >= b * D^(-m), for b | D^infinity."""
    if D < 2:
        raise DomainError("D must be >= 2")
    for q in factorize(b):
        if D % q != 0:
            raise DomainError(f"prime {q} of b does not divide D = {D}")
    deg = cyclotomic_degree_qp(p, b)
    m = 0
    while deg * D ** m < b:
        m += 1
    cap = (D - 1) * ball_log(RealBall.exact(p), prec) / ball_log(RealBall.exact(2), prec)
    return GalcorBound(deg, m, Fraction(b, D ** m), cap)


class PadicBoundReport(NamedTuple):
    """Certified degree lower bound for solutions of P^n(X) = P^n(alpha)."""

    place: object  # PlaceReport (nonarchimedean)
    n: int
    bound: int  # exact cyclotomic degree of the D^n-th roots of unity over Q_p
    cap_form: Fraction  # the coarser D^(n - m_uniform) shape, for comparison
    m_uniform: int  # valid for every divisor b of D^n
    m_height_cap: RealBall  # (D-1) h(alpha) / log 2
    count_coefficient: int  # D^(2 m_uniform): low-degree count bound d -> d^2 * this
    snap_max_degree: int | None  # cross-check when factorization is affordable


# bits of D^n above which padic_degree_bound stops: its report prints D^n's
# cyclotomic degree and D^(n - m) in decimal, far below Python's 4300-digit
# int-to-str limit at this size
_POWER_BIT_CAP = 4096


def padic_degree_bound(P: PolyMap, alpha, n: int, prec: int = 64,
                       degree_cap: int = DEFAULT_DEGREE_CAP, seed: int = 0) -> PadicBoundReport:
    """Degree lower bound via the cyclotomic structure at a good prime.

    Uses the exact cyclotomic degree of the D^n-th roots of unity over Q_p
    (sharper than the D^(n-m) shape, which is also reported).  Requires a
    nonarchimedean place with |alpha|_v > delta_v.  When D^n <= degree_cap
    the bound is checked against the largest factor degree of
    ``snap_degree_multiset``; above the cap no check runs and
    ``snap_max_degree`` is None.
    """
    from .boettcher import good_place
    from .heights import height_rational

    alpha = Fraction(alpha)
    place = good_place(P, alpha)
    if place is None or place.prime is None:
        raise DomainError("no good nonarchimedean place for this (map, alpha)")
    p = place.prime
    D = P.degree
    if n < 1:
        raise DomainError("n must be >= 1")
    if n > _POWER_BIT_CAP or (D ** n).bit_length() > _POWER_BIT_CAP:
        raise ResourceGuardError(f"D^n = {D}^{n} exceeds {_POWER_BIT_CAP} bits")
    bound = cyclotomic_degree_qp(p, D ** n)
    m0 = 0
    for q in factorize(D):
        if q != p:
            m0 = max(m0, lifting_exponent(p, q).m)
    m_uniform = m0 + (1 if D % p == 0 else 0)
    h_log = height_rational(alpha, prec).log
    cap = (D - 1) * h_log / ball_log(RealBall.exact(2), prec)
    snap_max = None
    if D ** n <= degree_cap:
        from .dynamics import snap_degree_multiset

        snap_max = snap_degree_multiset(P, alpha, n, degree_cap, seed).max_degree
        if snap_max < bound:
            raise DomainError(
                f"certified bound {bound} exceeds observed max degree {snap_max} (bug)"
            )
    return PadicBoundReport(
        place=place,
        n=n,
        bound=bound,
        cap_form=Fraction(D ** n, D ** min(m_uniform, n)),
        m_uniform=m_uniform,
        m_height_cap=cap,
        count_coefficient=D ** (2 * m_uniform),
        snap_max_degree=snap_max,
    )
