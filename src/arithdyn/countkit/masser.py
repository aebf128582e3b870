"""Interpolation-determinant threshold search and constructive vanishing
polynomials from exact kernels.

The threshold inequality

    (AZ)^T > (4T)^(96 d^2 / T) * (M+1)^(16 d) * H^(48 d^2)

is certified in ball arithmetic.  Its log-difference is strictly increasing
in T on T >= sqrt(8d) whenever AZ > 1 (the derivative is
log(AZ) + 96 d^2 (log(4T) - 1)/T^2 > 0 there), so the minimal admissible T
is a single crossing; we bracket it by doubling and bisect.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from ..errors import DomainError
from ..exactnum import RatPoly, RealBall, as_real_ball, ball_log, sqrt_up
from ..exactnum.linalg import kernel_vector

_REL_TOL = Fraction(1, 10 ** 7)  # bisection stops once (hi - lo)/hi is this small


def _threshold_gap(AZ: RealBall, M: RealBall, H: RealBall, d: int, T: Fraction,
                   prec: int) -> RealBall:
    """log LHS - log RHS at T (positive = inequality satisfied strictly)."""
    lhs = T * ball_log(AZ, prec)
    rhs = (
        Fraction(96 * d * d) / T * ball_log(RealBall.exact(4 * T), prec)
        + 16 * d * ball_log(M + 1, prec)
        + 48 * d * d * ball_log(H, prec)
    )
    return lhs - rhs


def masser_T_threshold(AZ, M, H, d: int, prec: int = 128) -> Fraction:
    """Minimal T >= sqrt(8d) satisfying the threshold inequality (certified).

    The returned rational T is certified to satisfy it; T*(1 - 10^-6) is
    certified to fail (it drops below the unique crossing or below the
    sqrt(8d) floor).
    """
    if d < 1:
        raise DomainError("d must be >= 1")
    AZ, M, H = as_real_ball(AZ), as_real_ball(M), as_real_ball(H)
    if not AZ.gt(RealBall.exact(1)):
        raise DomainError("threshold unsatisfiable: AZ <= 1 (or not certifiable)")
    if M.lt(RealBall.exact(0)) or H.lt(RealBall.exact(1)):
        raise DomainError("need M > 0 and H >= 1")
    t_floor = sqrt_up(Fraction(8 * d), bits=64)

    def satisfied(T: Fraction) -> bool | None:
        p = prec
        for _ in range(4):
            g = _threshold_gap(AZ, M, H, d, T, p)
            if g.lo > 0:
                return True
            if g.hi <= 0:
                return False
            p *= 2
        return None

    if satisfied(t_floor):
        return t_floor
    lo, hi = t_floor, max(2 * t_floor, Fraction(8))
    for _ in range(200):
        if satisfied(hi):
            break
        lo, hi = hi, 2 * hi
    else:
        raise DomainError("threshold bracket search failed")
    while hi - lo > hi * _REL_TOL:
        mid = (lo + hi) / 2
        s = satisfied(mid)
        if s is True:
            hi = mid
        elif s is False:
            lo = mid
        else:
            # crossing inside the undecidable sliver: nudge the bracket
            hi = mid + (hi - mid) / 4
            if not satisfied(hi):
                lo = hi
                hi = 2 * hi
    return hi


class BivarIntPoly(NamedTuple):
    """Integer polynomial in two variables: sorted ((i, j), c) terms."""

    terms: tuple[tuple[tuple[int, int], int], ...]

    @property
    def total_degree(self) -> int:
        return max((i + j for (i, j), _ in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def eval(self, x, y) -> Fraction:
        x, y = Fraction(x), Fraction(y)
        return sum((c * x ** i * y ** j for (i, j), c in self.terms), Fraction(0))


def _monomials(t_max: int) -> list[tuple[int, int]]:
    """Graded-lex order: by total degree, then by x-exponent."""
    out = []
    for tot in range(t_max + 1):
        for i in range(tot + 1):
            out.append((i, tot - i))
    return out


def vanishing_polynomial(points, t_max: int) -> BivarIntPoly:
    """Nonzero integer polynomial of total degree <= t_max vanishing at all
    given rational points, from the exact kernel of the evaluation matrix.

    Tie-break: the reduced-echelon kernel basis vector for the first free
    column (monomials in graded-lex order), denominators cleared, content
    removed, leading sign positive.
    """
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    if len(set(pts)) != len(pts):
        raise DomainError("points must be distinct")
    monos = _monomials(t_max)
    if len(monos) <= len(pts):
        raise DomainError(
            f"need binomial(t_max+2, 2) = {len(monos)} > {len(pts)} points"
        )
    if not pts:
        return BivarIntPoly((( (0, 0), 1),))
    matrix = [[x ** i * y ** j for (i, j) in monos] for x, y in pts]
    _, prim = RatPoly(kernel_vector(matrix, len(monos))).to_int_primitive()
    terms = tuple((monos[k], c) for k, c in enumerate(prim.coeffs) if c != 0)
    poly = BivarIntPoly(terms)
    for x, y in pts:
        if poly.eval(x, y) != 0:
            raise DomainError("kernel vector fails to vanish (bug)")
    return poly
