"""Multiplicative and logarithmic heights of rationals and algebraic numbers.

The height of a rational p/q in lowest terms is max(|p|, q).  For an
algebraic number given by its primitive minimal polynomial with positive
leading coefficient a, the multiplicative height is

    H = ( a * prod_i max(1, |z_i|) )^(1/deg),

the product running over the complex roots; it is evaluated here through
certified root enclosures, so the returned enclosure is rigorous.  Weil
heights of rational tuples are computed exactly as the log of an integer:
the product over all places of the local maxima.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError
from .exactnum import IntPoly, RealBall, ball_log, ball_root


class AlgebraicNumber(NamedTuple):
    """A number pinned down by its minimal polynomial over Z.

    min_poly must be primitive with positive leading coefficient and
    irreducible over Q; ``create`` verifies irreducibility via the integer
    factorizer.
    """

    min_poly: IntPoly

    @classmethod
    def create(cls, min_poly: IntPoly) -> "AlgebraicNumber":
        if min_poly.is_zero() or min_poly.degree < 1:
            raise DomainError("minimal polynomial must be nonconstant")
        cont, prim = min_poly.primitive()
        if abs(cont) != 1 or min_poly.lead < 0:
            raise DomainError("minimal polynomial must be primitive with positive leading coefficient")
        from .factorint.zassenhaus import factor_over_Z  # only a minimal polynomial needs it

        rep = factor_over_Z(min_poly)
        if len(rep.factors) != 1 or rep.factors[0][1] != 1:
            raise DomainError("minimal polynomial is reducible")
        return cls(min_poly)

    @property
    def degree(self) -> int:
        return self.min_poly.degree


class HeightValue(NamedTuple):
    """Multiplicative height enclosure, its log, and an exact value if known."""

    mult: RealBall
    log: RealBall
    exact: Fraction | None = None


def rational_height(q: Fraction) -> int:
    """The multiplicative height max(|num|, den) of a rational, exactly."""
    return max(abs(q.numerator), q.denominator)


def height_rational(q, prec: int = 64) -> HeightValue:
    """Exact multiplicative height max(|num|, den) of a rational, with its log."""
    h = Fraction(rational_height(Fraction(q)))
    return HeightValue(RealBall.exact(h), ball_log(RealBall.exact(h), prec), h)


def height_algebraic(alpha: AlgebraicNumber, prec: int = 64) -> HeightValue:
    """Certified enclosure of the multiplicative height of an algebraic number."""
    p = alpha.min_poly
    deg = p.degree
    if deg == 1:
        q = Fraction(-p[0], p[1])
        return height_rational(q, prec)
    from .exactnum.roots import complex_roots_with_radii  # only degree >= 2 needs it

    roots = complex_roots_with_radii(p, prec)
    prod = RealBall.exact(p.lead)
    one = Fraction(1)
    for b in roots:
        lo = max(one, b.abs_lower())
        hi = max(one, b.abs_upper())
        prod = prod * RealBall.from_endpoints(lo, hi)
    mult = ball_root(prod, deg, prec + 16)
    log = ball_log(prod, prec + 16) / deg
    return HeightValue(mult, log, None)


def weil_height_tuple(ts, prec: int = 64) -> HeightValue:
    """Logarithmic Weil height of a tuple of rationals, exact.

    The product over all places of max(1, |t_i|_v) is max(1, max |t_i|) at
    infinity times p^max_i v_p(den t_i) at each prime, i.e. times the lcm of
    the denominators; the total is returned in ``exact``.
    """
    ts = [Fraction(t) for t in ts]
    if not ts:
        raise DomainError("empty tuple")
    total = max([Fraction(1)] + [abs(t) for t in ts]) * math.lcm(*(t.denominator for t in ts))
    return HeightValue(RealBall.exact(total), ball_log(RealBall.exact(total), prec), total)

