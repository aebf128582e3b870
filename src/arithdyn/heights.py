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
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .exactnum import (
    ComplexBall,
    IntPoly,
    RealBall,
    as_real_ball,
    ball_e,
    ball_log,
    ball_root,
    complex_roots_with_radii,
)
from .factorint import factor_over_Z


@dataclass(frozen=True)
class AlgebraicNumber:
    """A number pinned down by its minimal polynomial over Z.

    min_poly must be primitive with positive leading coefficient and
    irreducible over Q; ``create`` verifies irreducibility via the integer
    factorizer.  root_selector optionally isolates one particular root.
    """

    min_poly: IntPoly
    root_selector: ComplexBall | None = None

    @classmethod
    def create(cls, min_poly: IntPoly, root_selector: ComplexBall | None = None) -> "AlgebraicNumber":
        if min_poly.is_zero() or min_poly.degree < 1:
            raise DomainError("minimal polynomial must be nonconstant")
        cont, prim = min_poly.primitive()
        if abs(cont) != 1 or min_poly.lead < 0:
            raise DomainError("minimal polynomial must be primitive with positive leading coefficient")
        rep = factor_over_Z(min_poly)
        if len(rep.factors) != 1 or rep.factors[0][1] != 1:
            raise DomainError("minimal polynomial is reducible")
        return cls(min_poly, root_selector)

    @property
    def degree(self) -> int:
        return self.min_poly.degree

    def is_zero(self) -> bool:
        return self.min_poly.coeffs == (0, 1)


@dataclass(frozen=True)
class HeightValue:
    """Multiplicative height enclosure, its log, and an exact value if known."""

    mult: RealBall
    log: RealBall
    exact: Fraction | None = None

    def to_json(self, digits: int = 30) -> dict:
        from .exactnum import ball_decimal

        m, mr = ball_decimal(self.mult.mid, self.mult.rad, digits)
        l, lr = ball_decimal(self.log.mid, self.log.rad, digits)
        out = {
            "height_mult": {"mid": m, "rad": mr},
            "height_log": {"mid": l, "rad": lr},
        }
        if self.exact is not None:
            out["exact"] = f"{self.exact.numerator}/{self.exact.denominator}"
        return out


def height_rational(q, prec: int = 64) -> HeightValue:
    """Exact multiplicative height max(|num|, den) of a rational."""
    q = Fraction(q)
    h = Fraction(max(abs(q.numerator), q.denominator))
    return HeightValue(RealBall.exact(h), ball_log(RealBall.exact(h), prec), h)


def height_algebraic(alpha: AlgebraicNumber, prec: int = 64) -> HeightValue:
    """Certified enclosure of the multiplicative height of an algebraic number."""
    p = alpha.min_poly
    deg = p.degree
    if deg == 1:
        q = Fraction(-p[0], p[1])
        return height_rational(q, prec)
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


@dataclass(frozen=True)
class ModulusBound:
    """Certified lower bound H(alpha)^(-d) on |alpha| for nonzero alpha."""

    lower: RealBall
    exact: Fraction | None
    selector_consistent: bool | None


def modulus_lower_bound(alpha: AlgebraicNumber, d: int, prec: int = 64) -> ModulusBound:
    if alpha.is_zero():
        raise DomainError("alpha must be nonzero")
    if alpha.degree > d:
        raise DomainError(f"degree {alpha.degree} exceeds stated bound {d}")
    h = height_algebraic(alpha, prec)
    if h.exact is not None:
        exact = Fraction(1) / h.exact ** d
        ball = RealBall.exact(exact)
    else:
        exact = None
        ball = (h.mult ** d).inverse()
    consistent = None
    if alpha.root_selector is not None:
        consistent = bool(ball.hi <= alpha.root_selector.abs_upper())
    return ModulusBound(ball, exact, consistent)


def alpha_radius_cap(a, b, d: int, H, prec: int = 96) -> RealBall:
    """The modulus cap 1 - 1/(2 * l * d * log H) with l = log(a)/log(b).

    Requires a >= b^e > 1, a >= e, d >= 2, H >= e; the parameter checks are
    certified in ball arithmetic and rejected when provably violated or not
    decidable at the working precision.
    """
    if d < 2:
        raise DomainError("d must be at least 2")
    a, b, H = as_real_ball(a), as_real_ball(b), as_real_ball(H)
    e = ball_e(prec)
    # inclusive hypotheses: reject only when provably violated
    if a.lt(e):
        raise DomainError("parameter domain violated: a < e")
    if H.lt(e):
        raise DomainError("parameter domain violated: H < e")
    log_b = ball_log(b, prec)
    if not log_b.gt(RealBall.exact(0)):
        raise DomainError("parameter domain violated: b <= 1 (or not certifiable)")
    log_a = ball_log(a, prec)
    if log_a.lt(e * log_b):
        raise DomainError("parameter domain violated: a < b^e")
    l = log_a / log_b
    log_H = ball_log(H, prec)
    denom = 2 * l * d * log_H
    return RealBall.exact(1) - denom.inverse()
