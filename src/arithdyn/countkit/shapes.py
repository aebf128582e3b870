"""Formula evaluators for the point-count and degree bound shapes.

These evaluate the *shape* of each bound with a caller-supplied constant
(default 1).  The genuinely effective constants behind the shapes are not
computed by this artifact; every consumer of these values must treat them
as regression/reference quantities, not as certified inequalities.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..errors import DomainError
from ..exactnum import RealBall, as_real_ball, ball_e, ball_exp, ball_log

# the (d, H) shapes c * l^a (log l)^b d^e (log d)^f (log H)^g (loglog H)^h,
# one row (a, b, e, f, g, h) each
_DH_SHAPES = {
    "decay_unit_disk": (0, 0, 9, 2, 9, 0),
    "decay_profile": (6, 3, 9, 2, 9, 0),
    "growth_rational_count": (0, 0, 0, 0, 18, 0),
    "growth_profile": (17, 9, 18, 9, 17, 6),
    "compact_refinement": (1, 1, 4, 2, 4, 0),
    "interpolation_degree": (3, 1, 4, 1, 3, 1),
}
SHAPE_TAGS = (*_DH_SHAPES, "degree_lower", "factor_count")


def bound_shape(tag: str, *, c=1, d=None, H=None, l=None, D=None, n=None,
                eps=None, prec: int = 96) -> RealBall:
    """Evaluate a bound shape with the caller's constant c (default 1).

    The (d, H) tags are the monomials of ``_DH_SHAPES`` (those with a power
    of l need l > 1); the D tags are
      degree_lower           c * D^(n/4 - eps n)
      factor_count           c * D^(3n/4 + eps n)
    """
    if tag not in SHAPE_TAGS:
        raise DomainError(f"unknown bound shape {tag!r}; known: {', '.join(SHAPE_TAGS)}")
    c = as_real_ball(c)
    if tag in ("degree_lower", "factor_count"):
        if D is None or n is None or eps is None:
            raise DomainError(f"{tag} needs D, n, eps")
        D = int(D)
        if D < 2:
            raise DomainError("D must be >= 2")
        eps = Fraction(eps)
        expo = Fraction(n, 4) - eps * n if tag == "degree_lower" else Fraction(3 * n, 4) + eps * n
        if expo.denominator == 1:
            if expo >= 0:
                return c * Fraction(D) ** expo.numerator
            return c * Fraction(1, D ** (-expo.numerator))
        return c * ball_exp(ball_log(RealBall.exact(D), prec) * expo, prec)

    if d is None or H is None:
        raise DomainError(f"{tag} needs d and H")
    d = int(d)
    if d < 2:
        raise DomainError("d must be >= 2")
    H = as_real_ball(H)
    if H.lt(ball_e(prec)):
        raise DomainError("need H >= e")
    exps = _DH_SHAPES[tag]
    log_H = ball_log(H, prec)
    if exps[0]:
        if l is None:
            raise DomainError(f"{tag} needs the decay log-ratio l")
        l = as_real_ball(l)
        if not l.gt(RealBall.exact(1)):
            raise DomainError("need l > 1 (certified) so that log l > 0")
    bases = (l, ball_log(l, prec) if exps[1] else None, Fraction(d),
             ball_log(RealBall.exact(d), prec), log_H, ball_log(log_H, prec) if exps[5] else None)
    # each ball product is exact, so the order of the factors does not change the value
    return math.prod((base ** e for base, e in zip(bases, exps) if e), start=c)
