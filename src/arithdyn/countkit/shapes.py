"""Formula evaluators for the point-count and degree bound shapes.

These evaluate the *shape* of each bound with a caller-supplied constant
(default 1).  The genuinely effective constants behind the shapes are not
computed by this artifact; every consumer of these values must treat them
as regression/reference quantities, not as certified inequalities.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import DomainError
from ..exactnum import RealBall, as_real_ball, ball_e, ball_exp, ball_log

SHAPE_TAGS = (
    "decay_unit_disk",
    "decay_profile",
    "growth_rational_count",
    "growth_profile",
    "compact_refinement",
    "interpolation_degree",
    "degree_lower",
    "factor_count",
)


def bound_shape(tag: str, *, c=1, d=None, H=None, l=None, D=None, n=None,
                eps=None, prec: int = 96) -> RealBall:
    """Evaluate a bound shape with the caller's constant c (default 1).

    Tags and their parameters:
      decay_unit_disk        c * d^9 (log d)^2 (log H)^9
      decay_profile          c * l^6 (log l)^3 d^9 (log d)^2 (log H)^9
      growth_rational_count  c * (log H)^18
      growth_profile         c * l^17 (log l)^9 d^18 (log d)^9 (log H)^17 (loglog H)^6
      compact_refinement     c * l log(l) d^4 (log d)^2 (log H)^4
      interpolation_degree   c * l^3 log(l) d^4 log(d) (log H)^3 loglog(H)
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
    log_d = ball_log(RealBall.exact(d), prec)
    log_H = ball_log(H, prec)
    if tag == "decay_unit_disk":
        return c * Fraction(d) ** 9 * log_d ** 2 * log_H ** 9
    if tag == "growth_rational_count":
        return c * log_H ** 18
    # remaining tags need the decay log-ratio l
    if l is None:
        raise DomainError(f"{tag} needs the decay log-ratio l")
    l = as_real_ball(l)
    if not l.gt(RealBall.exact(1)):
        raise DomainError("need l > 1 (certified) so that log l > 0")
    log_l = ball_log(l, prec)
    if tag == "decay_profile":
        return c * l ** 6 * log_l ** 3 * Fraction(d) ** 9 * log_d ** 2 * log_H ** 9
    if tag == "compact_refinement":
        return c * l * log_l * Fraction(d) ** 4 * log_d ** 2 * log_H ** 4
    loglog_H = ball_log(log_H, prec)
    if tag == "interpolation_degree":
        return c * l ** 3 * log_l * Fraction(d) ** 4 * log_d * log_H ** 3 * loglog_H
    # growth_profile
    return (
        c * l ** 17 * log_l ** 9 * Fraction(d) ** 18 * log_d ** 9
        * log_H ** 17 * loglog_H ** 6
    )
