"""Exact big-rational, polynomial, series and enclosure arithmetic.

The package re-exports the ball and polynomial names (``ball``, ``poly``):
the CLI parses polynomials and numbers and renders balls, so those two
modules load at its start-up anyway.  The truncated series
(``exactnum.series``), the certified root isolation (``exactnum.roots``)
and the Fraction linear algebra (``exactnum.linalg``) are imported from
their own modules, and only by the verbs that run them.
"""

from .ball import (
    ComplexBall,
    RealBall,
    as_complex_ball,
    as_real_ball,
    ball_cexp,
    ball_decimal,
    ball_e,
    ball_exp,
    ball_log,
    ball_pi,
    ball_root,
    ball_sqrt,
    rad_up,
    sqrt_down,
    sqrt_up,
)
from .poly import IntPoly, RatPoly, parse_poly

__all__ = [
    "ComplexBall",
    "RealBall",
    "IntPoly",
    "RatPoly",
    "as_complex_ball",
    "as_real_ball",
    "ball_cexp",
    "ball_decimal",
    "ball_e",
    "ball_exp",
    "ball_log",
    "ball_pi",
    "ball_root",
    "ball_sqrt",
    "parse_poly",
    "rad_up",
    "sqrt_down",
    "sqrt_up",
]
