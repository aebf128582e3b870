"""Covering a disk of radius R by closed disks of radius r on a square grid.

Grid squares of side s <= r*sqrt(2) are covered by the radius-r disks at
their centres (half-diagonal s/sqrt(2) <= r).  Only squares meeting the
disk of radius R + s/sqrt(2) around the origin are emitted; that cutoff
keeps the emitted count below the quadratic bound 4(1 + (sqrt(2)/2) R/r)^2
for every ratio R/r, with room to spare (area ratio pi/2 versus 2).
All coordinates and comparisons are exact rationals.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from ..errors import DomainError, ResourceGuardError

# 239/169 < sqrt(2):  2*169^2 - 239^2 = 1
_SQRT2_LO = Fraction(239, 169)
# 70711/100000 > 1/sqrt(2)
_INV_SQRT2_HI = Fraction(70711, 100000)
# grid points a cover may scan (R/r up to about 700)
_MAX_GRID_POINTS = 10 ** 6


def disk_cover(R, r) -> list[tuple[Fraction, Fraction]]:
    """Centers of closed radius-r disks covering the closed radius-R disk."""
    R, r = Fraction(R), Fraction(r)
    if R <= 0 or r <= 0:
        raise DomainError("R and r must be positive")
    if R <= r:
        return [(Fraction(0), Fraction(0))]
    s = r * _SQRT2_LO
    # keep centres with |c| <= R + s/sqrt(2); outward-rounded threshold
    thr = R * R + 2 * R * s * _INV_SQRT2_HI + s * s / 2
    s2 = s * s
    imax = isqrt(int(thr / s2)) + 1
    if (2 * imax + 1) ** 2 > _MAX_GRID_POINTS:
        raise ResourceGuardError(f"cover grid exceeds {_MAX_GRID_POINTS} points")
    out = []
    for i in range(-imax, imax + 1):
        for j in range(-imax, imax + 1):
            if s2 * (i * i + j * j) <= thr:
                out.append((i * s, j * s))
    return out


def cover_count_bound_holds(count: int, R, r) -> bool:
    """Exact check count <= 4 (1 + (sqrt(2)/2) R/r)^2."""
    R, r = Fraction(R), Fraction(r)
    rho = R / r
    # bound = 4 + 2 rho^2 + 4 sqrt(2) rho;  check count - 4 - 2 rho^2 <= 4 sqrt(2) rho
    lhs = Fraction(count) - 4 - 2 * rho * rho
    if lhs <= 0:
        return True
    return lhs * lhs <= 32 * rho * rho
