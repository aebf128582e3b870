"""Certified complex root isolation for squarefree integer polynomials.

Strategy: simultaneous (Aberth-Ehrlich) iteration seeded on a perturbed
circle of Cauchy-bound radius gives fast approximations; each is polished
by Newton steps at increasing mpmath precision and then certified a
posteriori with exact rational arithmetic:

    every point z has a root of p within distance deg(p) * |p(z)/p'(z)|,

so if the n disks D(z_i, deg * |p(z_i)/p'(z_i)|) are pairwise disjoint each
one contains exactly one of the n roots.  All disk data is exact: the
midpoints are dyadic, and each radius is that bound rounded up by ``widen``
to a short dyadic, so the certificate is rigorous.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from typing import TYPE_CHECKING

from ..errors import CertificationError, DomainError
from .ball import ComplexBall, _mpf_pair, sqrt_up
from .poly import IntPoly, RatPoly, horner

if TYPE_CHECKING:
    import mpmath

_FLOAT_ITERS = 120  # Aberth passes in double precision
_MP_ITERS = 200  # Aberth passes at mpmath precision
_MAX_WORK_BITS = 4096  # working-precision cap of complex_roots_with_radii


def _cauchy_radius(p: RatPoly) -> float:
    lc = abs(p.lead)
    return 1.0 + max(abs(c / lc) for c in p.coeffs[:-1]) if p.degree >= 1 else 1.0


def _aberth(cs, dcs, seeds, iters: int, tol, nudge, total) -> list:
    """Aberth-Ehrlich iteration from ``seeds`` on the roots of the polynomial
    with coefficients cs (constant term first) and derivative dcs, in the
    arithmetic of the seeds (complex floats or mpmath numbers): at most
    ``iters`` passes, ending after one that moves no root by ``tol``; a root
    where the derivative vanishes moves by ``nudge``, and ``total`` sums the
    Aberth correction.  Approximations only, no guarantees."""
    zs = list(seeds)
    n = len(zs)
    for _ in range(iters):
        moved = 0
        for i in range(n):
            pz = horner(cs, zs[i])
            dz = horner(dcs, zs[i])
            if dz == 0:
                zs[i] += nudge
                continue
            newton = pz / dz
            s = total(1 / (zs[i] - zs[j]) for j in range(n) if j != i)
            denom = 1 - newton * s
            step = newton / denom if denom != 0 else newton
            zs[i] -= step
            moved = max(moved, abs(step))
        if moved < tol:
            break
    return zs


def _float_approximations(p: RatPoly) -> list[complex]:
    """Double-precision Aberth approximations, seeded on a perturbed circle of
    Cauchy-bound radius."""
    n = p.degree
    r = _cauchy_radius(p)
    seeds = [
        r * cmath.exp(2j * cmath.pi * (k + 0.3711) / n) * (1 + 0.05 * ((k * 7 % 11) / 11))
        for k in range(n)
    ]
    return _aberth([float(c) for c in p.coeffs], [float(c) for c in p.derivative().coeffs],
                   seeds, _FLOAT_ITERS, 1e-14, 1e-6 + 1e-6j, sum)


def _mp_approximations(p: IntPoly, prec: int) -> list[mpmath.mpc]:
    """Aberth approximations at mpmath precision (when the float ones fail)."""
    import mpmath  # on first use: only the root polishing at high precision needs it

    n = p.degree
    with mpmath.workprec(prec):
        cs = [mpmath.mpf(c) for c in p.coeffs]
        r = 1 + max(abs(c) / abs(cs[-1]) for c in cs[:-1])
        seeds = [
            r * mpmath.exp(2j * mpmath.pi * (k + mpmath.mpf("0.3711")) / n) * (1 + mpmath.mpf(k % 7) / 100)
            for k in range(n)
        ]
        tol = mpmath.ldexp(1, -prec + 8)
        zs = _aberth(cs, [mpmath.mpf(c) for c in p.derivative().coeffs], seeds, _MP_ITERS,
                     tol, tol, mpmath.fsum)
        return [+z for z in zs]


def _mp_polish(p: IntPoly, z0: complex | mpmath.mpc, prec: int) -> mpmath.mpc:
    import mpmath

    with mpmath.workprec(prec):
        z = mpmath.mpc(z0)
        cs = [mpmath.mpf(c) for c in p.coeffs]
        dcs = [mpmath.mpf(c) for c in p.derivative().coeffs]
        for _ in range(prec):
            pz = horner(cs, z)
            dz = horner(dcs, z)
            if dz == 0:
                break
            step = pz / dz
            z = z - step
            if abs(step) < mpmath.ldexp(1, -prec) * (1 + abs(z)):
                break
        return +z


def _residual_radius(p: IntPoly, re: Fraction, im: Fraction) -> Fraction:
    """Exact upper bound for deg(p) * |p(z)/p'(z)| at the exact point z."""
    z = ComplexBall.exact(re, im)
    num_sq = p.eval(z).abs_sq_mid()
    den_sq = p.derivative().eval(z).abs_sq_mid()
    if den_sq == 0:
        raise CertificationError("derivative vanishes at approximation")
    if num_sq == 0:
        return Fraction(0)
    return p.degree * sqrt_up(num_sq / den_sq, bits=96)


def complex_roots_with_radii(p: IntPoly, precision: int = 64) -> list[ComplexBall]:
    """deg(p) disjoint complex balls, each containing exactly one root of p.

    Requires p nonzero and squarefree.  The radii are at most 2**-precision
    (0 where the polished point is an exact root).  Raises
    CertificationError if the certificate cannot be established below
    _MAX_WORK_BITS working bits.

    No root is snapped to a rational: the one caller,
    ``heights.height_algebraic``, passes minimal polynomials of degree >= 2,
    which are irreducible and so have no rational root, and the disjoint-disk
    certificate holds for any squarefree p.
    """
    if p.is_zero():
        raise DomainError("zero polynomial")
    n = p.degree
    if n == 0:
        return []
    rp = p.to_rat()
    if rp.gcd(rp.derivative()).degree > 0:
        raise DomainError("polynomial is not squarefree")
    try:
        seeds: list = _float_approximations(rp)
    except (OverflowError, ZeroDivisionError):
        # coefficients beyond double range: the mpmath reseed path below
        # supplies proper seeds for every root
        seeds = []
    target = Fraction(1, 2 ** precision)
    work = max(64, 2 * precision + 32)
    reseeded = False
    while True:
        ok = len(seeds) == n
        balls = []
        for z in seeds if ok else ():
            # the polished parts are mpfs of at most ``work`` bits, taken exactly
            re, im = (Fraction(*_mpf_pair(t)) for t in _mp_polish(p, z, work)._mpc_)
            try:
                rad = _residual_radius(p, re, im)
            except CertificationError:
                ok = False
                break
            ball = ComplexBall.exact(re, im).widen(rad)
            if ball.rad > target:
                ok = False
                break
            balls.append(ball)
        if ok and _pairwise_disjoint(balls):
            return balls
        if reseeded:
            work *= 2
        reseeded = True
        seeds = _mp_approximations(p, work)
        if work > _MAX_WORK_BITS:
            raise CertificationError(
                f"could not certify roots at {precision} bits (working precision cap {_MAX_WORK_BITS})"
            )


def _pairwise_disjoint(balls: list[ComplexBall]) -> bool:
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            dx = balls[i].re - balls[j].re
            dy = balls[i].im - balls[j].im
            s = balls[i].rad + balls[j].rad
            if dx * dx + dy * dy <= s * s:
                return False
    return True
