"""Iteration statistics: canonical heights with certified error and the
degree/irreducible-factor data of P^n(X) - P^n(alpha).

The canonical height of alpha under a monic degree-D map is the limit of
h(P^n(alpha))/D^n.  A one-step comparison constant c with
|h(P(x)) - D h(x)| <= c for all rational x telescopes to the tail bound

    |hhat(alpha) - h(P^n(alpha))/D^n| <= c / (D^n (D - 1)),

so a certified c gives certified enclosures at any requested radius.  The
constant is constructed explicitly from cofactor identities: writing the map
on P^1 as [N(X,Y) : M(X,Y)] with integer forms, solving

    A*N + B*M = R * X^(2D-1)      and      A'*N + B'*M = R * Y^(2D-1)

for integer cofactors bounds the possible gcd cancellation by R and the
archimedean loss by the cofactor coefficient lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, ResourceGuardError
from .exactnum import RealBall, ball_log
from .exactnum.linalg import solve
from .factorint import FactorReport, factor_over_Q
from .heights import height_rational
from .polymap import DEFAULT_DEGREE_CAP, PolyMap


@dataclass(frozen=True)
class GapConstant:
    """Certified one-step and telescoped height-comparison constants.

    one_step_arg is an integer M with |h(P(x)) - D h(x)| <= log M for all
    rational x; the telescoped constant is log(M)/(D-1).
    """

    one_step_arg: int
    degree: int
    upper_arg: int
    lower_arg: int

    def one_step(self, prec: int = 64) -> RealBall:
        if self.one_step_arg == 1:
            return RealBall.exact(0)
        return ball_log(RealBall.exact(self.one_step_arg), prec)

    def gap(self, prec: int = 64) -> RealBall:
        return self.one_step(prec) / (self.degree - 1)

    def tail_bound(self, n: int, prec: int = 64) -> Fraction:
        """Upper bound for |hhat - h(P^n . )/D^n| (exact rational)."""
        return self.one_step(prec).hi / (self.degree ** n * (self.degree - 1))


def height_gap_constant(P: PolyMap) -> GapConstant:
    D = P.degree
    a = P.lower_coefficients()
    delta = 1
    for c in a:
        delta = delta * c.denominator // math.gcd(delta, c.denominator)
    A = [c * delta for c in a]  # integers
    upper_arg = delta + sum(abs(x.numerator) for x in A)

    # N_j = coefficient of X^j Y^(D-j) in Delta * Y^D P(X/Y); M = Delta Y^D
    N = [int(A[D - 1 - j]) if j < D else delta for j in range(D + 1)]
    lengths = []
    for rhs_row in (2 * D - 1, 0):
        mat = [[Fraction(0)] * (2 * D) for _ in range(2 * D)]
        for i in range(D):  # A-columns
            for j in range(D + 1):
                mat[i + j][i] += N[j]
        for i in range(D):  # B-columns (B * Delta Y^D)
            mat[i][D + i] += delta
        rhs = [Fraction(int(k == rhs_row)) for k in range(2 * D)]
        w = solve(mat, rhs)
        lcm = 1
        for x in w:
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
        ints = [int(x * lcm) for x in w]
        g = math.gcd(lcm, *(abs(v) for v in ints)) or 1
        ints = [v // g for v in ints]
        lengths.append(sum(abs(v) for v in ints))
    lower_arg = max(lengths)
    return GapConstant(max(upper_arg, lower_arg), D, upper_arg, lower_arg)


@dataclass(frozen=True)
class OrbitStats:
    alpha: Fraction
    n: int
    heights: tuple[Fraction, ...]  # multiplicative heights H(P^k(alpha)), k = 0..n
    canonical: RealBall
    gap_constant: RealBall

    def log_heights(self, prec: int = 64) -> list[RealBall]:
        """h(P^k(alpha)) as certified log enclosures (exact zeros stay exact)."""
        return [
            RealBall.exact(0) if h == 1 else ball_log(RealBall.exact(h), prec)
            for h in self.heights
        ]


def canonical_height(P: PolyMap, alpha, eps, prec: int = 0,
                     max_n: int = 256, bit_cap: int = 8_000_000) -> RealBall:
    return canonical_height_stats(P, alpha, eps, prec, max_n, bit_cap).canonical


def canonical_height_stats(P: PolyMap, alpha, eps, prec: int = 0,
                           max_n: int = 256, bit_cap: int = 8_000_000) -> OrbitStats:
    """Ball of radius <= eps around the canonical height of a rational point."""
    eps = Fraction(eps)
    if eps <= 0:
        raise DomainError("eps must be positive")
    alpha = Fraction(alpha)
    D = P.degree
    gc = height_gap_constant(P)
    half = eps / 2
    n = 0
    while gc.tail_bound(n) > half:
        n += 1
        if n > max_n:
            raise ResourceGuardError(f"needed more than {max_n} iterations for eps={eps}")
    heights = [Fraction(max(abs(alpha.numerator), alpha.denominator))]
    v = alpha
    for _ in range(n):
        v = P.poly.eval(v)
        if v.numerator.bit_length() + v.denominator.bit_length() > bit_cap:
            raise ResourceGuardError("orbit value size exceeds bit cap")
        heights.append(Fraction(max(abs(v.numerator), v.denominator)))
    h_n = heights[-1]
    if h_n == 1:
        log_ball = RealBall.exact(0)
    else:
        p = max(prec, 64)
        while True:
            log_ball = ball_log(RealBall.exact(h_n), p)
            if log_ball.rad / D ** n <= half:
                break
            p *= 2
    tail = gc.tail_bound(n)
    canonical = RealBall(log_ball.mid / D ** n, log_ball.rad / D ** n + tail)
    return OrbitStats(alpha, n, tuple(heights), canonical, gc.gap(max(prec, 64)))


def iterate(P: PolyMap, n: int, degree_cap: int = DEFAULT_DEGREE_CAP):
    """Exact expanded iterate (delegates to the map type)."""
    return P.iterate_poly(n, degree_cap)


@dataclass(frozen=True)
class SnapReport:
    """Factor-degree data of P^n(X) - P^n(alpha)."""

    alpha: Fraction
    n: int
    degree: int  # D^n
    value: Fraction  # P^n(alpha)
    multiset: tuple[int, ...]  # one degree entry per root (with multiplicity)
    squarefree: bool
    factor_report: FactorReport

    @property
    def distinct_factors(self) -> int:
        return len(self.factor_report.factors)

    @property
    def with_multiplicity(self) -> int:
        return sum(m for _, m in self.factor_report.factors)

    @property
    def max_degree(self) -> int:
        return max(self.multiset)

    def low_degree_share(self, delta) -> Fraction:
        """Exact share of roots of degree <= D^(delta n) among all D^n roots.

        The comparison d <= D^(delta n) is exact: with delta = p/q it reads
        d^q <= (D^n)^p.
        """
        delta = Fraction(delta)
        if delta <= 0:
            raise DomainError("delta must be positive")
        p, q = delta.numerator, delta.denominator
        bound = self.degree ** p
        return Fraction(sum(1 for d in self.multiset if d ** q <= bound), self.degree)


def snap_degree_multiset(P: PolyMap, alpha, n: int,
                         degree_cap: int = DEFAULT_DEGREE_CAP, seed: int = 0) -> SnapReport:
    """Degrees of the solutions of P^n(X) = P^n(alpha), one entry per root."""
    if n < 1:
        raise DomainError("n must be >= 1")
    alpha = Fraction(alpha)
    pn = P.iterate_poly(n, degree_cap)
    value = P.iterate_value(alpha, n)
    diff = pn - value
    _, rep = factor_over_Q(diff, seed)
    entries: list[int] = []
    for f, m in rep.factors:
        entries.extend([f.degree] * (m * f.degree))
    entries.sort()
    return SnapReport(
        alpha=alpha,
        n=n,
        degree=P.degree ** n,
        value=value,
        multiset=tuple(entries),
        squarefree=rep.is_squarefree(),
        factor_report=rep,
    )


def irreducible_count(P: PolyMap, alpha, n: int,
                      degree_cap: int = DEFAULT_DEGREE_CAP, seed: int = 0) -> tuple[int, int]:
    """(distinct irreducible factors, count with multiplicity)."""
    rep = snap_degree_multiset(P, alpha, n, degree_cap, seed)
    return rep.distinct_factors, rep.with_multiplicity


def low_degree_proportion(P: PolyMap, alpha, n: int, delta,
                          degree_cap: int = DEFAULT_DEGREE_CAP, seed: int = 0) -> Fraction:
    """Exact share of roots of degree <= D^(delta n) among all D^n roots."""
    return snap_degree_multiset(P, alpha, n, degree_cap, seed).low_degree_share(delta)


@dataclass(frozen=True)
class BoundedRegionReport:
    """Comparison of H(alpha) against the product of escape thresholds."""

    height: Fraction
    threshold_product: RealBall
    exceeds: bool | None  # None when the ball comparison is inconclusive
    witness_place: object | None  # PlaceReport from the escape-threshold search
    nontrivial_places: tuple[object, ...]


def bounded_height_region_check(P: PolyMap, alpha, prec: int = 96) -> BoundedRegionReport:
    """Evaluate the bounded-height containment test for a rational point.

    Multiplies the thresholds delta_v over the finitely many places where
    delta_v > 1 (including the archimedean escape-radius surrogate) and
    reports whether H(alpha) provably exceeds the product, together with a
    witness place where |alpha|_v > delta_v if one exists.
    """
    from .boettcher import delta_exception_set, delta_v, escape_domain_radius, good_place

    alpha = Fraction(alpha)
    H = height_rational(alpha).exact
    nontrivial = []
    prod = RealBall.exact(Fraction(1))
    for p in delta_exception_set(P):
        dv = delta_v(P, p)
        if dv.is_trivial():
            continue
        nontrivial.append(dv)
        prod = prod * dv.value_ball(prec)
    arch = escape_domain_radius(P)
    prod = prod * RealBall.exact(arch.radius)
    hb = RealBall.exact(H)
    if hb.gt(prod):
        exceeds = True
    elif hb.le(prod) or hb.lt(prod):
        exceeds = False
    else:
        exceeds = None
    return BoundedRegionReport(
        height=H,
        threshold_product=prod,
        exceeds=exceeds,
        witness_place=good_place(P, alpha),
        nontrivial_places=tuple(nontrivial),
    )
