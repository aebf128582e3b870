"""Iteration statistics: canonical heights with certified error and the
degree/irreducible-factor data of P^n(X) - P^n(alpha).

The factorization of P^n(X) - P^n(alpha) follows the tower of iterated
preimages (Odoni, Proc. LMS 51, 1985).  With beta_k = P^k(alpha) and
Q_beta(Y) = (P(Y) - P(beta))/(Y - beta), of degree D - 1,

    P^n(X) - P^n(alpha) = (X - alpha) * prod_{k<n} Q_{beta_k}(P^k(X))

exactly, by induction on n: P^{k+1}(X) - beta_{k+1} = P(P^k X) - P(beta_k)
= (P^k(X) - beta_k) * Q_{beta_k}(P^k(X)).  Each Q_{beta_k} is factored over
Q by Zassenhaus, and each of its irreducible factors h starts a chain
f_0 = h, f_(j+1) = f_j(P(X)), ending in the piece f_k = h(P^k(X)).  Each
link is proven irreducible in turn by Capelli descent
(``factorint.capelli.chain``): f_(j+1) is irreducible when an odd prime p
and a factor g of f_j mod p satisfy

1. p does not divide lc(f_j) * den(P);
2. f_j mod p is squarefree;
3. g is irreducible over F_p of degree at most 3;
4. g(P(X)) is irreducible over F_p;

because then, for a root gamma of f_j, P(X) - gamma stays irreducible modulo
the prime of Q(gamma) belonging to g, so it is irreducible over Q(gamma), and
by Capelli's lemma f_j(P(X)) is irreducible over Q.  No f_j with j < k is
formed: one driver walks each prime once over all k links, and each link
takes the first prime that certifies it.  The per-prime kernel depends on D
(the proofs are in ``factorint.capelli``):

- D >= 3: the kernel tracks the irreducible factors of degree <= max(3, D - 1)
  of f_j mod p; those of f_(j+1) are the small factors of g(P) for the
  tracked g of f_j, and a repeated root of f_(j+1) needs a critical value
  of P among the tracked roots of f_j.
- D = 2: each h is linear with root gamma, and the kernel walks the tree of
  iterated P-preimages of gamma mod p with one Legendre symbol per node.

A piece whose chain breaks (no prime among the first 60 has such a g) goes
whole to Zassenhaus, which sees at most degree (D - 1) D^(n-1) instead of the
whole degree-D^n difference.  The pieces are formed over Z when P has integer
coefficients.  They need not be coprime (they share a factor when P' vanishes
on the orbit, or when the orbit is preperiodic), so the irreducible factors of
all pieces are merged with their multiplicities added.  The merged product is
proven to be the primitive part of P^n(X) - P^n(alpha) level by level, and
P^n(X) itself is never formed:

- for each k, the zero remainder of P(Y) - beta_(k+1) divided by Y - beta_k
  proves P(Y) - beta_(k+1) = (Y - beta_k) Q_{beta_k}(Y), and
  ``factor_over_Z`` checks that the factors h it returns rebuild Q_{beta_k}
  up to a rational constant;
- substituting Y = P^k(X) is a ring homomorphism Q[Y] -> Q[X], so each level
  identity holds at Y = P^k(X), and the levels telescope to the identity
  above;
- X - alpha enters as den(alpha) X - num(alpha), and each other piece is
  the primitive part of h(P^k(X)), either proven irreducible by its chain
  or factored by ``factor_over_Z`` (which checks its own reconstruction),
  so the merged product is P^n(X) - P^n(alpha) up to a nonzero rational
  constant;
- every merged factor is primitive with a positive leading coefficient, so
  by Gauss's lemma their product is too; two such integer polynomials that
  differ by a rational constant are equal.  The merged product is therefore
  exactly the primitive part of P^n(X) - P^n(alpha), and by unique
  factorization in Z[X] the merged factors are its factorization.

The largest polynomial formed is a piece, of degree at most (D - 1) D^(n-1).

The canonical height of a rational alpha under a monic degree-D map is the
sum of local canonical heights (Call-Silverman, Compositio 89, 1993;
Call-Goldstine, JNT 63, 1997)

    hhat(alpha) = lambda_inf(alpha) + sum_p lambda_p(alpha),
    lambda_v(x) = lim_k D^-k log max(1, |P^k(x)|_v),

and every place is computed from an orbit of bounded size, so the cost is
polynomial in log(1/eps).  Let delta be the lcm of the coefficient
denominators.

- At a prime p not dividing delta the coefficients are p-integral, so
  |P(x)|_p = |x|_p^D once |x|_p > 1: lambda_p(alpha) = log max(1, |alpha|_p).
  These places sum to log of den(alpha) stripped of the primes of delta
  (by gcd; den(alpha) is never factored).
- At p | delta, with e = v_p(delta): once v_p(x) < -e the leading term
  dominates, so lambda_p = -v_p(P^k alpha) log p / D^k exactly.  The orbit is
  iterated modulo a power of p, losing e(D-1) digits a step; an orbit that
  stays in v_p >= -e for K steps gives lambda_p in [0, e log p / D^K].
- At infinity, with R = 1 + sum |a_i| and c(r) = t/((1-t)(D-1)) for
  t = (R-1)/r, |lambda_inf(z) - log|z|| <= c(|z|) once |z| >= R, and
  lambda_inf(z) <= log r + c(r) on |z| <= r for r >= R (maximum principle).
  The orbit runs in real balls whose midpoints are rounded to a fixed grid
  2^-w, so neither the orbit nor its radius grows beyond the escape size.

The one-step comparison constant c with |h(P(x)) - D h(x)| <= c for all
rational x (reported as ``gap_constant``) is constructed explicitly from
cofactor identities: writing the map on P^1 as [N(X,Y) : M(X,Y)] with
integer forms, the cofactors of

    A*N + B*M = X^(2D-1)      and      A'*N + B'*M = Y^(2D-1)

bound the possible gcd cancellation by their common denominator and the
archimedean loss by their coefficient lengths.  Here N_j = delta [X^j]P is
the coefficient of X^j Y^(D-j), so N_D = delta, and M = delta Y^D.

- B*M only reaches the monomials X^k Y^(2D-1-k) with k < D, so the rows
  k >= D of the first identity involve A alone and are triangular:
  A(X) N(X) = X^(2D-1) + O(X^(D-1)).  So A_(D-1-m), for m < D, is the
  coefficient of z^m in 1/(N_D + N_(D-1) z + ... + N_1 z^(D-1)), a power
  series reciprocal, and B is the low D terms of -A*N/delta.
- The second identity has the solution A' = 0, B' = Y^(D-1)/delta, of
  length 1 over its denominator delta, while the first has A_(D-1) = 1/delta
  and so length at least 1.  The Y identity never sets the maximum and is
  not formed.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError, ResourceGuardError
from .exactnum import IntPoly, RatPoly, RealBall, ball_log
from .exactnum.poly import horner, rat_mul
from .exactnum.series import TruncSeries, series_reciprocal
from .ntheory import prime_divisors, residue, valuation
from .polymap import DEFAULT_DEGREE_CAP, PolyMap

if TYPE_CHECKING:
    from .factorint.zassenhaus import FactorReport


class GapConstant(NamedTuple):
    """Certified one-step and telescoped height-comparison constants.

    one_step_arg is an integer M with |h(P(x)) - D h(x)| <= log M for all
    rational x; the telescoped constant is log(M)/(D-1).
    """

    one_step_arg: int
    degree: int

    def one_step(self, prec: int = 64) -> RealBall:
        return ball_log(RealBall.exact(self.one_step_arg), prec)

    def gap(self, prec: int = 64) -> RealBall:
        return self.one_step(prec) / (self.degree - 1)


def height_gap_constant(P: PolyMap) -> GapConstant:
    D = P.degree
    a = P.lower_coefficients()
    delta = math.lcm(*(c.denominator for c in a))
    # N_j = delta [X^j]P, the coefficient of X^j Y^(D-j) in delta Y^D P(X/Y)
    N = [int(c * delta) for c in reversed(a)] + [delta]
    upper_arg = sum(abs(c) for c in N)
    # the cofactors of A*N + B*M = X^(2D-1), as the module docstring derives them
    r = series_reciprocal(TruncSeries(0, N[:0:-1]))
    A = [r.coefficient(i - D + 1) for i in range(D)]
    B = [-c / delta for c in rat_mul(A, N, D)]
    lcm = math.lcm(*(x.denominator for x in A + B))
    return GapConstant(max(upper_arg, int(sum(abs(x) for x in A + B) * lcm)), D)


class LocalHeight(NamedTuple):
    """One term of hhat(alpha): ``place`` is "inf", a prime p dividing delta,
    or "good" (every prime outside delta, in closed form); ``steps`` orbit
    steps were taken and ``escaped`` says whether the orbit provably entered
    the region where the local height is read off directly."""

    place: str
    steps: int
    escaped: bool
    value: RealBall


class HeightStats(NamedTuple):
    alpha: Fraction
    n: int  # the most orbit steps any place used
    canonical: RealBall
    gap_constant: RealBall
    places: tuple[LocalHeight, ...]


# the archimedean orbit's grid 2^-w may be refined up to this many bits
_MAX_GRID_BITS = 1 << 16


def canonical_height_stats(P: PolyMap, alpha, eps, prec: int = 0) -> HeightStats:
    """Ball of radius <= eps around the canonical height of a rational point,
    as a sum of local heights, each within an equal share of eps.  ``prec``
    is the working precision of the reported gap constant."""
    eps = Fraction(eps)
    if eps <= 0:
        raise DomainError("eps must be positive")
    alpha = Fraction(alpha)
    delta = math.lcm(*(c.denominator for c in P.lower_coefficients()))
    primes = prime_divisors(delta)
    share = eps / (len(primes) + 2)
    good = alpha.denominator
    while (g := math.gcd(good, delta)) > 1:
        good //= g
    places = [_arch_local_height(P, alpha, share)]
    places += [_padic_local_height(P, alpha, p, valuation(delta, p), share) for p in primes]
    places.append(LocalHeight("good", 0, good > 1, _log_within(Fraction(good), share)))
    canonical = sum((pl.value for pl in places), RealBall.exact(0))
    gap = height_gap_constant(P).gap(max(prec, 64))
    return HeightStats(alpha, max(pl.steps for pl in places), canonical, gap, tuple(places))


def _log_within(x: Fraction, tol: Fraction) -> RealBall:
    """log x for an exact x >= 1, as a ball of radius <= tol."""
    prec = max(64, math.ceil(1 / tol).bit_length() + x.numerator.bit_length().bit_length() + 8)
    while True:
        out = ball_log(RealBall.exact(x), prec)
        if out.rad <= tol:
            return out
        prec *= 2


def _arch_local_height(P: PolyMap, alpha: Fraction, share: Fraction) -> LocalHeight:
    """lambda_inf(alpha) within ``share``, from a ball orbit on the grid 2^-w.

    At step k, with x = P^k(alpha) and |x| in [lo, hi], lambda_inf(alpha) lies
    in [0, (log r + c(r))/D^k] for r = max(R, hi), and once lo >= R also in
    (log|x| +- c(lo))/D^k.  The narrower of the two is kept.  When the orbit
    ball's radius, rather than the tail, keeps the enclosure above its share,
    the grid is refined and the orbit restarted.
    """
    D = P.degree
    R = P.escape_radius

    def tail(r: Fraction) -> Fraction:
        t = (R - 1) / r
        return t / ((1 - t) * (D - 1))

    inside_top = _log_within(R, share / 4).hi + tail(R)
    w = math.ceil(1 / share).bit_length() + 32
    while w <= _MAX_GRID_BITS:
        x = RealBall.exact(alpha)
        k, Dk = 0, 1
        while True:
            size = abs(x)
            lo, hi = size.lo, size.hi
            tol = share * Dk / 4
            escaped = lo >= R
            # one log of hi serves both bounds, and of lo too when lo = hi
            log_hi = _log_within(hi, tol) if escaped or hi > R else None
            top = inside_top if hi <= R else log_hi.hi + tail(hi)
            best = RealBall.from_endpoints(0, top / Dk)
            if escaped:
                log_lo = log_hi if lo == hi else _log_within(lo, tol)
                log_x = RealBall.from_endpoints(log_lo.lo, log_hi.hi)
                near = log_x.widen(tail(lo)) / Dk
                if near.rad < best.rad:
                    best = near
            if best.rad <= share:
                return LocalHeight("inf", k, escaped, best)
            if x.rad > 2 * tol * max(R, lo):
                break  # the rounding, not the tail, dominates: refine the grid
            x = P.poly.eval(x).round_to_grid(w)
            k, Dk = k + 1, Dk * D
        w *= 2
    raise ResourceGuardError(f"archimedean orbit needs a grid finer than 2^-{_MAX_GRID_BITS}")


def _padic_local_height(P: PolyMap, alpha: Fraction, p: int, e: int,
                        share: Fraction) -> LocalHeight:
    """lambda_p(alpha) within ``share`` at a prime p with e = v_p(delta) >= 1.

    The escape threshold is |x|_p > p^e at every such p (for p not dividing D
    it is ``boettcher.delta_v``).  The orbit runs in y = p^e x, a p-adic
    integer until escape, through Q(y) = p^(e(D-1)) y_next, whose
    coefficients are p-integral; modulo p^L a residue of valuation >= e(D-1)
    certifies no escape and leaves y_next modulo p^(L - e(D-1)).
    """
    D = P.degree
    m = -valuation(alpha, p) if alpha != 0 else 0
    if m > e:
        return LocalHeight(str(p), 0, True, _log_within(Fraction(p), share / m) * m)
    top = e * _log_within(Fraction(p), share).hi
    K, DK = 0, 1
    while top / DK > 2 * share:
        K, DK = K + 1, DK * D
    s = e * (D - 1)
    L = K * s
    mod = p ** L
    q = [residue(c * Fraction(p) ** (e * (D - j)), mod) for j, c in enumerate(P.poly.coeffs)]
    y = residue(alpha * p ** e, mod)
    for k in range(K):
        z = horner(q, y) % mod
        t = valuation(z, p) if z else L  # 0 < z < p^L, so v_p(z) < L
        if t < s:  # v_p(P^(k+1) alpha) = t - eD < -e: escaped, exactly
            m, Dk = e * D - t, D ** (k + 1)
            value = _log_within(Fraction(p), share * Dk / m) * Fraction(m, Dk)
            return LocalHeight(str(p), k + 1, True, value)
        L -= s
        mod = p ** L
        y = z // p ** s % mod
        q = [c % mod for c in q]
    return LocalHeight(str(p), K, False, RealBall.from_endpoints(0, top / DK))


class SnapReport(NamedTuple):
    """Factor-degree data of P^n(X) - P^n(alpha)."""

    alpha: Fraction
    n: int
    degree: int  # D^n
    value: Fraction  # P^n(alpha)
    multiset: tuple[int, ...]  # one degree entry per root (with multiplicity)
    squarefree: bool
    factor_report: FactorReport
    # how each tower piece was proven, in the order built: X - alpha, then the
    # factors h of Q_{beta_k} for k = 0..n-1.  A piece h(P^k(X)) holds one
    # ("fp", p, deg g) per Capelli link (none when k = 0), or
    # (("zassenhaus",),) when a link found no certificate and the piece was
    # factored whole.
    certificates: tuple[tuple[tuple, ...], ...]

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
        d^q <= (D^n)^p.  With b(x) the bit length of x, 2^(b(x)-1) <= x <
        2^b(x), so q b(d) <= p (b(D^n) - 1) proves it and q (b(d) - 1) >=
        p b(D^n) refutes it; only the degrees between form the powers.
        """
        delta = Fraction(delta)
        if delta <= 0:
            raise DomainError("delta must be positive")
        p, q = delta.numerator, delta.denominator
        top = self.degree.bit_length()

        def low(d: int) -> bool:
            if d == 1 or q * d.bit_length() <= p * (top - 1):
                return True
            if q * (d.bit_length() - 1) >= p * top:
                return False
            return d ** q <= self.degree ** p

        return Fraction(sum(m for d, m in Counter(self.multiset).items() if low(d)), self.degree)


# bits of P^k(alpha) (numerator plus denominator) at which snap stops
_ORBIT_BIT_CAP = 8_000_000


def snap_degree_multiset(P: PolyMap, alpha, n: int,
                         degree_cap: int = DEFAULT_DEGREE_CAP, seed: int = 0) -> SnapReport:
    """Degrees of the solutions of P^n(X) = P^n(alpha), one entry per root,
    factored piece by piece along the tower (see the module docstring)."""
    from .factorint.zassenhaus import FactorReport, factor_over_Q  # only snap factors

    if n < 1:
        raise DomainError("n must be >= 1")
    P.check_iterate_degree(n, degree_cap)
    alpha = Fraction(alpha)
    betas = [alpha]  # beta_k = P^k(alpha)
    for _ in range(n):
        v = P.eval(betas[-1])
        if v.numerator.bit_length() + v.denominator.bit_length() > _ORBIT_BIT_CAP:
            raise ResourceGuardError("orbit value size exceeds bit cap")
        betas.append(v)
    # the pieces are formed over Z when the map is, else over Q
    ring = IntPoly if all(c.denominator == 1 for c in P.poly.coeffs) else RatPoly
    Pr = ring(P.poly.coeffs)
    top = ring([0, 1])  # P^k(X)
    parts: dict[IntPoly, int] = {IntPoly([-alpha.numerator, alpha.denominator]): 1}
    certificates: list[tuple[tuple, ...]] = [()]
    for k, (beta, nxt) in enumerate(zip(betas, betas[1:])):
        q_beta, rem = (P.poly - nxt).divmod(RatPoly([-beta, 1]))
        if rem:
            raise DomainError("P(Y) - P(beta) is not divisible by Y - beta")
        for h, m in factor_over_Q(q_beta, seed)[1].factors:
            factors, links = _tower_piece(h, Pr, k, top, seed)
            for g, mg in factors:
                parts[g] = parts.get(g, 0) + mg * m
            certificates.append(links)
        if k < n - 1:
            top = Pr.compose(top)
    # the primitive part of P^n(X) - P^n(alpha), by the module docstring's proof
    rep = FactorReport.from_parts(1, 1, parts)
    entries: list[int] = []
    for f, m in rep.factors:
        entries.extend([f.degree] * (m * f.degree))
    entries.sort()
    return SnapReport(
        alpha=alpha,
        n=n,
        degree=P.degree ** n,
        value=betas[-1],
        multiset=tuple(entries),
        squarefree=rep.is_squarefree(),
        factor_report=rep,
        certificates=tuple(certificates),
    )


def _tower_piece(h: IntPoly, P, k: int, top, seed: int):
    """The irreducible factors of h(P^k(X)), top = P^k(X), with their
    certificate (see ``SnapReport.certificates``): the Capelli chain of its
    k links, or the piece factored whole when the chain breaks."""
    from .factorint.capelli import chain
    from .factorint.zassenhaus import factor_over_Z

    links = chain(h, P, k)
    piece = h.compose(top).to_int_primitive()[1]
    if len(links) == k:
        return ((piece, 1),), tuple(links)
    return factor_over_Z(piece, seed).factors, (("zassenhaus",),)


def irreducible_count(P: PolyMap, alpha, n: int,
                      degree_cap: int = DEFAULT_DEGREE_CAP, seed: int = 0) -> tuple[int, int]:
    """(distinct irreducible factors, count with multiplicity)."""
    rep = snap_degree_multiset(P, alpha, n, degree_cap, seed)
    return rep.distinct_factors, rep.with_multiplicity


def low_degree_proportion(P: PolyMap, alpha, n: int, delta,
                          degree_cap: int = DEFAULT_DEGREE_CAP, seed: int = 0) -> Fraction:
    """Exact share of roots of degree <= D^(delta n) among all D^n roots."""
    return snap_degree_multiset(P, alpha, n, degree_cap, seed).low_degree_share(delta)


class BoundedRegionReport(NamedTuple):
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
    from .boettcher import delta_exception_set, delta_v, good_place
    from .heights import rational_height

    alpha = Fraction(alpha)
    H = Fraction(rational_height(alpha))
    nontrivial = []
    prod = RealBall.exact(Fraction(1))
    for p in delta_exception_set(P):
        dv = delta_v(P, p)
        if dv.is_trivial():
            continue
        nontrivial.append(dv)
        prod = prod * dv.value_ball(prec)
    prod = prod * RealBall.exact(P.escape_radius)
    hb = RealBall.exact(H)
    if hb.gt(prod):
        exceeds = True
    elif hb.le(prod):
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
