"""Conjugacy-at-infinity series, its inverse, pullback evaluation, and the
nonarchimedean escape thresholds with the good-place search.

For a monic degree-D map P there is a unique formal series
phi(z) = z + b0 + b1/z + b2/z^2 + ... with phi(P(z)) = phi(z)^D.  It is
the fixed point of phi <- (phi o P)^(1/D) (the D-th root with leading term
z): if phi is exact down to z^c, then phi o P is exact down to z^((c-1)D+1)
and its root down to z^((c-2)D+2), so from phi = z (c = 1) each step
multiplies 2 - c by D.  The same function is analytic for |z| beyond the
escape radius, and the telescoping product representation

    phi(z) = z * prod_k ( P^k(z) / P^(k-1)(z)^D )^(D^-k)

yields, for |z| >= rho >= 2R with R = 1 + sum|a_i|, a certified distortion
bound E(rho) with |phi(z)/z - 1| <= E.  Cauchy coefficient estimates then
give |b_k| <= E rho^(k+1), and on |w| >= 3 rho the compositional inverse is
analytic with |psi(w) - w| <= E/(1-E) |w|, giving |d_k| <= E/(1-E) (3rho)^(k+1).
These explicit constants drive all truncation-error bookkeeping below; pure
power maps have E = 0 and everything is exact.

``boettcher_frame`` doubles rho from 2R until E(rho) <= 1/8.  Every term of
the telescoping bound is >= 0, so E(rho) >= -log(1 - eps_1)/D >=
(eps_1 + eps_1^2/2)/D with eps_1 = (R - 1)/rho: a rho at which that lower
bound already exceeds 1/8 is skipped without computing E(rho), and the rho
and E returned are the ones the full search finds.

f*(tau) = 1/psi(phi(alpha) exp(-2 pi i (tau - i/24))) takes phi(alpha) and
pi once per (map, alpha, order, precision) (``fstar_constants``), so a
census of many tau computes them once per precision.  Each point then takes
|w|'s lower bound and the psi tail once.  On the real axis of w (tau
exactly on the imaginary axis, as for the census pullback i(1+q)/(1-q)),
the exponential is exp of a real ball, with no cosine or sine, and the
psi coefficients d_k are rational, so ``psi_eval`` runs its Horner loop
over RealBall whenever 1/w, rounded, is exactly real.  For a real point
the ComplexBall product's and rounding's moduli are exact, so both loops
give the same midpoint and radius bit for bit; any other w takes the loop
over ComplexBall.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, ResourceGuardError
from .exactnum import ComplexBall, RealBall, ball_cexp, ball_exp, ball_log, ball_pi, ball_root, rad_up
from .exactnum.poly import horner
from .exactnum.series import (
    TruncSeries,
    series_compose_poly,
    series_inverse,
    series_power,
    series_root,
)
from .ntheory import is_prime, prime_divisors, valuation
from .polymap import PolyMap

_ONE = Fraction(1)
_DISTORTION_TERMS = 8  # terms of the telescoping product in distortion_bound
_MAX_DISTORTION = Fraction(1, 8)  # boettcher_frame doubles rho until E(rho) is this small
# the largest series order: the solve's cost grows about fourfold per
# doubling of N (X^2+1 at N = 400 took 0.30 s, X^3+X+1 at N = 256 0.25 s,
# and fstar X^2+1 at N = 256 0.5 s, CPython 3.11 on a 2-core host)
_MAX_ORDER = 256
# the largest Im tau of fstar: |w| grows as exp(2 pi Im tau), and the psi
# tail as its -(N+1)-th power, about 9.06 (N+1) Im tau bits.  At the default
# N = 16, Im tau = 2000 prints a 93,000-character psi_tail in 0.4 s, and the
# work grows without bound past it (Im tau = 10^4 took 5 s, 3 * 10^4 43 s).
# A higher N reaches a given tail size at a lower Im tau: ``fstar_eval``'s
# ``tail_bits_cap`` refuses such a point before the psi sum.  The census
# pullback i(1+q)/(1-q) stays below 2H - 1 <= 893.
_MAX_TAU_IM = 2000


class BoettcherSeries(NamedTuple):
    """Exact truncated conjugacy series phi for a monic map."""

    map: PolyMap
    phi: TruncSeries
    order: int  # coefficients b_0 .. b_order are certified

    def b(self, k: int) -> Fraction:
        """Coefficient of z^(-k) (k = 0 gives the constant term)."""
        return self.phi.coefficient(-k)


def boettcher_series(P: PolyMap, N: int) -> BoettcherSeries:
    """Solve phi(P(z)) = phi(z)^D for the exact coefficients b_0..b_N by the
    fixed point phi <- (phi o P)^(1/D), starting from phi = z."""
    if N < 1:
        raise DomainError("series order must be >= 1")
    if N > _MAX_ORDER:
        raise ResourceGuardError(f"series order {N} exceeds cap {_MAX_ORDER}")
    D = P.degree
    # the largest c with (c - 2) D + 2 <= -N: one step from phi exact down
    # to z^need reaches z^-N, so deeper terms are dropped before the last step
    need = 2 + (-N - 2) // D
    phi = TruncSeries.identity(1)
    while phi.cert_exp > -N:
        phi = phi.truncate(max(phi.cert_exp, need))
        phi = series_root(series_compose_poly(phi, P.poly), D)
    phi = phi.truncate(-N)
    resid = series_compose_poly(phi, P.poly) - series_power(phi, D)
    floor = max(resid.cert_exp, D - 1 - N)
    for e in range(D, floor - 1, -1):
        if resid.coefficient(e) != 0:
            raise DomainError("functional-equation residual nonzero (solver bug)")
    return BoettcherSeries(P, phi, N)


def distortion_bound(P: PolyMap, rho: Fraction, prec: int = 96) -> Fraction:
    """Upper bound E with |phi(z)/z - 1| <= E for all |z| >= rho (rho >= 2R)."""
    R = P.escape_radius
    if rho < 2 * R:
        raise DomainError("distortion bound requires rho >= 2R")
    if R == 1:
        return Fraction(0)
    D = P.degree
    total = RealBall.exact(0)
    eps_next = None
    for k in range(1, _DISTORTION_TERMS + 2):
        den = max(rho, (rho / 2) ** (D ** (k - 1)))
        eps = (R - 1) / den
        if eps >= 1:
            raise DomainError("distortion series diverges at this radius")
        if k <= _DISTORTION_TERMS:
            term = -ball_log(RealBall.exact(1 - eps), prec)
            total = total + term * Fraction(1, D ** k)
        else:
            eps_next = eps
    tail = (-ball_log(RealBall.exact(1 - eps_next), prec)
            * Fraction(1, D ** _DISTORTION_TERMS * (D - 1)))
    e_ball = ball_exp(total + tail, prec) - 1
    return max(Fraction(0), e_ball.hi)


class BoettcherFrame(NamedTuple):
    """Everything needed to evaluate phi and psi with certified tails."""

    map: PolyMap
    series: BoettcherSeries
    psi: tuple[RealBall, ...]  # d_0 .. d_N, the coefficient of w^-k as an exact ball
    rho: Fraction  # working radius, >= 2R
    distortion: Fraction  # E(rho) upper bound; 0 for pure power maps


def boettcher_frame(P: PolyMap, N: int, prec: int = 96) -> BoettcherFrame:
    B = boettcher_series(P, N)
    inverse = series_inverse(B.phi)
    psi = tuple(RealBall.exact(inverse.coefficient(-k)) for k in range(N + 1))
    rho = 2 * P.escape_radius
    D = P.degree
    while True:
        eps = (P.escape_radius - 1) / rho
        # E(rho) >= (eps + eps^2/2)/D (module docstring): past 1/8, skip this rho
        if (eps + eps * eps / 2) / D <= _MAX_DISTORTION:
            E = distortion_bound(P, rho, prec)
            if E <= _MAX_DISTORTION:
                return BoettcherFrame(P, B, psi, rho, E)
        rho *= 2


def _phi_tail(frame: BoettcherFrame, mod_lower: Fraction) -> Fraction:
    """Tail bound for phi evaluation truncated after b_N, |z| >= mod_lower >= 2 rho."""
    E, rho, N = frame.distortion, frame.rho, frame.series.order
    if E == 0:
        return Fraction(0)
    ratio = rho / mod_lower
    return E * rho * ratio ** (N + 1) / (1 - ratio)


def _psi_tail(frame: BoettcherFrame, w: ComplexBall, tail_bits_cap: int | None = None) -> Fraction:
    """Tail bound for psi(w) truncated after d_N; w must have |w| >= 6 rho.

    With ``tail_bits_cap``, a tail t whose rounding ``rad_up(t)`` certainly
    has a denominator above 2^tail_bits_cap raises ResourceGuardError before
    the exact power is formed.  That denominator is 2^e with e >= log2(1/t) - 2
    (``rad_up`` keeps at most 33 significant bits), and
    log2(1/t) > (N + 1) * (bits of 1/ratio, rounded down) - (bits of scale,
    rounded up), read off bit lengths.
    """
    E, N = frame.distortion, frame.series.order
    if E == 0:
        return Fraction(0)
    lo = w.abs_lower()
    if lo < 6 * frame.rho:
        raise DomainError(f"psi evaluation requires |w| >= {6 * frame.rho}")
    three_rho = 3 * frame.rho
    ratio = three_rho / lo
    scale = (E / (1 - E)) * three_rho / (1 - ratio)
    if tail_bits_cap is not None:
        inv_bits = ratio.denominator.bit_length() - ratio.numerator.bit_length() - 1
        scale_bits = scale.numerator.bit_length() - scale.denominator.bit_length() + 1
        if (N + 1) * inv_bits - scale_bits - 2 > tail_bits_cap:
            raise ResourceGuardError(
                f"fstar: the psi tail at order {N} needs a denominator above 2^{tail_bits_cap}"
            )
    return scale * ratio ** (N + 1)


def phi_eval(frame: BoettcherFrame, alpha) -> ComplexBall:
    """Certified phi(alpha) for an exact rational alpha with |alpha| >= 2 rho
    (any nonzero alpha for a pure power map)."""
    alpha = Fraction(alpha)
    if alpha == 0:
        raise DomainError("phi is not defined at 0")
    if frame.distortion == 0:
        # pure power map: phi is exactly the identity
        return ComplexBall.exact(alpha)
    if abs(alpha) < 2 * frame.rho:
        raise DomainError(f"phi evaluation requires |alpha| >= {2 * frame.rho}")
    # sum_{k=0..N} b_k alpha^(-k), exact
    phi = frame.series.phi
    val = alpha + horner([phi.coefficient(-k) for k in range(frame.series.order + 1)], 1 / alpha)
    return ComplexBall(val, 0, _phi_tail(frame, abs(alpha)))


def psi_eval(frame: BoettcherFrame, w: ComplexBall, prec: int = 128,
             tail: Fraction | None = None) -> ComplexBall:
    """Certified psi(w) for a complex ball with |w| >= 6 rho (any w != 0 for
    pure power maps, where psi is the identity).  ``tail``, if given, is
    ``_psi_tail(frame, w)``, taken once by a caller that also reports it.
    The Horner loop runs over RealBall when 1/w, rounded, is exactly real."""
    if frame.distortion == 0:
        return w
    if tail is None:
        tail = _psi_tail(frame, w)
    work = prec + 32
    inv = w.inverse().round_to(work)
    u = inv.real if inv.im == 0 else inv
    acc = type(u).exact(0)
    for d in reversed(frame.psi):
        acc = (acc * u + d).round_to(work)
    return (w + acc).widen(tail)


class FStarResult(NamedTuple):
    value: ComplexBall
    phi_tail: Fraction
    psi_tail: Fraction  # rounded up to a short dyadic, as radii are
    rho: Fraction
    distortion: Fraction


class FStarConstants(NamedTuple):
    """What f* takes once per (map, alpha, order, precision), for any tau."""

    frame: BoettcherFrame
    phi_alpha: ComplexBall  # phi(alpha), rounded to prec + 32 bits
    pi: RealBall


def fstar_constants(P: PolyMap, alpha, N: int = 16, prec: int = 128) -> FStarConstants:
    """The Boettcher frame, phi(alpha) and pi of ``fstar_eval``; a caller
    that evaluates many points builds them once."""
    frame = boettcher_frame(P, N, prec)
    alpha = Fraction(alpha)
    if frame.distortion != 0 and abs(alpha) < 7 * frame.rho:
        raise DomainError(
            f"evaluation domain requires |alpha| >= {7 * frame.rho} for this map"
        )
    return FStarConstants(frame, phi_eval(frame, alpha).round_to(prec + 32), ball_pi(prec))


def fstar_eval(P: PolyMap, alpha, tau: ComplexBall, N: int = 16, prec: int = 128,
               constants: FStarConstants | None = None,
               tail_bits_cap: int | None = None) -> FStarResult:
    """Certified value of the escape-parametrized root function

        f(tau) = 1 / psi( phi(alpha) * exp(-2 pi i (tau - i/24)) )

    on the strip Im tau >= 1/24, |Re tau| <= 1/2.  The reciprocal of f at
    tau = k/D^n + i/24 runs through the solutions of P^n(X) = P^n(alpha).
    ``constants``, if given, is ``fstar_constants(P, alpha, N, prec)``, built
    once by a caller that evaluates many points.  ``tail_bits_cap`` is
    ``_psi_tail``'s: a caller that prints the psi tail in full passes it.
    """
    if tau.im + tau.rad > _MAX_TAU_IM:
        raise ResourceGuardError(f"fstar: Im tau above {_MAX_TAU_IM}")
    if not (tau.im - tau.rad >= Fraction(1, 24)):
        raise DomainError("tau must satisfy Im tau >= 1/24 (certified)")
    if not (abs(tau.re) + tau.rad <= Fraction(1, 2)):
        raise DomainError("tau must satisfy |Re tau| <= 1/2 (certified)")
    if constants is None:
        constants = fstar_constants(P, alpha, N, prec)
    frame, phi_a, pi_b = constants
    # exp(-2 pi i (tau - i/24)) = exp( (2 pi (Im tau - 1/24)) - 2 pi i Re tau )
    re_part = pi_b * (tau.imag * 2 - Fraction(1, 12))
    im_part = pi_b * tau.real * (-2)
    factor = ball_cexp(ComplexBall.from_real_pair(re_part, im_part), prec)
    w = (phi_a * factor).round_to(prec + 32)
    tail = _psi_tail(frame, w, tail_bits_cap)
    psi_w = psi_eval(frame, w, prec, tail)
    return FStarResult(psi_w.inverse(), phi_a.rad, rad_up(tail), frame.rho, frame.distortion)


def padic_abs(x: Fraction, p: int) -> Fraction:
    """|x|_p with the normalization |p|_p = 1/p."""
    x = Fraction(x)
    if x == 0:
        return Fraction(0)
    return Fraction(p) ** -valuation(x, p)


class DeltaV(NamedTuple):
    """Escape threshold at one place.

    For p not dividing D the threshold is rational and stored in ``exact``.
    For p | D it involves p^(1/(p-1)); its (p-1)-th power is rational and is
    stored in ``power`` (with ``power_exponent`` = p-1), so comparisons stay
    exact.  The archimedean surrogate (prime None) stores the escape radius.
    """

    prime: int | None
    exact: Fraction | None = None
    power: Fraction | None = None
    power_exponent: int | None = None

    def is_trivial(self) -> bool:
        if self.exact is not None:
            return self.exact == 1
        return self.power == 1

    def exceeded_by(self, x: Fraction) -> bool:
        """Exact test |x|_v > delta_v."""
        if self.prime is None:
            return abs(Fraction(x)) > self.exact
        ax = padic_abs(x, self.prime)
        if self.exact is not None:
            return ax > self.exact
        return ax ** self.power_exponent > self.power

    def value_ball(self, prec: int = 96) -> RealBall:
        if self.exact is not None:
            return RealBall.exact(self.exact)
        return ball_root(RealBall.exact(self.power), self.power_exponent, prec)


def delta_v(P: PolyMap, p: int) -> DeltaV:
    """Exact escape threshold at the prime p (both divisibility branches)."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    D = P.degree
    coeff_max = max([_ONE] + [padic_abs(c, p) for c in P.lower_coefficients() if c != 0])
    if D % p != 0:
        return DeltaV(p, exact=coeff_max)
    abs_D = padic_abs(Fraction(D), p)
    power = coeff_max ** (p - 1) * p / abs_D ** (p - 1)
    if p == 2:
        return DeltaV(p, exact=power, power=power, power_exponent=1)
    return DeltaV(p, power=power, power_exponent=p - 1)


def delta_exception_set(P: PolyMap) -> list[int]:
    """Primes where delta_v can exceed 1: divisors of D and of coefficient
    denominators."""
    primes = set(prime_divisors(P.degree))
    for c in P.lower_coefficients():
        primes.update(prime_divisors(c.denominator))
    return sorted(primes)


class PlaceReport(NamedTuple):
    """A place where |alpha|_v certifiably exceeds the escape threshold."""

    prime: int | None  # None = archimedean
    abs_value: Fraction
    delta: DeltaV
    margin: RealBall  # |alpha|_v / delta_v, > 1


def good_place(P: PolyMap, alpha) -> PlaceReport | None:
    """First place with |alpha|_v > delta_v: primes dividing denominator(alpha)
    in increasing order, then the archimedean escape-radius surrogate."""
    alpha = Fraction(alpha)
    if alpha == 0:
        return None
    for p in prime_divisors(alpha.denominator):
        dv = delta_v(P, p)
        if dv.exceeded_by(alpha):
            av = padic_abs(alpha, p)
            margin = RealBall.exact(av) / dv.value_ball()
            return PlaceReport(p, av, dv, margin)
    arch = P.escape_radius
    if abs(alpha) > arch:
        dv = DeltaV(None, exact=arch)
        return PlaceReport(None, abs(alpha), dv, RealBall.exact(abs(alpha) / arch))
    return None
