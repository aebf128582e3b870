"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own algorithms: factor search by
exhaustive coefficient boxes with Mignotte-style bounds, naive multiplicative
orders by repeated multiplication, naive series arithmetic on full coefficient
dicts of Fractions (sum, product, reciprocal and root one coefficient at a
time, Lagrange inversion on untruncated powers: the reference for the integer
kernels of ``exactnum.series``), series composition on coefficient dicts by
geometric series (the reference for the Horner composition and the Lagrange
inversion of ``exactnum.series``), schoolbook polynomial arithmetic over Z/m
as the reference for the Kronecker and Newton kernels of ``factorint.modp``,
the schoolbook product over Z and Q as the reference for the signed Kronecker
kernel of ``exactnum.poly`` (and so for every polynomial and series product),
and mpmath's theta functions and q-Pochhammer symbol at 200 digits as the
reference for the lambda and discriminant enclosures of ``countkit.modular``,
the fixed-N theta sums and discriminant product (every term up to N, the tail
majorant at N) as the reference for the precision-driven stopping rule of
those enclosures, and the telescoped orbit heights h(P^n(alpha))/D^n (exact
orbit values of about D^n h(alpha) bits) as the reference for the local-height
canonical heights of ``dynamics``, the two cofactor systems of the one-step
height constant solved by Gauss-Jordan elimination as the reference for the
series reciprocal of ``dynamics.height_gap_constant``, the per-link Capelli
screen (each h(P^j(X)) formed and factored mod p, link by link) as the
reference for both kernels of ``factorint.capelli.chain``, and the expanded
P^n(X) - P^n(alpha) as the reference for the factorization
``dynamics.snap_degree_multiset`` proves level by level.  The slow paths of
the f* kernels are kept here as the references for their fast ones: the
psi Horner loop over ComplexBall for every w (the reference for the
real-axis loop of ``boettcher.psi_eval``), exp(x)(cos y + i sin y) with the
cosine and sine always taken (the reference for ``ball_cexp`` on the real
axis), and the search that computes E(rho) at every doubling of rho (the
reference for the radii ``boettcher_frame`` skips).  mpmath's interval
context (``MPIntervalContext``: each endpoint taken as a Fraction, rounded
outward once, and the context's exp, log, sqrt, sin, cos and pi) is the
reference for the libmp seam of the transcendental balls of ``exactnum.ball``,
with the box-to-disk radius of ``ComplexBall.from_real_pair`` taken on
Fractions.

The last section holds the small wrappers over the library that only the
tests use: a whole-census driver, the canonical-height ball alone, the
telescoped tail of the gap constant, a factor report's degree multiset, the
squared l2 norm, a sampled cover check and the power-lemma constant.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product

import mpmath
from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import from_rational, round_ceiling, round_floor, to_rational

from arithdyn.countkit.census import CensusResult, census_records, enumerate_rationals
from arithdyn.countkit.modular import ModularValue, _check_domain, _nome, _pow4
from arithdyn.countkit.powerlemma import power_lemma_min_X
from arithdyn.dynamics import GapConstant, canonical_height_stats, height_gap_constant
from arithdyn.errors import DomainError, ResourceGuardError
from arithdyn.boettcher import _MAX_DISTORTION, BoettcherFrame, _psi_tail, distortion_bound
from arithdyn.exactnum import (
    ComplexBall,
    IntPoly,
    RatPoly,
    RealBall,
    as_complex_ball,
    ball_exp,
    ball_log,
    ball_pi,
    rad_up,
    sqrt_up,
)
from arithdyn.exactnum.ball import ball_cos, ball_sin
from arithdyn.exactnum.series import TruncSeries
from arithdyn.factorint import modp
from arithdyn.factorint.zassenhaus import FactorReport, factor_over_Q
from arithdyn.factorint.capelli import _MAX_FACTOR_DEGREE, _PRIMES_PER_LINK
from arithdyn.ntheory import primes_from, residue
from arithdyn.polymap import DEFAULT_DEGREE_CAP, PolyMap

_ZERO = Fraction(0)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _mignotte_box(f: IntPoly, deg_g: int) -> int:
    l2 = math.isqrt(l2_norm_sq(f)) + 1
    return (1 << deg_g) * l2


def _try_divide(f: IntPoly, g: IntPoly) -> IntPoly | None:
    q, r = f.to_rat().divmod(g.to_rat())
    if not r.is_zero() or any(c.denominator != 1 for c in q.coeffs):
        return None
    return IntPoly(c.numerator for c in q.coeffs)


def _eval_filter(gv: int, fv: int) -> bool:
    """g | f forces g(t) | f(t); inconclusive (True) when f(t) == 0."""
    if fv == 0:
        return True
    return gv != 0 and fv % gv == 0


def find_factor_upto(f: IntPoly, max_deg: int) -> IntPoly | None:
    """Smallest-degree nontrivial factor of degree <= max_deg by box search."""
    n = f.degree
    f1 = f.eval(1)
    fm1 = f.eval(-1)
    for dg in range(1, min(max_deg, n - 1) + 1):
        lc_opts = _divisors(f.lead)
        if f[0] == 0:
            # X divides
            if dg == 1:
                return IntPoly([0, 1])
            continue
        c0_opts = [d for d in _divisors(f[0])]
        c0_signed = [s * d for d in c0_opts for s in (1, -1)]
        bound = _mignotte_box(f, dg)
        mid_range = range(-bound, bound + 1)
        for lc in lc_opts:
            for c0 in c0_signed:
                for mids in product(mid_range, repeat=dg - 1):
                    g = IntPoly([c0, *mids, lc])
                    if g.degree != dg:
                        continue
                    if not _eval_filter(g.eval(1), f1):
                        continue
                    if not _eval_filter(g.eval(-1), fm1):
                        continue
                    if _try_divide(f, g) is not None:
                        return g
    return None


def exhaustive_factorization(f: IntPoly) -> list[IntPoly]:
    """Full factorization by repeated ascending-degree box search.

    Complete: a reducible polynomial always has a factor of degree at most
    half its own, and the box bound covers every possible factor
    coefficient, so an exhausted search certifies irreducibility.
    """
    _, f = f.primitive()
    out = []
    while f.degree > 0:
        g = find_factor_upto(f, f.degree // 2)
        if g is None:
            out.append(f.primitive()[1])
            break
        _, gp = g.primitive()
        out.append(gp)
        f = f.exact_div(gp)
    return sorted(out, key=lambda p: (p.degree, p.coeffs))


def naive_order(a: int, n: int) -> int:
    """Multiplicative order by repeated multiplication."""
    a %= n
    x = a
    f = 1
    while x != 1:
        x = x * a % n
        f += 1
        if f > n:
            raise AssertionError("order exceeded modulus (non-unit?)")
    return f


def dict_series_mul(d1: dict[int, Fraction], d2: dict[int, Fraction]) -> dict[int, Fraction]:
    """Full (untruncated) Laurent convolution on coefficient dicts."""
    out: dict[int, Fraction] = {}
    for e1, c1 in d1.items():
        for e2, c2 in d2.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def dict_series_pow(d: dict[int, Fraction], k: int) -> dict[int, Fraction]:
    out = {0: Fraction(1)}
    for _ in range(k):
        out = dict_series_mul(out, d)
    return out


def dict_series_add(a: dict[int, Fraction], b: dict[int, Fraction],
                    floor: int) -> dict[int, Fraction]:
    """a + b on coefficient dicts, the exponents below ``floor`` dropped."""
    out = {e: a.get(e, _ZERO) + b.get(e, _ZERO) for e in set(a) | set(b) if e >= floor}
    return {e: c for e, c in out.items() if c != 0}


def dict_series_reciprocal(d: dict[int, Fraction], floor: int) -> dict[int, Fraction]:
    """1/s down to z^floor, one Fraction coefficient at a time from s * r = 1:
    the coefficient of z^(e + lead) of s * r is d[lead] r_e plus terms in the
    r_e' already known (e' > e)."""
    lead = max(d)
    r: dict[int, Fraction] = {}
    for e in range(-lead, floor - 1, -1):
        known = sum((c * r.get(e + lead - j, _ZERO) for j, c in d.items() if j < lead), _ZERO)
        r[e] = (int(e == -lead) - known) / d[lead]
    return {e: c for e, c in r.items() if c != 0}


def dict_series_root(d: dict[int, Fraction], D: int, floor: int) -> dict[int, Fraction]:
    """h = z + h_0 + h_-1/z + ... with h^D = s (s = z^D + ...) down to z^floor:
    h_e enters the coefficient of z^(D-1+e) of h^D as D h_e, beside full dict
    powers of the coefficients found before it."""
    h = {1: Fraction(1)}
    for e in range(0, floor - 1, -1):
        m = D - 1 + e
        h[e] = (d.get(m, _ZERO) - dict_series_pow(h, D).get(m, _ZERO)) / D
    return {e: c for e, c in h.items() if c != 0}


def dict_series_inverse(d: dict[int, Fraction], N: int) -> dict[int, Fraction]:
    """The compositional inverse of s = z + b_0 + ... certified down to z^-N,
    by Lagrange inversion on full (untruncated) dict powers: d_0 = -b_0 and
    d_k = -[z^-1](s^k) / k.  The coefficients of s below z^-N do not reach
    [z^-1](s^k) for k <= N."""
    out = {1: Fraction(1), 0: -d.get(0, _ZERO)}
    power = {0: Fraction(1)}
    for k in range(1, N + 1):
        power = dict_series_mul(power, d)
        out[-k] = -power.get(-1, _ZERO) / k
    return {e: c for e, c in out.items() if c != 0}


def _dict_mul(a: dict[int, Fraction], b: dict[int, Fraction], floor: int) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            if e >= floor:
                out[e] = out.get(e, _ZERO) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def _geometric_inverse(u: dict[int, Fraction], floor: int) -> dict[int, Fraction]:
    """(1 + u)^(-1) = sum (-u)^j, truncated below ``floor``; u has exponents < 0."""
    neg_u = {e: -c for e, c in u.items()}
    out = {0: Fraction(1)}
    term = {0: Fraction(1)}
    while True:
        term = _dict_mul(term, neg_u, floor)
        if not term:
            return out
        for e, c in term.items():
            out[e] = out.get(e, _ZERO) + c


def series_compose_poly(s: TruncSeries, p: RatPoly) -> TruncSeries:
    """s(p(z)) re-expanded in descending powers of z, certified tail included.

    Requires monic p of degree >= 2 and s with leading term z.  The result is
    certified down to exponent (s.cert_exp - 1) * deg(p) + 1.
    """
    if p.is_zero() or p.degree < 2 or not p.is_monic():
        raise DomainError("composition requires a monic polynomial of degree >= 2")
    if not s.has_lead_z():
        raise DomainError("composition requires a series with leading term z")
    D = p.degree
    target = (s.cert_exp - 1) * D + 1
    # u = p / z^D - 1, supported on exponents -1 .. -D (exact)
    u = {i - D: Fraction(p[i]) for i in range(D) if p[i] != 0}
    acc: dict[int, Fraction] = {}

    def add_into(d: dict[int, Fraction], c: Fraction):
        for e, v in d.items():
            if e >= target:
                acc[e] = acc.get(e, _ZERO) + c * v

    # nonnegative exponents of s: 1 and 0
    c1 = s.coefficient(1)
    add_into({i: Fraction(p[i]) for i in range(D + 1) if p[i] != 0}, c1)
    if s.cert_exp <= 0:
        c0 = s.coefficient(0)
        if c0 != 0:
            add_into({0: Fraction(1)}, c0)
    # negative exponents: c_{-k} * p^{-k} = c_{-k} z^{-kD} (1+u)^{-k}
    kmax = -s.cert_exp
    if kmax >= 1:
        inv1 = _geometric_inverse(u, target + D)
        w = dict(inv1)
        for k in range(1, kmax + 1):
            ck = s.coefficient(-k)
            if ck != 0:
                add_into({e - k * D: v for e, v in w.items()}, ck)
            if k < kmax:
                w = _dict_mul(w, inv1, target + (k + 1) * D)
    lead = D
    coeffs = [acc.get(e, _ZERO) for e in range(lead, target - 1, -1)]
    return TruncSeries(lead, coeffs)


def series_compose_series(outer: TruncSeries, inner: TruncSeries) -> TruncSeries:
    """outer(inner(z)) for inner with leading term z.

    Certified down to max(outer.cert_exp, inner.cert_exp).
    """
    if not inner.has_lead_z():
        raise DomainError("inner series must have leading term z")
    if not outer.has_lead_z():
        raise DomainError("outer series must have leading term z")
    target = max(outer.cert_exp, inner.cert_exp)
    inner_d = inner.as_dict()
    u = {e - 1: c for e, c in inner_d.items() if e != 1}  # inner/z - 1
    acc: dict[int, Fraction] = {}

    def add_into(d: dict[int, Fraction], c: Fraction):
        for e, v in d.items():
            if e >= target:
                acc[e] = acc.get(e, _ZERO) + c * v

    add_into(inner_d, outer.coefficient(1))
    if outer.cert_exp <= 0 and outer.coefficient(0) != 0:
        add_into({0: Fraction(1)}, outer.coefficient(0))
    kmax = -outer.cert_exp
    if kmax >= 1:
        inv1 = _geometric_inverse(u, target - 1)
        w = dict(inv1)
        for k in range(1, kmax + 1):
            ck = outer.coefficient(-k)
            if ck != 0:
                add_into({e - k: v for e, v in w.items()}, ck)
            if k < kmax:
                w = _dict_mul(w, inv1, target - 1 + k + 1)
    lead = max([1] + [e for e in acc])
    coeffs = [acc.get(e, _ZERO) for e in range(lead, target - 1, -1)]
    return TruncSeries(lead, coeffs)


def school_poly_mul(f: list, g: list) -> list:
    """f*g for nonempty coefficient lists over Z or Q by the schoolbook double
    loop: all len(f) + len(g) - 1 coefficients, trailing zeros kept."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def school_mul(f: list[int], g: list[int], m: int) -> list[int]:
    """f*g over Z/m by the schoolbook double loop (trimmed, reduced)."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    out = [c % m for c in out]
    while out and out[-1] == 0:
        out.pop()
    return out


def school_divmod(f: list[int], g: list[int], m: int) -> tuple[list[int], list[int]]:
    """Long division by a trimmed g whose leading coefficient is a unit mod m."""
    inv = pow(g[-1], -1, m)
    rem = [c % m for c in f]
    dg = len(g) - 1
    q = [0] * max(0, len(rem) - dg)
    for i in range(len(rem) - 1, dg - 1, -1):
        fac = rem[i] * inv % m
        q[i - dg] = fac
        for j, gc in enumerate(g):
            rem[i - dg + j] = (rem[i - dg + j] - fac * gc) % m
    for out in (q, rem):
        while out and out[-1] == 0:
            out.pop()
    return q, rem


def school_pow_mod(f: list[int], e: int, g: list[int], m: int) -> list[int]:
    """f**e mod g by square-and-multiply on the schoolbook kernels."""
    out = [1]
    base = school_divmod(f, g, m)[1]
    while e:
        if e & 1:
            out = school_divmod(school_mul(out, base, m), g, m)[1]
        base = school_divmod(school_mul(base, base, m), g, m)[1]
        e >>= 1
    return out


ORACLE_DPS = 200


def lambda_oracle(tau_re: Fraction, tau_im: Fraction) -> mpmath.mpc:
    """lambda(tau) = (theta_2 / theta_3)^4 at the nome exp(pi i tau), 200 digits."""
    with mpmath.workdps(ORACLE_DPS):
        tau = mpmath.mpc(mpmath.mpf(tau_re.numerator) / tau_re.denominator,
                         mpmath.mpf(tau_im.numerator) / tau_im.denominator)
        q = mpmath.exp(mpmath.pi * 1j * tau)
        return (mpmath.jtheta(2, 0, q) / mpmath.jtheta(3, 0, q)) ** 4


def delta_oracle(tau_re: Fraction, tau_im: Fraction) -> mpmath.mpc:
    """(2 pi)^12 q (q; q)_inf^24 at q = exp(2 pi i tau), 200 digits."""
    with mpmath.workdps(ORACLE_DPS):
        tau = mpmath.mpc(mpmath.mpf(tau_re.numerator) / tau_re.denominator,
                         mpmath.mpf(tau_im.numerator) / tau_im.denominator)
        q = mpmath.exp(2 * mpmath.pi * 1j * tau)
        return (2 * mpmath.pi) ** 12 * q * mpmath.qp(q) ** 24


def lambda_fixed_terms(tau: ComplexBall, N: int, prec: int) -> ModularValue:
    """lambda(tau) from exactly N theta terms in each sum, whatever the precision."""
    _check_domain(tau)
    q = _nome(tau, 1, prec)
    qa = q.abs_upper()
    if qa >= 1:
        raise DomainError("nome modulus not certified below 1")
    # A = sum_{n=0..N} q^(n^2+n), tail <= |q|^((N+1)(N+2)) / (1-|q|)
    # B = 1 + 2 sum_{n=1..N} q^(n^2), tail <= 2 |q|^((N+1)^2) / (1-|q|)
    work = prec + 32
    one = type(q).exact(1)
    q2 = (q * q).round_to(work)
    a = one  # n = 0 term
    cur = one
    step = one
    for n in range(1, N + 1):
        step = (step * q2).round_to(work)  # q^(2n)
        cur = (cur * step).round_to(work)  # q^(n^2+n)
        a = (a + cur).round_to(work)
    a_tail = rad_up(qa ** ((N + 1) * (N + 2)) / (1 - qa))
    a = a.widen(a_tail)
    b = one
    cur = one
    odd = q  # q^(2n-1), starting at n = 1
    for n in range(1, N + 1):
        cur = (cur * odd).round_to(work)  # q^(n^2) = q^((n-1)^2) * q^(2n-1)
        odd = (odd * q2).round_to(work)
        b = (b + 2 * cur).round_to(work)
    b_tail = rad_up(2 * qa ** ((N + 1) * (N + 1)) / (1 - qa))
    b = b.widen(b_tail)
    value = (16 * q * _pow4(a, work) / _pow4(b, work)).round_to(work)
    return ModularValue(as_complex_ball(value), N, a_tail + b_tail)


def delta_fixed_terms(tau: ComplexBall, N: int, prec: int) -> ModularValue:
    """The discriminant from exactly N factors of its product, with the tail
    growth e^t - 1 taken from a directed-rounding exp."""
    _check_domain(tau)
    q = _nome(tau, 2, prec)
    qa = q.abs_upper()
    if qa >= 1:
        raise DomainError("nome modulus not certified below 1")
    work = prec + 32
    one = type(q).exact(1)
    prod = one
    qn = one
    for n in range(1, N + 1):
        qn = (qn * q).round_to(work)
        term = one - qn
        t2 = (term * term).round_to(work)
        t4 = (t2 * t2).round_to(work)
        t8 = (t4 * t4).round_to(work)
        prod = (prod * t8 * t8 * t8).round_to(work)
    # |log prod_{n>N} (1-q^n)^24| <= 24 sum_{n>N} |q|^n/(1-|q|) <= t below
    t = 24 * qa ** (N + 1) / (1 - qa) ** 2
    growth = ball_exp(RealBall.exact(t), prec).hi - 1
    tail = rad_up(prod.abs_upper() * growth)
    prod = prod.widen(tail)
    factor = (ball_pi(prec) * 2) ** 12
    value = (prod * q * factor).round_to(work)
    return ModularValue(as_complex_ball(value), N, tail)


def psi_complex_loop(frame: BoettcherFrame, w: ComplexBall, prec: int = 128) -> ComplexBall:
    """psi(w) (|w| >= 6 rho) by the Horner loop over ComplexBall, whatever w is."""
    tail = _psi_tail(frame, w)
    work = prec + 32
    inv = w.inverse().round_to(work)
    acc = ComplexBall.exact(0)
    for d in reversed(frame.psi):
        acc = (acc * inv + as_complex_ball(d)).round_to(work)
    return (w + acc).widen(tail)


def cexp_by_cos_sin(z: ComplexBall, prec: int) -> ComplexBall:
    """exp(z) as exp(x)(cos y + i sin y), with the growth term e^r - 1, the
    cosine and sine taken at every y."""
    ex = ball_exp(RealBall.exact(z.re), prec)
    cy = ball_cos(RealBall.exact(z.im), prec)
    sy = ball_sin(RealBall.exact(z.im), prec)
    centre = ComplexBall.from_real_pair(ex * cy, ex * sy)
    if z.rad == 0:
        return centre
    return centre.widen(ex.hi * (ball_exp(RealBall.exact(z.rad), prec).hi - 1))


def frame_radius_by_full_search(P: PolyMap, prec: int = 96) -> tuple[Fraction, Fraction]:
    """(rho, E(rho)) for a map that is not a power map: the first rho = 2^j 2R
    with E(rho) <= 1/8, computing E at every rho."""
    rho = 2 * P.escape_radius
    while (E := distortion_bound(P, rho, prec)) > _MAX_DISTORTION:
        rho *= 2
    return rho, E


def mpf_fraction(x: mpmath.mpf) -> Fraction:
    """The exact value of a finite mpf."""
    sign, man, exp, _ = x._mpf_
    v = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -v if sign else v


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


def telescoped_height_stats(P: PolyMap, alpha, eps, prec: int = 0,
                           max_n: int = 256, bit_cap: int = 8_000_000) -> OrbitStats:
    """Ball of radius <= eps around the canonical height of a rational point,
    from h(P^n(alpha))/D^n and the telescoped gap-constant tail."""
    eps = Fraction(eps)
    if eps <= 0:
        raise DomainError("eps must be positive")
    alpha = Fraction(alpha)
    D = P.degree
    gc = height_gap_constant(P)
    half = eps / 2
    n = 0
    while gap_tail_bound(gc, n) > half:
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
    tail = gap_tail_bound(gc, n)
    canonical = RealBall(log_ball.mid / D ** n, log_ball.rad / D ** n + tail)
    return OrbitStats(alpha, n, tuple(heights), canonical, gc.gap(max(prec, 64)))



def _solve_by_elimination(mat: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """The solution of a square nonsingular system, by Gauss-Jordan elimination."""
    n = len(mat)
    m = [list(row) + [rhs[i]] for i, row in enumerate(mat)]
    for c in range(n):
        pivot = next(i for i in range(c, n) if m[i][c] != 0)
        m[c], m[pivot] = m[pivot], m[c]
        pv = m[c][c]
        m[c] = [x / pv if x else x for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y if y else x for x, y in zip(m[i], m[c])]
    return [row[n] for row in m]


def gap_constant_by_elimination(P: PolyMap) -> tuple[int, int, int]:
    """(one_step_arg, X length, Y length) of the one-step height constant,
    from the cofactor identities A N + B M = X^(2D-1) and A' N + B' M =
    Y^(2D-1) solved as two full 2D x 2D linear systems.  N and M = delta Y^D
    are the forms of P on P^1, and a length is the sum of the absolute values
    of the cofactor coefficients over their least common denominator."""
    D = P.degree
    a = P.lower_coefficients()
    delta = math.lcm(*(c.denominator for c in a))
    A = [c * delta for c in a]
    upper_arg = delta + sum(abs(x.numerator) for x in A)
    N = [int(A[D - 1 - j]) if j < D else delta for j in range(D + 1)]
    lengths = []
    for rhs_row in (2 * D - 1, 0):
        # row k is the monomial X^k Y^(2D-1-k); columns are A_0..A_(D-1), B_0..B_(D-1)
        mat = [[Fraction(0)] * (2 * D) for _ in range(2 * D)]
        for i in range(D):
            for j in range(D + 1):
                mat[i + j][i] += N[j]
            mat[i][D + i] += delta
        w = _solve_by_elimination(mat, [Fraction(int(k == rhs_row)) for k in range(2 * D)])
        lcm = math.lcm(*(x.denominator for x in w))
        ints = [int(x * lcm) for x in w]
        g = math.gcd(lcm, *(abs(v) for v in ints)) or 1
        lengths.append(sum(abs(v) for v in ints) // g)
    return max(upper_arg, *lengths), lengths[0], lengths[1]


# --- the per-link Capelli screen ---------------------------------------------


def compose_irreducible(f: IntPoly, P) -> tuple[str, int, int] | None:
    """``("fp", p, deg g)`` proving f(P(X)) irreducible over Q, or None.

    f must be primitive and irreducible over Q, P (an IntPoly or RatPoly)
    monic.  None proves nothing: f(P(X)) may still be irreducible.
    """
    if P.lead != 1:
        raise DomainError("Capelli certificate needs a monic inner polynomial")
    coeffs = [Fraction(c) for c in P.coeffs]
    den = math.lcm(*(c.denominator for c in coeffs))
    for p in islice(primes_from(3), _PRIMES_PER_LINK):
        if f.lead % p == 0 or den % p == 0:
            continue
        fp = modp.monic(modp.from_int_poly(f.coeffs, p), p)
        if not modp.is_squarefree(fp, p):
            continue
        Pp = [residue(c, p) for c in coeffs]
        for prod, d in modp.distinct_degree(fp, p, _MAX_FACTOR_DEGREE):
            if _some_factor_certifies(prod, d, Pp, p):
                return ("fp", p, d)
    return None


def _some_factor_certifies(prod, d: int, P, p) -> bool:
    """Whether g(P(X)) is irreducible over F_p for some irreducible factor g
    of prod, a product of distinct monic irreducibles of degree d.

    For P = X^2 + bX + c, with theta a root of g, P(X) - theta is irreducible
    over F_p(theta) = F_(p^d) iff its discriminant b^2 - 4c + 4 theta is a
    non-square there (Euler's criterion).  So the factors that certify are
    those of gcd(prod, (4x + b^2 - 4c)^((p^d - 1)/2) + 1), and none need be
    split off.
    """
    if len(P) == 3:
        c, b = P[0], P[1]
        w = modp.pow_mod([(b * b - 4 * c) % p, 4], (p ** d - 1) // 2, modp.Modulus(prod, p))
        return len(modp.gcd(modp.add(w, [1], p), prod, p)) > 1
    rng = random.Random(p)
    return any(modp.is_irreducible(modp.compose(g, P, p), p)
               for g in modp.equal_degree_split(prod, d, p, rng))


def per_link_chain(h: IntPoly, P, k: int):
    """``compose_irreducible`` on each h(P^j(X)), j < k, up to the first
    link it refuses."""
    links, f = [], h
    for _ in range(k):
        cert = compose_irreducible(f, P)
        if cert is None:
            break
        links.append(cert)
        f = f.compose(P).to_int_primitive()[1]
    return links


def tower_chains(P: PolyMap, alpha, n: int):
    """(h, k) for each piece h(P^k(X)) of P^n(X) - P^n(alpha), k >= 1."""
    beta = Fraction(alpha)
    for k in range(n):
        nxt = P.eval(beta)
        q_beta = (P.poly - nxt).divmod(RatPoly([-beta, 1]))[0]
        if k:
            yield from ((h, k) for h, _ in factor_over_Q(q_beta)[1].factors)
        beta = nxt


# --- the tower identity ------------------------------------------------------


def tower_identity(P: PolyMap, alpha, n: int, report,
                   degree_cap: int = DEFAULT_DEGREE_CAP) -> None:
    """Raise AssertionError unless a ``snap_degree_multiset`` report's factors
    rebuild the primitive part of P^n(X) - P^n(alpha), expanded here whole
    (under the same degree cap) and evaluated at alpha for P^n(alpha)."""
    top = P.iterate_poly(n, degree_cap)
    value = top.eval(Fraction(alpha))
    if report.value != value:
        raise AssertionError(f"snap reports P^{n}({alpha}) = {report.value}, not {value}")
    if report.factor_report.reconstruct() != (top - value).to_int_primitive()[1]:
        raise AssertionError(f"snap's factors of P^{n}(X) - P^{n}({alpha}) do not rebuild it "
                             f"(P = {P})")


# --- the transcendental balls through mpmath's interval context ------------


@functools.lru_cache(maxsize=32)
def _iv_context(prec: int) -> MPIntervalContext:
    c = MPIntervalContext()
    c.prec = max(8, int(prec))
    return c


def _iv_ball(x) -> RealBall:
    """The exact ball [a, b] of an interval-context value."""
    a, b = (Fraction(*to_rational(t)) for t in x._mpi_)
    return RealBall.from_endpoints(a, b)


def _iv_apply(fname: str, x: RealBall, prec: int) -> RealBall:
    """The context's function on [x.lo, x.hi], each endpoint rounded outward once."""
    ctx = _iv_context(prec)
    lo, hi = x.lo, x.hi
    u = ctx.make_mpf((from_rational(lo.numerator, lo.denominator, ctx.prec, round_floor),
                      from_rational(hi.numerator, hi.denominator, ctx.prec, round_ceiling)))
    return _iv_ball(getattr(ctx, fname)(u))


def iv_exp(x: RealBall, prec: int) -> RealBall:
    return _iv_apply("exp", x, prec)


def iv_sin(x: RealBall, prec: int) -> RealBall:
    return _iv_apply("sin", x, prec)


def iv_cos(x: RealBall, prec: int) -> RealBall:
    return _iv_apply("cos", x, prec)


def iv_log(x: RealBall, prec: int) -> RealBall:
    if x.lo <= 0:
        raise DomainError("log of interval touching (-inf, 0]")
    return _iv_apply("log", x, prec)


def iv_sqrt(x: RealBall, prec: int) -> RealBall:
    if x.lo < 0:
        raise DomainError("sqrt of interval reaching below 0")
    return _iv_apply("sqrt", x, prec)


def iv_pi(prec: int) -> RealBall:
    return _iv_ball(+_iv_context(prec).pi)


def iv_root(x: RealBall, k: int, prec: int) -> RealBall:
    """The positive k-th root (k >= 2): the square root, or exp(log(x)/k)."""
    return iv_sqrt(x, prec) if k == 2 else iv_exp(iv_log(x, prec) / k, prec)


def iv_cexp(z: ComplexBall, prec: int) -> ComplexBall:
    """exp(z) as ``ball_cexp`` takes it, with the interval-context kernels and
    the box-to-disk radius taken on Fractions."""
    ex = iv_exp(RealBall.exact(z.re), prec)
    if z.im == 0:
        centre = as_complex_ball(ex)
    else:
        x = ex * iv_cos(RealBall.exact(z.im), prec)
        y = ex * iv_sin(RealBall.exact(z.im), prec)
        centre = ComplexBall(x.mid, y.mid, sqrt_up(x.rad * x.rad + y.rad * y.rad))
    if z.rad == 0:
        return centre
    return centre.widen(ex.hi * (iv_exp(RealBall.exact(z.rad), prec).hi - 1))


# --- test-only wrappers over the library -------------------------------------


def census(evaluator, H, precision: int = 128, escalations: int = 1) -> CensusResult:
    """Classify f(q) for every height-bounded rational q in (0,1).

    Per-point undecided verdicts escalate the working precision (x4 each
    time, up to ``escalations`` retries) and are reported as
    undecided-at-precision, with the last ball and the precision it was
    taken at, if still unresolved, never dropped.  An evaluator
    built by ``make_evaluator(..., precision=precision)`` raises its lambda or
    delta term cap with each escalation.
    """
    H = Fraction(H)
    records = census_records(evaluator, enumerate_rationals(H), H, precision, escalations)
    return CensusResult(H, precision, tuple(records))


def canonical_height(P: PolyMap, alpha, eps, prec: int = 0) -> RealBall:
    return canonical_height_stats(P, alpha, eps, prec).canonical


def gap_tail_bound(gc: GapConstant, n: int, prec: int = 64) -> Fraction:
    """Upper bound for |hhat - h(P^n . )/D^n| (exact rational)."""
    return gc.one_step(prec).hi / (gc.degree ** n * (gc.degree - 1))


def degree_multiset(rep: FactorReport) -> list[tuple[int, int]]:
    """Sorted (degree, multiplicity) pairs, multiplicities aggregated."""
    agg: dict[int, int] = {}
    for f, m in rep.factors:
        agg[f.degree] = agg.get(f.degree, 0) + m
    return sorted(agg.items())


def l2_norm_sq(f: IntPoly) -> int:
    return sum(c * c for c in f.coeffs)


def covers_sample(centers, r, points) -> bool:
    """Exact verification that every sample point lies in some disk."""
    r = Fraction(r)
    r2 = r * r
    for x, y in points:
        x, y = Fraction(x), Fraction(y)
        if not any((x - cx) ** 2 + (y - cy) ** 2 <= r2 for cx, cy in centers):
            return False
    return True


def construction_coefficient_power(c, M_max: int, theta: int = 2) -> Fraction:
    """max over M <= M_max of M^theta / X_min(M)^(theta-1), exact.

    For integer theta this is the theta-th power of the constant c_theta
    extracted from the construction: M <= c_theta * X^(1 - 1/theta) holds
    for every admissible configuration iff M^theta <= c_theta^theta X^(theta-1).
    """
    theta = int(theta)
    best = Fraction(0)
    for M in range(1, M_max + 1):
        X = power_lemma_min_X(M, c, theta).X_min
        best = max(best, Fraction(M ** theta, X ** (theta - 1)))
    return best
