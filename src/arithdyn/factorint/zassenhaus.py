"""Complete factorization of univariate integer polynomials into irreducibles.

Pipeline: content/sign normalization, then a Zassenhaus round, whose first
prime p not dividing lc(f) with f mod p squarefree also certifies f
squarefree; only without one among the first primes does Yun's
decomposition over Q run, and each of its parts gets a round of its own.
In a round, small primes are screened by distinct-degree factorization
alone (factor count, realizable degrees, and an early exit when f stays
irreducible mod p); only the chosen prime, picked for fewest factors, gets
equal-degree splitting.  Then quadratic multifactor Hensel lifting to a power
above twice the Mignotte factor-coefficient bound, and subset recombination
with degree-set and trailing-coefficient pruning.  The subset search
exhausts all candidate splits, which is what certifies irreducibility of
everything that survives; it stops with a resource-guard trip after
``_SUBSET_BUDGET`` subsets.  Iterate towers P^n(X) - P^n(alpha) are split
into pieces before they reach this module (``dynamics.snap_degree_multiset``),
and a piece that Capelli descent proves irreducible (``capelli``) never
reaches it: there Zassenhaus factors the small Q_beta and only the pieces
whose chain of certificates breaks.

Deterministic: the equal-degree splitting RNG is seeded from the caller's
seed and the chosen prime, primes are scanned in increasing order, outputs
are sorted by (degree, coefficient tuple).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import isqrt
from typing import NamedTuple

from ..errors import DomainError, ResourceGuardError
from ..exactnum import IntPoly, RatPoly
from ..ntheory import primes_from
from . import modp

_PRIME_KEEP = 5  # modular factorizations kept for degree-set pruning
# Primes tried for a squarefree certificate before Yun's algorithm.  Over 324
# squarefree iterate differences (ten maps, six base points, n <= 6) the
# first certifying prime was at most the tenth; on non-squarefree inputs of
# degree 81-128 a failed scan of 16 primes cost 0.4-0.6 of Yun's time.
_CERTIFICATE_PRIMES = 16
# Subsets one recombination may examine.  The expanded difference
# P^8(X) - P^8(1) of X^2+1, factored whole, examines 178,649; its degree-512
# successor would run for hours without a budget.  In snap, where composed
# tower pieces are proven irreducible by Capelli descent instead, no
# recombination of the perfbench tower jobs or of X^2+1 at n = 8 and 9
# examines more than 2.
_SUBSET_BUDGET = 2_000_000


class FactorReport(NamedTuple):
    """unit * content * prod(factor^mult) == input, factors primitive, lc > 0."""

    content: int
    unit: int
    factors: tuple[tuple[IntPoly, int], ...]

    @classmethod
    def from_parts(cls, content: int, unit: int, parts: dict[IntPoly, int]) -> "FactorReport":
        """The report of factor -> multiplicity, sorted by (degree, coefficients)."""
        return cls(content, unit, tuple(sorted(parts.items(),
                                               key=lambda fm: (fm[0].degree, fm[0].coeffs))))

    def reconstruct(self) -> IntPoly:
        out = IntPoly([self.unit * self.content])
        for f, m in self.factors:
            out = out * f ** m
        return out

    def is_squarefree(self) -> bool:
        return all(m == 1 for _, m in self.factors)


def _int_gcd_poly(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd with positive leading coefficient."""
    if a.is_zero():
        return b.primitive()[1] if not b.is_zero() else IntPoly()
    if b.is_zero():
        return a.primitive()[1]
    g = a.to_rat().gcd(b.to_rat())
    _, prim = g.to_int_primitive()
    return prim


def _yun_squarefree(f: IntPoly) -> list[tuple[IntPoly, int]]:
    """Squarefree decomposition of a primitive f with positive lc (Yun)."""
    if f.degree < 1:
        return []
    fp = f.derivative()
    g = _int_gcd_poly(f, fp)
    if g.degree == 0:
        return [(f, 1)]
    b = f.exact_div(g)
    c = fp.exact_div(g)
    d = c - b.derivative()
    out = []
    i = 1
    while b.degree > 0:
        a = _int_gcd_poly(b, d)
        if a.degree > 0:
            out.append((a, i))
        b = b.exact_div(a)
        c = d.exact_div(a)
        d = c - b.derivative()
        i += 1
    return out


def _mignotte_lift_bound(f: IntPoly) -> int:
    """2 * B * |lc| with B the factor-coefficient bound sqrt(n+1) 2^n |f|_inf."""
    n = f.degree
    b2 = isqrt((n + 1) * f.max_norm() ** 2) + 1
    return 2 * (b2 << n) * abs(f.lead)


def _hensel_step(m: int, f, g, h, s, t):
    """One quadratic Hensel step: from mod m to mod m**2.

    Invariants: f = g*h mod m, s*g + t*h = 1 mod m, h monic,
    deg f = deg g + deg h, deg s < deg h, deg t < deg g.
    """
    M = m * m
    e = modp.sub(modp.from_int_poly(f, M), modp.mul(g, h, M), M)
    q, r = modp.divmod_general(modp.mul(s, e, M), h, M)
    G = modp.add(modp.add(g, modp.mul(t, e, M), M), modp.mul(q, g, M), M)
    H = modp.add(h, r, M)
    b = modp.sub(modp.add(modp.mul(s, G, M), modp.mul(t, H, M), M), [1], M)
    c, d = modp.divmod_general(modp.mul(s, b, M), H, M)
    S = modp.sub(s, d, M)
    T = modp.sub(t, modp.add(modp.mul(t, b, M), modp.mul(c, G, M), M), M)
    return G, H, S, T


def _hensel_lift(p: int, f: IntPoly, mod_factors: list[list[int]], ell: int) -> list[list[int]]:
    """Lift f = lc * prod(mod_factors) from mod p to mod p**ell.

    Returns monic factor images mod p**ell (same order as input).
    """
    r = len(mod_factors)
    pl = p ** ell
    if r == 1:
        inv = pow(f.lead % pl, -1, pl)
        return [modp.scalar(modp.from_int_poly(f.coeffs, pl), inv, pl)]
    k = r // 2
    g = modp.scalar(_prod_mod(mod_factors[:k], p), f.lead % p, p)
    h = _prod_mod(mod_factors[k:], p)
    s, t, one = modp.gcdex(g, h, p)
    if len(one) != 1:
        raise DomainError("modular factors not coprime (prime choice bug)")
    m = p
    while m < pl:
        g, h, s, t = _hensel_step(m, f.coeffs, g, h, s, t)
        m = m * m
    g = modp.from_int_poly(g, pl)
    h = modp.from_int_poly(h, pl)
    left = _hensel_lift(p, _sym_intpoly(g, pl), mod_factors[:k], ell)
    right = _hensel_lift(p, _sym_intpoly(h, pl), mod_factors[k:], ell)
    return left + right


def _prod_mod(fs, m):
    out = [1]
    for f in fs:
        out = modp.mul(out, f, m)
    return out


def _sym_intpoly(f, m) -> IntPoly:
    half = m // 2
    return IntPoly([c - m if c > half else c for c in f])


def _degree_mask(degrees: list[int]) -> int:
    """Bitmask of degrees realizable as sub-multiset sums."""
    mask = 1
    for d in degrees:
        mask |= mask << d
    return mask


def _factor_squarefree(f: IntPoly, seed: int, certify: int | None = None) -> list[IntPoly] | None:
    """Irreducible factors of a primitive squarefree f with positive lc.

    With ``certify``, f need not be squarefree: the first prime p not
    dividing lc(f) with f mod p squarefree certifies that f is (a square
    factor g^2 of f would reduce to a square of positive degree mod p), and
    None is returned when no such prime comes among the first ``certify``.
    """
    n = f.degree
    if n <= 1:
        return [f] if n else []
    candidates = []  # (num_factors, p, distinct-degree pieces of f mod p)
    masks = []
    for i, p in enumerate(primes_from(3)):
        if i == certify and not candidates:
            return None
        if f.lead % p == 0:
            continue
        fp = modp.from_int_poly(f.coeffs, p)
        if not modp.is_squarefree(fp, p):
            continue
        pieces = list(modp.distinct_degree(modp.monic(fp, p), p))
        degrees = [d for prod, d in pieces for _ in range((len(prod) - 1) // d)]
        if len(degrees) == 1:
            return [f]
        candidates.append((len(degrees), p, pieces))
        masks.append(_degree_mask(degrees))
        if len(candidates) >= _PRIME_KEEP or len(degrees) <= 3:
            break
    allowed_degrees = masks[0]
    for m in masks[1:]:
        allowed_degrees &= m
    _, p, pieces = min(candidates, key=lambda c: (c[0], c[1]))
    mods = modp.factor_squarefree_monic(pieces, p, random.Random(seed * 0x1F123BB5 + p))
    bound = _mignotte_lift_bound(f)
    ell = 1
    while p ** ell <= bound:
        ell += 1
    pl = p ** ell
    lifted = _hensel_lift(p, f, mods, ell)
    check = modp.scalar(_prod_mod(lifted, pl), f.lead, pl)
    if check != modp.from_int_poly(f.coeffs, pl):
        raise DomainError("Hensel lift verification failed")
    return _recombine(f, lifted, pl, allowed_degrees)


def _recombine(f: IntPoly, lifted: list[list[int]], pl: int, allowed_degrees: int) -> list[IntPoly]:
    """Zassenhaus subset search; exhausting all subsets certifies irreducibility.

    Examining more than ``_SUBSET_BUDGET`` subsets raises ResourceGuardError.
    """
    found: list[IntPoly] = []
    remaining = list(range(len(lifted)))
    cur = f
    examined = 0
    s = 1
    while 2 * s <= len(remaining):
        hit = True
        while hit:
            hit = False
            cur_lead = cur.lead % pl
            const_cur = cur[0] * cur.lead  # divisor target for trailing-coeff test
            degs = [len(lifted[i]) - 1 for i in remaining]
            for S, dS in zip(combinations(remaining, s), combinations(degs, s)):
                examined += 1
                if examined > _SUBSET_BUDGET:
                    raise ResourceGuardError(
                        f"recombination examined more than {_SUBSET_BUDGET} subsets")
                if not (allowed_degrees >> sum(dS)) & 1:
                    continue
                # trailing-coefficient quick test
                tc = cur_lead
                for i in S:
                    tc = tc * lifted[i][0] % pl
                tc = tc - pl if tc > pl // 2 else tc
                if const_cur != 0 and (tc == 0 or const_cur % tc != 0):
                    continue
                g = [cur_lead]
                for i in S:
                    g = modp.mul(g, lifted[i], pl)
                cand = _sym_intpoly(g, pl)
                if cand.is_zero():
                    continue
                _, cand = cand.primitive()
                try:
                    nxt = cur.exact_div(cand)
                except DomainError:
                    continue
                found.append(cand)
                cur = nxt
                remaining = [i for i in remaining if i not in S]
                hit = True
                break
        s += 1
    if cur.degree > 0:
        found.append(cur.primitive()[1])
    return found


def factor_over_Z(f: IntPoly, seed: int = 0) -> FactorReport:
    """Factor a nonzero integer polynomial into primitive irreducibles."""
    if f.is_zero():
        raise DomainError("cannot factor the zero polynomial")
    content, prim = f.primitive()
    unit = -1 if content < 0 else 1
    content = abs(content)
    irreducible = _factor_squarefree(prim, seed, _CERTIFICATE_PRIMES)
    if irreducible is not None:
        parts = dict.fromkeys(irreducible, 1)
    else:  # no prime certified prim squarefree: Yun's parts are, and are coprime
        parts = {irr: m for sqf, m in _yun_squarefree(prim)
                 for irr in _factor_squarefree(sqf, seed)}
    rep = FactorReport.from_parts(content, unit, parts)
    if rep.reconstruct() != f:
        raise DomainError("factorization reconstruction check failed")
    return rep


def factor_over_Q(f: RatPoly, seed: int = 0) -> tuple[Fraction, FactorReport]:
    """(rational scale, factorization of the primitive integer part)."""
    if f.is_zero():
        raise DomainError("cannot factor the zero polynomial")
    scale, prim = f.to_int_primitive()
    rep = factor_over_Z(prim, seed)
    return scale * rep.unit * rep.content, FactorReport(1, 1, rep.factors)
