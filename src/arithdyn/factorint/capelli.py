"""Irreducibility of a composition f(P(X)) by Capelli descent over F_p.

Let f in Z[X] be primitive and irreducible over Q with a root gamma, K =
Q(gamma), and P monic in Q[X].  By Capelli's lemma (Schinzel, *Polynomials
with special regard to reducibility*, CUP 2000, section 2.1) f(P(X)) is
irreducible over Q iff P(X) - gamma is irreducible over K.  A prime p proves
the latter when

1. p does not divide lc(f) * den(P);
2. f mod p is squarefree, so (Dedekind) the primes of K over p are read off
   the irreducible factors of f mod p;
3. g is an irreducible factor of f mod p of degree at most 3;
4. g(P(X)) is irreducible over F_p.

Proof: by 1 and 2 the prime of K belonging to g has residue field
F_p[x]/(g), and gamma, integral there, reduces to a root theta of g.  P is
monic and p-integral, so the monic factors of P(X) - gamma over K are
integral at that prime, and a factorization of P(X) - gamma over K reduces
to one of P(X) - theta over F_p(theta).  By Capelli's lemma over F_p,
condition 4 says that P(X) - theta is irreducible there.

For a quadratic P = X^2 + bX + c the conditions along a whole chain f_j =
h(P^j(X)), h of degree 1 or 2, are read off the tree of iterated
P-preimages of the roots of h (``quadratic_chain``).  Let p be an odd prime
not dividing lc(h) * den(P), s = -b/2 the critical point and t = P(s) =
c - b^2/4 the critical value.  Over the algebraic closure of F_p:

- the roots of f_j mod p are the depth-j nodes of the tree, and the
  children of a node theta are s +- sqrt(theta - t);
- f_j mod p is squarefree iff h mod p is and no node of depth < j equals t
  (P^j has derivative prod_(i<j) P'(P^i(X)), and P' vanishes only at s);
- an irreducible factor g of f_j mod p of degree d is the Frobenius orbit of
  a node theta of degree d; every node degree is deg(root of h) times a
  power of 2, so under the cap of 3 only d = 1 and d = 2 occur;
- g(P(X)) is irreducible over F_p iff (P(X) - theta) is irreducible over
  F_(p^d), i.e. iff theta - t is a non-square there, i.e. iff its norm
  N(theta - t) to F_p is a non-residue mod p.  For theta = u + v sqrt(r),
  r a non-residue, the norm is (u - t)^2 - r v^2.

A node of degree 4 or more has no descendant of degree at most 2, so one
walk per prime keeps the nodes of degree 1 as ints and those of degree 2 as
pairs (u, v), one per conjugate pair, and marks every depth at once.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import islice

from ..errors import DomainError
from ..exactnum import IntPoly
from ..ntheory import legendre, primes_from, residue, sqrt_mod
from . import modp

# odd primes tried, in increasing order, before a link is left to Zassenhaus
_PRIMES_PER_LINK = 60
# the largest deg g tried; each degree costs one more Frobenius power of x
# modulo f mod p, and its factors g are found in increasing degree
_MAX_FACTOR_DEGREE = 3


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


def quadratic_chain(h: IntPoly, P, k: int) -> list[tuple[str, int, int]]:
    """The certificates of the links h(P^j(X)) -> h(P^(j+1)(X)), j < k, up to
    the first link that no prime certifies, for a monic quadratic P (an
    IntPoly or RatPoly) and h primitive and irreducible over Q of degree 1 or
    2.

    Link for link this is ``compose_irreducible(h(P^j(X)), P)`` (made
    primitive), from the same primes in the same order, but no h(P^j(X)) is
    formed: each prime walks the preimage tree of the roots of h once (see
    the module docstring), and a link takes the first prime that certifies
    it.  A list shorter than k means the chain broke at its next link.
    """
    if P.degree != 2 or P.lead != 1 or not 1 <= h.degree <= 2:
        raise DomainError("the tree walk needs a monic quadratic map and h of degree 1 or 2")
    c, b = (Fraction(x) for x in P.coeffs[:2])
    den = math.lcm(c.denominator, b.denominator)
    primes = (p for p in islice(primes_from(3), _PRIMES_PER_LINK) if h.lead % p and den % p)
    walked: list[tuple[int, list[int]]] = []  # (p, its degree per link), in prime order
    links = []
    for j in range(k):
        cert = next(((p, ds[j]) for p, ds in walked if ds[j]), None)
        for p in primes if cert is None else ():
            walked.append((p, ds := _tree_degrees(h, residue(b, p), residue(c, p), p, k)))
            if ds[j]:
                cert = p, ds[j]
                break
        if cert is None:
            break
        links.append(("fp", *cert))
    return links


def _tree_degrees(h: IntPoly, b: int, c: int, p: int, k: int) -> list[int]:
    """For each link j < k, the least d in (1, 2) for which p certifies it
    (a node of degree d at depth j whose N(theta - t) is a non-residue, with
    no node equal to t above it), or 0."""
    r = next(z for z in range(2, p) if legendre(z, p) == -1)
    s = -b * pow(2, -1, p) % p
    t = (c - s * s) % p
    if h.degree == 1:
        ones, twos = [-h[0] * pow(h[1], -1, p) % p], []
    else:  # the roots of h: (X - u)^2 = disc / (2 h2)^2
        h0, h1, h2 = h.coeffs
        inv = pow(2 * h2, -1, p)
        a = (h1 * h1 - 4 * h0 * h2) * inv * inv % p
        if a == 0:  # h mod p is not squarefree
            return [0] * k
        ones, twos = _children(-h1 * inv % p, a, legendre(a, p), r, p)
    out: list[int] = []
    while len(out) < k and (ones or twos):
        marks = [legendre(x - t, p) for x in ones]
        norms = [legendre((u - t) ** 2 - r * v * v, p) for u, v in twos]
        out.append(1 if -1 in marks else 2 if -1 in norms else 0)
        if 0 in marks:  # a node equals t: no deeper f_j is squarefree mod p
            break
        next_ones, next_twos = [], []
        for x, m in zip(ones, marks):
            o, w = _children(s, x - t, m, r, p)
            next_ones += o
            next_twos += w
        for (u, v), m in zip(twos, norms):
            if m == 1:  # two child pairs in F_(p^2); else both children have degree 4
                x, y = sqrt_fp2(u - t, v, r, p)
                next_twos += [((s + x) % p, y), ((s - x) % p, -y % p)]
        ones, twos = next_ones, next_twos
    return out + [0] * (k - len(out))


def _children(center: int, a: int, symbol: int, r: int, p: int):
    """The roots of (X - center)^2 = a for a nonzero a in F_p with Legendre
    symbol ``symbol``: two in F_p, or one conjugate pair center +- v sqrt(r)
    in F_(p^2)."""
    if symbol == 1:
        y = sqrt_mod(a, p)
        return [(center + y) % p, (center - y) % p], []
    return [], [(center, sqrt_mod(a * pow(r, -1, p), p))]


def sqrt_fp2(a: int, b: int, r: int, p: int) -> tuple[int, int]:
    """(x, y) with (x + y sqrt(r))^2 = a + b sqrt(r) in F_(p^2) = F_p(sqrt(r)),
    for b != 0 and a square a + b sqrt(r) (its norm a^2 - r b^2 is a
    residue).  x^2 is one of (a +- sqrt(norm))/2, whose product r b^2 / 4 is
    a non-residue, so exactly one of them is a residue; then y = b / (2x)."""
    n = sqrt_mod(a * a - r * b * b, p)
    half = pow(2, -1, p)
    x2 = (a + n) * half % p
    if legendre(x2, p) != 1:
        x2 = (a - n) * half % p
    x = sqrt_mod(x2, p)
    return x, b * pow(2 * x, -1, p) % p
