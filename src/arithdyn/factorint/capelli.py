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
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import islice

from ..errors import DomainError
from ..exactnum import IntPoly
from ..ntheory import primes_from, residue
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
