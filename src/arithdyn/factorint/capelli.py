"""Irreducibility of the compositions h(P^k(X)) by Capelli descent over F_p.

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

``chain`` proves a whole chain f_j = h(P^j(X)), j <= k, link by link
without forming any f_j: each odd prime p not dividing lc(h) * den(P) (then
f_j mod p is h(P^j(X)) mod p up to a unit) is walked once over all k links
by a per-prime kernel, and each link takes the first prime, in increasing
order, that certifies it with the least deg g.

The small-factor walk (``_small_factor_degrees``, any degree D of P).  Let
m = max(3, D - 1).  The walk tracks the set S_j of monic irreducible factors
of degree <= m of f_j mod p, and whether f_j mod p is squarefree:

- S_0 and the flag come from factoring h mod p.
- Every factor in S_(j+1) divides g(P) for some g in S_j: a root x of degree
  e <= m of f_(j+1) = f_j(P) has P(x) a root of f_j whose degree divides e,
  so its minimal polynomial g is in S_j, and x is a root of g(P).  Since g
  divides f_j, every factor of g(P) divides f_(j+1).  So S_(j+1) is the set
  of factors of degree <= m of the g(P), g in S_j, and a factor g whose g(P)
  is irreducible of degree <= m is tracked too.
- f_(j+1) mod p is squarefree iff f_j mod p is and g(P) is squarefree for
  every g in S_j.  A repeated root x of f_j(P), when f_j is squarefree, has
  P'(x) = 0, so P(x) is a root of f_j that is a critical value of P.  A
  critical point is a root of P', of degree <= D - 1, and so is its value;
  that root's minimal polynomial g is in S_j because D - 1 <= m, and x is a
  repeated root of g(P).  The converse holds because g divides f_j.  Since
  g(P) is tested for f_(j+1), this test decides link j + 1, not link j.
- Link j is certified with deg g = d iff f_j mod p is squarefree and some g
  in S_j of degree d <= 3 has g(P) irreducible (conditions 2-4), and m >= 3
  makes every such g a tracked one.
- When P' = 0 mod p, every g(P) is a polynomial in X^p, a p-th power, so p
  certifies nothing.

So m = max(3, D - 1) is the least bound that serves both: 3 for the
certificates and D - 1 for the critical values.  Each step factors
polynomials of degree <= m * D over F_p, and the last link needs no
factors, only the irreducibility of g(P) for its g of degree <= 3.

The tree walk (``_tree_degrees``, D = 2 and deg h = 1).  For a quadratic
P = X^2 + bX + c the same data are read off the tree of iterated
P-preimages of the root of h with one Legendre symbol per node.  Every h
that ``dynamics`` sends for D = 2 is linear: the primitive multiple of
Q_beta(X) = X + beta + b, of degree D - 1, whose root is -(beta + b) mod p.
A quadratic h goes to the small-factor walk, which gives the same degrees.
Let s = -b/2 be the critical point and t = P(s) = c - b^2/4 the critical
value.  Over the algebraic closure of F_p:

- the roots of f_j mod p are the depth-j nodes of the tree, and the
  children of a node theta are s +- sqrt(theta - t);
- f_j mod p is squarefree iff h mod p is and no node of depth < j equals t
  (P^j has derivative prod_(i<j) P'(P^i(X)), and P' vanishes only at s);
- an irreducible factor g of f_j mod p of degree d is the Frobenius orbit of
  a node theta of degree d; every node degree is a power of 2, so under the
  cap of 3 only d = 1 and d = 2 occur;
- g(P(X)) is irreducible over F_p iff (P(X) - theta) is irreducible over
  F_(p^d), i.e. iff theta - t is a non-square there, i.e. iff its norm
  N(theta - t) to F_p is a non-residue mod p.  For theta = u + v sqrt(r),
  r a non-residue, the norm is (u - t)^2 - r v^2.

A node of degree 4 or more has no descendant of degree at most 2, so one
walk per prime keeps the nodes of degree 1 as ints and those of degree 2 as
pairs (u, v), one per conjugate pair, and marks every depth at once.  Both
kernels give the same degrees; the tree walk is the faster one on D = 2.
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
# the largest deg g a certificate uses (condition 3)
_MAX_FACTOR_DEGREE = 3


def chain(h: IntPoly, P, k: int) -> list[tuple[str, int, int]]:
    """The certificates ``("fp", p, deg g)`` of the links h(P^j(X)) ->
    h(P^(j+1)(X)), j < k, up to the first link that no prime certifies, for
    a monic P (an IntPoly or RatPoly) and h primitive and irreducible over Q.

    No h(P^j(X)) is formed: each prime walks all k links once (see the
    module docstring), primes are walked lazily and in increasing order, and
    a link takes the first prime that certifies it.  A list shorter than k
    means the chain broke at its next link.
    """
    if P.lead != 1:
        raise DomainError("Capelli certificate needs a monic inner polynomial")
    coeffs = [Fraction(c) for c in P.coeffs]
    den = math.lcm(*(c.denominator for c in coeffs))
    kernel = _tree_degrees if P.degree == 2 and h.degree == 1 else _small_factor_degrees
    primes = (p for p in islice(primes_from(3), _PRIMES_PER_LINK) if h.lead % p and den % p)
    walked: list[tuple[int, list[int]]] = []  # (p, its degree per link), in prime order
    links = []
    for j in range(k):
        cert = next(((p, ds[j]) for p, ds in walked if ds[j]), None)
        for p in primes if cert is None else ():
            walked.append((p, ds := kernel(h, [residue(c, p) for c in coeffs], p, k)))
            if ds[j]:
                cert = p, ds[j]
                break
        if cert is None:
            break
        links.append(("fp", *cert))
    return links


def _small_factor_degrees(h: IntPoly, P: list[int], p: int, k: int) -> list[int]:
    """For each link j < k, the least d <= 3 for which p certifies it (a
    tracked factor g of f_j mod p of degree d with g(P) irreducible, f_j mod p
    squarefree), or 0; P is the list of residues of the map mod p."""
    m = max(_MAX_FACTOR_DEGREE, len(P) - 2)
    rng = random.Random(p)

    def small(pieces):  # the factors of degree <= m from distinct-degree pieces
        return [g for prod, d in pieces if d <= m
                for g in modp.equal_degree_split(prod, d, p, rng)]

    f = modp.monic(modp.from_int_poly(h.coeffs, p), p)
    nodes = small(modp.distinct_degree(f, p, m)) if modp.is_squarefree(f, p) else []
    out: list[int] = []
    while len(out) < k - 1 and nodes:
        images = [modp.compose(g, P, p) for g in nodes]
        squarefree = [modp.is_squarefree(image, p) for image in images]
        pieces = [list(modp.distinct_degree(image, p)) if sq else []
                  for image, sq in zip(images, squarefree)]
        out.append(min((len(g) - 1 for g, image, ps in zip(nodes, images, pieces)
                        if len(g) <= _MAX_FACTOR_DEGREE + 1
                        and [d for _, d in ps] == [len(image) - 1]), default=0))
        # f_(j+1) mod p is squarefree iff every image is
        nodes = [g for ps in pieces for g in small(ps)] if all(squarefree) else []
    # the last link needs no children: its least d is tested first
    out.append(next((len(g) - 1 for g in sorted(nodes, key=len)
                     if len(g) <= _MAX_FACTOR_DEGREE + 1
                     and modp.is_irreducible(modp.compose(g, P, p), p)), 0))
    return out + [0] * (k - len(out))


def _tree_degrees(h: IntPoly, P: list[int], p: int, k: int) -> list[int]:
    """For each link j < k, the least d in (1, 2) for which p certifies it
    (a node of degree d at depth j whose N(theta - t) is a non-residue, with
    no node equal to t above it), or 0; P = [c, b, 1] mod p and h linear,
    so the tree grows from the one root -h0/h1 mod p."""
    c, b = P[0], P[1]
    r = next(z for z in range(2, p) if legendre(z, p) == -1)
    s = -b * pow(2, -1, p) % p
    t = (c - s * s) % p
    ones, twos = [-h[0] * pow(h[1], -1, p) % p], []
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
