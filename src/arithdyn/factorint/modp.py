"""Dense polynomial arithmetic over F_p and Z/m (lists, constant term first).

Coefficients are plain ints reduced into [0, m).  Only what the Zassenhaus
driver and the Capelli certificate need: ring ops, composition, division,
gcd/gcdex over a prime field, powmod (``exactnum.poly.power`` with a product
that reduces mod g), an irreducibility test, distinct-degree splitting, and
equal-degree splitting over F_p for odd p, the only primes either caller
walks.

Products use Kronecker substitution with the packer of ``exactnum.poly``
(the one that also serves the exact products over Z and Q): each operand is
packed into one big integer, one residue per fixed-width slot wide enough
for a sum of products of residues, the two integers are multiplied once,
and the slots of the product are unpacked and reduced.  Residues need no
sign handling, so these products skip the bias of the signed kernel
``exactnum.poly.int_mul``.

Division by g takes the quotient from a schoolbook loop over the top
coefficients alone and the remainder f - q*g from one product.  For a fixed
g, ``Modulus`` computes rev(g)^{-1} once by Newton iteration, so every
reduction in ``pow_mod``, ``distinct_degree`` and ``equal_degree_split``
costs two products.
"""

from __future__ import annotations

import random

from ..errors import DomainError
from ..exactnum.poly import pack_slots, power, slot_bytes, unpack_slots


def trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def from_int_poly(coeffs, m: int) -> list[int]:
    return trim([c % m for c in coeffs])


def _residues(f, m):
    """f itself when every coefficient is in [0, m), else a reduced copy."""
    if f and (min(f) < 0 or max(f) >= m):
        return [c % m for c in f]
    return f


def _product_slots(f, g, m):
    """Unreduced coefficients of f*g (residue lists) by one Kronecker product."""
    k = slot_bytes(2 * (m - 1).bit_length() + min(len(f), len(g)).bit_length())
    x = pack_slots(f, k)
    y = x if f is g else pack_slots(g, k)
    return unpack_slots(x * y, k, len(f) + len(g) - 1)


def add(f, g, m):
    n = max(len(f), len(g))
    return trim([((f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)) % m for i in range(n)])


def sub(f, g, m):
    n = max(len(f), len(g))
    return trim([((f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0)) % m for i in range(n)])


def mul(f, g, m):
    """f*g over Z/m (inputs need not be reduced or trimmed)."""
    if not f or not g:
        return []
    same = f is g
    f = _residues(f, m)
    g = f if same else _residues(g, m)
    return trim([c % m for c in _product_slots(f, g, m)])


def scalar(f, c, m):
    c %= m
    return trim([a * c % m for a in f])


def _inverse_series(a, k: int, m: int) -> list[int]:
    """b with a*b = 1 mod x^k over Z/m (a[0] a unit), by Newton iteration."""
    b = [pow(a[0], -1, m)]
    j = 1
    while j < k:
        j = min(2 * j, k)
        e = [-c % m for c in mul(a[:j], b, m)[:j]]  # 1 - a*b, zero below the old j
        e[0] = (e[0] + 2) % m
        b = mul(b, e, m)[:j]
    return b


def _quotient(f, g, m) -> list[int]:
    """Quotient of trimmed residue lists f by g, len(f) >= len(g), lc(g) a unit.

    Schoolbook on the top len(f) - deg g coefficients only.  A one-off Newton
    inverse of rev(g) measured slower for quotients of up to 64 coefficients
    mod small primes and of up to 384 (the largest tried) mod 238-476 bit
    prime powers, and no faster on whole factorizations; only ``Modulus``,
    which reuses its inverse, uses one.
    """
    n = len(g) - 1
    k = len(f) - n
    inv = pow(g[-1], -1, m)
    top = f[n:]
    q = [0] * k
    for i in range(k - 1, -1, -1):
        c = top[i] * inv % m
        q[i] = c
        if c:
            for j in range(max(0, i - n), i):
                top[j] -= c * g[n - i + j]
    return q


def _divmod(f, g, m):
    """divmod_general for trimmed residue lists f and g, g nonzero."""
    n = len(g) - 1
    if len(f) <= n:
        return [], f
    q = _quotient(f, g, m)
    if n == 0:
        return q, []
    low = _product_slots(q, g[:n], m)[:n]
    return q, trim([(a - b) % m for a, b in zip(f, low)])


def divmod_general(f, g, m):
    """(q, r) with f = q*g + r and deg r < deg g, when lc(g) is a unit mod m
    (always true for monic g)."""
    g = trim(list(_residues(g, m)))
    if not g:
        raise DomainError("division by zero polynomial")
    return _divmod(trim(list(_residues(f, m))), g, m)


class Modulus:
    """A fixed g over Z/m with unit leading coefficient, n = deg g >= 1, for
    repeated remainders of products: rev(g)^{-1} mod x^(n-1) and the low part
    of g are packed once, so reducing a product of two reduced polynomials
    costs two Kronecker products."""

    __slots__ = ("g", "m", "n", "k", "inv", "low")

    def __init__(self, g, m: int):
        self.g = trim(list(_residues(g, m)))
        self.m = m
        self.n = n = len(self.g) - 1
        if n < 1:
            raise DomainError("modulus must have positive degree")
        self.k = slot_bytes(2 * (m - 1).bit_length() + n.bit_length())
        self.inv = pack_slots(_inverse_series(self.g[::-1], n - 1, m), self.k) if n > 1 else 0
        self.low = pack_slots(self.g[:n], self.k)

    def rem(self, f):
        """f mod g, for any integer coefficient list f."""
        f = trim(list(_residues(f, self.m)))
        n, m, k = self.n, self.m, self.k
        q_len = len(f) - n
        if q_len <= 0:
            return f
        if q_len >= n:
            return divmod_general(f, self.g, m)[1]
        rev = unpack_slots(pack_slots(f[:-q_len - 1:-1], k) * self.inv, k, q_len + n - 2)
        q = [c % m for c in reversed(rev[:q_len])]
        low = unpack_slots(pack_slots(q, k) * self.low, k, q_len + n - 1)
        return trim([(a - b) % m for a, b in zip(f, low[:n])])


def monic(f, p):
    if not f:
        return []
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def gcd(f, g, p):
    a, b = [c % p for c in f], [c % p for c in g]
    trim(a), trim(b)
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return monic(a, p)


def gcdex(f, g, p):
    """(s, t, h) with s*f + t*g = h = monic gcd(f, g) over F_p."""
    r0, r1 = [c % p for c in f], [c % p for c in g]
    trim(r0), trim(r1)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1, p), p)
        t0, t1 = t1, sub(t0, mul(q, t1, p), p)
    if not r0:
        return [], [], []
    inv = pow(r0[-1], -1, p)
    return scalar(s0, inv, p), scalar(t0, inv, p), monic(r0, p)


def deriv(f, m):
    return trim([i * c % m for i, c in enumerate(f) if i >= 1])


def pow_mod(f, e: int, mod: Modulus):
    """f**e mod g over Z/m, for the fixed g of ``mod``: ``power`` with a
    product that reduces mod g."""
    return power(mod.rem(f), e, [1], lambda a, b: mod.rem(mul(a, b, mod.m)))


def is_squarefree(f, p) -> bool:
    return len(gcd(f, deriv(f, p), p)) == 1


def compose(f, g, m):
    """f(g(x)) over Z/m."""
    out = []
    for c in reversed(f):
        out = add(mul(out, g, m), [c], m)
    return out


def is_irreducible(f, p) -> bool:
    """Whether a monic f of positive degree is irreducible over F_p: it is
    squarefree and its first distinct-degree piece is all of f."""
    return is_squarefree(f, p) and next(distinct_degree(f, p))[1] == len(f) - 1


def distinct_degree(f, p, max_degree=None):
    """Yield (product_of_irreducibles_of_degree_d, d) for monic squarefree f,
    by increasing d; with ``max_degree``, only the pieces with d <= max_degree."""
    h = [0, 1]  # x
    g = list(f)
    d = 0
    mod = None
    while len(g) - 1 >= 2 * (d + 1):
        if d == max_degree:
            return
        d += 1
        mod = mod or Modulus(g, p)
        h = pow_mod(h, p, mod)
        gd = gcd(sub(h, [0, 1], p), g, p)
        if len(gd) > 1:
            yield gd, d
            g = divmod_general(g, gd, p)[0]
            mod = None
    if len(g) > 1 and (max_degree is None or len(g) - 1 <= max_degree):
        yield g, len(g) - 1


def equal_degree_split(f, d: int, p, rng: random.Random):
    """Cantor-Zassenhaus split of a monic squarefree product of degree-d
    irreducibles over F_p, p odd: both callers, the Capelli small-factor walk
    and ``factor_squarefree_monic`` under Zassenhaus, draw p from
    ``primes_from(3)``, so the characteristic-2 trace map is not needed."""
    n = len(f) - 1
    if n == d:
        return [f]
    mod = Modulus(f, p)
    while True:
        r = [rng.randrange(p) for _ in range(n)] + [1]
        r = trim(r)
        if len(r) <= 1:
            continue
        g = gcd(r, f, p)
        if not 1 < len(g) < len(f):
            g = gcd(sub(pow_mod(r, (p ** d - 1) // 2, mod), [1], p), f, p)
        if 1 < len(g) < len(f):
            q = divmod_general(f, g, p)[0]
            return equal_degree_split(g, d, p, rng) + equal_degree_split(q, d, p, rng)


def factor_squarefree_monic(pieces, p, rng: random.Random):
    """Monic irreducible factors over F_p, sorted, of a monic squarefree f
    given by its distinct-degree pieces ``distinct_degree(f, p)``."""
    out = []
    for prod, d in pieces:
        out.extend(equal_degree_split(prod, d, p, rng))
    out.sort(key=lambda g: (len(g), g))
    return out
