"""Truncated Laurent-type series at infinity with exact rational coefficients.

A TruncSeries stores the coefficients of z^lead_exp, ..., z^cert_exp and
records that every exponent >= cert_exp is *certified*: the stored value is
the exact coefficient of the underlying (formal or analytic) series, with
coefficients above lead_exp zero.  Anything below cert_exp is unknown.  The
coefficients are integer numerators ``nums`` over one denominator ``den`` > 0
in lowest terms, with a nonzero leading numerator, so a series is stored one
way however it was built; ``coefficient``, ``coeffs`` and ``as_dict`` read
Fractions.  Certified-order bookkeeping under the operations:

* sum: cert = max(cert_1, cert_2); product: cert = max(cert_1 + lead_2,
  cert_2 + lead_1); a quotient a/b is certified as the product a (1/b)
* reciprocal and D-th root of s = z^D + ...: keep the number of terms, so
  cert = cert_s - 2 lead_s and cert = cert_s - D + 1
* s(p(z)) for monic p of degree D >= 2 and s = z + ...: Horner's rule,
  s(p) = p + c_0 + (c_-1 + (... + (c_-K + T)/p ...)/p)/p from the unknown
  tail T (certified nowhere); each division by p lowers the floor by D,
  down to (cert_s - 1) * D + 1
* compositional inverse of s = z + b_0 + b_1/z + ... by Lagrange inversion,
  d_k = -[z^-1](s^k) / k: certified to the same depth as s.

Every operation is integer arithmetic (Brent and Kung, J. ACM 25, 1978).  A
product is one ``poly.int_mul`` on the numerators (slot i holds exponent
lead_exp - i, so a series product is a polynomial product) over the product
of the denominators; a sum works over their lcm; division and the root run
their recurrences over Z; one gcd reduces each result.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

from ..errors import DomainError
from .poly import RatPoly, as_fraction, int_mul, power


class TruncSeries:
    __slots__ = ("lead_exp", "cert_exp", "nums", "den")

    def __init__(self, lead_exp: int, coeffs):
        coeffs = [as_fraction(c) for c in coeffs]
        if not coeffs:
            raise DomainError("TruncSeries needs at least one retained coefficient")
        den = math.lcm(*[c.denominator for c in coeffs])
        self._store(lead_exp, lead_exp - len(coeffs) + 1,
                    [c.numerator * (den // c.denominator) for c in coeffs], den)

    def _store(self, lead: int, cert: int, nums, den: int) -> "TruncSeries":
        """Keep nums[i] / den (den > 0) as the coefficient of z^(lead - i), canonically."""
        i = next((i for i, n in enumerate(nums) if n), len(nums))
        g = math.gcd(den, *nums)
        self.lead_exp, self.cert_exp, self.den = lead - i, cert, den // g
        self.nums = tuple(nums[i:]) if g == 1 else tuple(n // g for n in nums[i:])
        return self

    @classmethod
    def identity(cls, cert_exp: int = 0) -> "TruncSeries":
        """The series z, certified down to cert_exp."""
        return cls(1, [1] + [0] * (1 - cert_exp))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    def coefficient(self, e: int) -> Fraction:
        """Exact coefficient of z^e; raises below the certified range."""
        if e < self.cert_exp:
            raise DomainError(f"coefficient of z^{e} not certified (floor z^{self.cert_exp})")
        if e > self.lead_exp:
            return Fraction(0)
        return Fraction(self.nums[self.lead_exp - e], self.den)

    def as_dict(self) -> dict[int, Fraction]:
        return {self.lead_exp - i: Fraction(n, self.den) for i, n in enumerate(self.nums) if n}

    def truncate(self, cert_exp: int) -> "TruncSeries":
        if cert_exp < self.cert_exp:
            raise DomainError("cannot extend certification by truncating")
        keep = max(0, self.lead_exp - cert_exp + 1)
        return _series(max(self.lead_exp, cert_exp - 1), cert_exp, self.nums[:keep], self.den)

    def has_lead_z(self) -> bool:
        return self.lead_exp == 1 and self.nums[0] == self.den

    def _key(self):
        return self.cert_exp, self.lead_exp, self.den, self.nums

    def __eq__(self, other):
        return isinstance(other, TruncSeries) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        terms = ", ".join(f"z^{e}: {c}" for e, c in self.as_dict().items())
        return f"TruncSeries({{{terms}}}, certified >= z^{self.cert_exp})"

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            if self.cert_exp > 0:
                return self  # z^0 lies below the certified range
            c = other if isinstance(other, int) else as_fraction(other)
            den = math.lcm(self.den, c.denominator)
            lead = max(self.lead_exp, 0)
            nums = [0] * (lead - self.lead_exp) + [x * (den // self.den) for x in self.nums]
            nums[lead] += c.numerator * (den // c.denominator)
            return _series(lead, self.cert_exp, nums, den)
        cert = max(self.cert_exp, other.cert_exp)
        lead = max(self.lead_exp, other.lead_exp, cert - 1)
        den = math.lcm(self.den, other.den)
        nums = [0] * (lead - cert + 1)
        for s in (self, other):
            f = den // s.den
            for i, x in enumerate(s.nums[:max(0, s.lead_exp - cert + 1)], lead - s.lead_exp):
                nums[i] += x * f
        return _series(lead, cert, nums, den)

    __radd__ = __add__

    def __neg__(self):
        return _series(self.lead_exp, self.cert_exp, [-x for x in self.nums], self.den)

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncSeries) else -as_fraction(other))

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        cert = max(self.cert_exp + other.lead_exp, other.cert_exp + self.lead_exp)
        lead = self.lead_exp + other.lead_exp
        if lead < cert:
            return _series(cert - 1, cert, (), 1)
        return _series(lead, cert, int_mul(self.nums, other.nums, lead - cert + 1),
                       self.den * other.den)


def _series(lead: int, cert: int, nums, den: int) -> TruncSeries:
    """The series sum(nums[i] / den z^(lead - i)) certified down to z^cert."""
    return TruncSeries.__new__(TruncSeries)._store(lead, cert, nums, den)


def series_power(s: TruncSeries, D: int) -> TruncSeries:
    """s**D by square-and-multiply (``poly.power``): s^a s^b is certified down to
    cert_s + a + b - 1 whatever the split, so every order of products agrees."""
    if not s.has_lead_z():
        raise DomainError("series_power expects a series with leading term z")
    if D < 1:
        raise DomainError("power must be a positive integer")
    return power(s, D - 1, s)


def _divide(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """a / b for b != 0 on the numerators a_n of a and B_i of b: the coefficient
    n is Y_n b.den / (a.den b0^(n+1)), Y_n = a_n b0^n - sum_(1<=i<=n) B_i Y_(n-i) b0^(i-1)
    over Z, where only the nonzero B_i enter."""
    cert = max(a.cert_exp - b.lead_exp, b.cert_exp - 2 * b.lead_exp + a.lead_exp)
    lead = max(a.lead_exp - b.lead_exp, cert - 1)
    L = lead - cert + 1
    b0_pow = list(accumulate([b.nums[0]] * L, int.__mul__, initial=1))
    tail = [(i, c * b0_pow[i - 1]) for i, c in enumerate(b.nums[1:L], 1) if c]
    Y = []
    for n, x in enumerate(a.nums[:L]):
        Y.append(x * b0_pow[n] - sum(c * Y[n - i] for i, c in tail if i <= n))
    sign = -1 if b0_pow[L] < 0 else 1
    return _series(lead, cert, [sign * b.den * y * b0_pow[L - 1 - n] for n, y in enumerate(Y)],
                   sign * a.den * b0_pow[L])


def series_reciprocal(s: TruncSeries) -> TruncSeries:
    """1/s, with as many terms as s: certified down to s.cert_exp - 2 * s.lead_exp."""
    if not s.nums:
        raise DomainError("reciprocal of a series with no certified nonzero term")
    return _divide(_series(0, s.cert_exp - s.lead_exp, [1] + [0] * (len(s.nums) - 1), 1), s)


def series_root(s: TruncSeries, D: int) -> TruncSeries:
    """The D-th root of s = z^D + ... with leading term z, by Miller's recurrence:
    h_n = T / (n D den Q) for an integer T and Q the lcm of the denominators of
    h_0 .. h_(n-1), so Q grows by the factor n D den / gcd(T, n D den) alone."""
    if s.lead_exp != D or s.nums[:1] != (s.den,):
        raise DomainError("series_root expects a series with leading term z^D")
    tail = [(k, c) for k, c in enumerate(s.nums) if k and c]
    H, Q = [1], 1
    for n in range(1, len(s.nums)):
        T = sum(((D + 1) * k - n * D) * c * H[n - k] for k, c in tail if k <= n)
        a = n * D * s.den
        g = math.gcd(T, a)
        if g != a:
            H = [x * (a // g) for x in H]
            Q *= a // g
        H.append(T // g)
    return _series(1, s.cert_exp - D + 1, H, Q)


def series_compose_poly(s: TruncSeries, p: RatPoly) -> TruncSeries:
    """s(p(z)) for monic p of degree >= 2 and s = z + ..., by Horner's rule on
    the numerators of s; certified down to (s.cert_exp - 1) * deg(p) + 1."""
    if p.is_zero() or p.degree < 2 or not p.is_monic():
        raise DomainError("composition requires a monic polynomial of degree >= 2")
    if not s.has_lead_z():
        raise DomainError("composition requires a series with leading term z")
    D = p.degree
    target = (s.cert_exp - 1) * D + 1
    ps = TruncSeries(D, [p[e] for e in range(D, target - 1, -1)])
    acc = _series(0, 1, (), 1)
    for c in reversed(s.nums[1:]):
        acc = _divide(acc, ps) + c
    return ps + _series(acc.lead_exp, acc.cert_exp, acc.nums, acc.den * s.den)


def series_inverse(s: TruncSeries) -> TruncSeries:
    """Compositional inverse t with t(s(z)) = z, certified to the same depth.
    With m = isqrt(N), [z^-1](s^k) is one dot product of s^(i m) and s^j
    (1 <= j <= m), so m - 1 + N/m products serve every k; s^k is certified
    down to s.cert_exp + k - 1, its slot k + 1 at most."""
    if not s.has_lead_z():
        raise DomainError("compositional inverse requires leading term z")
    N = -s.cert_exp
    if N < 0:
        raise DomainError("series must be certified at least down to z^0")
    m = math.isqrt(N) or 1
    baby = list(accumulate([s] * m, TruncSeries.__mul__))  # s^1 .. s^m
    giant = _series(0, -N - 1, [1] + [0] * (N + 1), 1)  # s^(i m), from s^0 = 1
    d = [(1, 1), (-s.nums[1], s.den)]  # (numerator, denominator) of each d_k
    for k in range(1, N + 1):
        i, j = divmod(k - 1, m)
        if i and not j:
            giant = baby[-1] if i == 1 else giant * baby[-1]
        b = baby[j]  # s^(j+1), and the slots a of giant and k + 1 - a of b meet at z^-1
        d.append((-sum(giant.nums[a] * b.nums[k + 1 - a] for a in range(k + 2)),
                  k * giant.den * b.den))
    den = math.lcm(*[q for _, q in d])
    return _series(1, s.cert_exp, [n * (den // q) for n, q in d], den)
