"""Truncated Laurent-type series at infinity with exact rational coefficients.

A TruncSeries stores the coefficients of z^lead_exp, z^(lead_exp-1), ...,
z^cert_exp and records that every exponent >= cert_exp is *certified*: the
stored value is the exact coefficient of the underlying (formal or analytic)
series, with coefficients above lead_exp implicitly zero.  Anything below
cert_exp has been discarded and is unknown.

Certified-order bookkeeping under the operations:

* sum:        cert = max(cert_1, cert_2)
* product:    cert = max(cert_1 + lead_2, cert_2 + lead_1)
* reciprocal: 1/s keeps the number of terms of s, so cert = cert_s - 2 lead_s
* D-th root of s = z^D + ...: keeps the number of terms, cert = cert_s - D + 1
* s(p(z)) for a monic polynomial p of degree D >= 2 and s with leading term
  z: Horner's rule in r = 1/p over the known coefficients of s, starting
  from the unknown tail (certified nowhere); each step multiplies by r
  (leading exponent -D), so the product rule alone certifies the result
  down to (cert_s - 1) * D + 1.
* compositional inverse of s = z + b_0 + b_1/z + ... by Lagrange inversion,
  d_k = -[z^-1](s^k) / k: certified to the same depth as s.

Every series operation is built from the sum, the product and these two
recurrences.  Coefficients are exact Fractions, and no floating point is
involved.  A product is one call of ``poly.rat_mul`` on the two coefficient
lists (slot i holds the exponent lead_exp - i, so a series product is a
polynomial product): both operands are scaled to integers, multiplied by
one signed Kronecker product, and only the certified slots are unpacked.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import DomainError
from .poly import RatPoly, as_fraction, power, rat_mul

_ZERO = Fraction(0)


class TruncSeries:
    __slots__ = ("lead_exp", "coeffs", "cert_exp")

    def __init__(self, lead_exp: int, coeffs):
        coeffs = [as_fraction(c) for c in coeffs]
        if not coeffs:
            raise DomainError("TruncSeries needs at least one retained coefficient")
        self.cert_exp = lead_exp - len(coeffs) + 1
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            lead_exp -= 1
        self.lead_exp = lead_exp
        self.coeffs = tuple(coeffs)

    @classmethod
    def identity(cls, cert_exp: int = 0) -> "TruncSeries":
        """The series z, certified down to cert_exp."""
        return cls(1, [Fraction(1)] + [_ZERO] * (1 - cert_exp))

    @property
    def order(self) -> int:
        """Number of retained (certified) coefficient slots."""
        return self.lead_exp - self.cert_exp + 1

    def coefficient(self, e: int) -> Fraction:
        """Exact coefficient of z^e; raises below the certified range."""
        if e < self.cert_exp:
            raise DomainError(f"coefficient of z^{e} not certified (floor z^{self.cert_exp})")
        if e > self.lead_exp:
            return _ZERO
        return self.coeffs[self.lead_exp - e]

    def as_dict(self) -> dict[int, Fraction]:
        return {
            self.lead_exp - i: c for i, c in enumerate(self.coeffs) if c != 0
        }

    def truncate(self, cert_exp: int) -> "TruncSeries":
        if cert_exp < self.cert_exp:
            raise DomainError("cannot extend certification by truncating")
        keep = self.lead_exp - cert_exp + 1
        if keep <= 0:
            return TruncSeries(cert_exp, [_ZERO])
        return TruncSeries(self.lead_exp, self.coeffs[:keep])

    def has_lead_z(self) -> bool:
        return self.lead_exp == 1 and self.coefficient(1) == 1

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (
            self.cert_exp == other.cert_exp
            and self.as_dict() == other.as_dict()
        )

    def __hash__(self):
        return hash((self.cert_exp, tuple(sorted(self.as_dict().items()))))

    def __repr__(self):
        terms = ", ".join(f"z^{e}: {c}" for e, c in sorted(self.as_dict().items(), reverse=True))
        return f"TruncSeries({{{terms}}}, certified >= z^{self.cert_exp})"

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            if self.cert_exp <= 0:
                # a scalar touches only the z^0 slot
                c = as_fraction(other)
                if self.lead_exp < 0:
                    return TruncSeries(0, [c] + [_ZERO] * (-1 - self.lead_exp) + list(self.coeffs))
                coeffs = list(self.coeffs)
                coeffs[self.lead_exp] += c
                return TruncSeries(self.lead_exp, coeffs)
            other = TruncSeries(0, [Fraction(other)])
        cert = max(self.cert_exp, other.cert_exp)
        lead = max(self.lead_exp, other.lead_exp, cert)
        coeffs = []
        for e in range(lead, cert - 1, -1):
            a = self.coeffs[self.lead_exp - e] if self.cert_exp <= e <= self.lead_exp else _ZERO
            b = other.coeffs[other.lead_exp - e] if other.cert_exp <= e <= other.lead_exp else _ZERO
            coeffs.append(a + b)
        return TruncSeries(lead, coeffs)

    __radd__ = __add__

    def __neg__(self):
        s = TruncSeries.__new__(TruncSeries)
        s.lead_exp = self.lead_exp
        s.cert_exp = self.cert_exp
        s.coeffs = tuple(-c for c in self.coeffs)
        return s

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncSeries) else -Fraction(other))

    def scale(self, c) -> "TruncSeries":
        c = Fraction(c)
        s = TruncSeries.__new__(TruncSeries)
        s.lead_exp = self.lead_exp
        s.cert_exp = self.cert_exp
        s.coeffs = tuple(c * x for x in self.coeffs)
        return s

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return self.scale(other)
        cert = max(self.cert_exp + other.lead_exp, other.cert_exp + self.lead_exp)
        lead = self.lead_exp + other.lead_exp
        if lead < cert:
            return TruncSeries(cert, [_ZERO])
        # slot i is the exponent lead - i; only the lead - cert + 1 slots down
        # to the certified floor are kept
        return TruncSeries(lead, rat_mul(self.coeffs, other.coeffs, lead - cert + 1))

    __rmul__ = __mul__


def series_power(s: TruncSeries, D: int) -> TruncSeries:
    """Exact truncation of s**D by square-and-multiply (``poly.power``).

    s = z + ... certified down to c makes s^a certified down to c + a - 1,
    and the product of s^a and s^b is certified down to c + a + b - 1
    whatever the split, so every order of products gives the same series.
    """
    if not s.has_lead_z():
        raise DomainError("series_power expects a series with leading term z")
    if D < 1:
        raise DomainError("power must be a positive integer")
    return power(s, D - 1, s)


def series_reciprocal(s: TruncSeries) -> TruncSeries:
    """1/s by the power-series division recurrence, certified down to
    s.cert_exp - 2 * s.lead_exp (the same number of terms as s)."""
    if not s.coeffs:
        raise DomainError("reciprocal of a series with no certified nonzero term")
    a0 = s.coeffs[0]
    tail = [(i, c) for i, c in enumerate(s.coeffs) if i and c]
    r = [1 / a0]
    for n in range(1, len(s.coeffs)):
        r.append(-sum((c * r[n - i] for i, c in tail if i <= n), _ZERO) / a0)
    return TruncSeries(-s.lead_exp, r)


def series_root(s: TruncSeries, D: int) -> TruncSeries:
    """The D-th root of s = z^D + ... with leading term z, by Miller's
    recurrence; certified down to s.cert_exp - D + 1."""
    if s.lead_exp != D or s.coeffs[:1] != (1,):
        raise DomainError("series_root expects a series with leading term z^D")
    tail = [(k, c) for k, c in enumerate(s.coeffs) if k and c]
    h = [Fraction(1)]
    for n in range(1, len(s.coeffs)):
        h.append(sum((((D + 1) * k - n * D) * c * h[n - k] for k, c in tail if k <= n),
                     _ZERO) / (n * D))
    return TruncSeries(1, h)


def series_compose_poly(s: TruncSeries, p: RatPoly) -> TruncSeries:
    """s(p(z)) re-expanded in descending powers of z, certified tail included.

    Requires monic p of degree >= 2 and s with leading term z.  Horner's rule
    in r = 1/p: s(p) = p + c_0 + r (c_-1 + r (c_-2 + ... + r (c_-K + r T))),
    where the unknown tail T starts out certified nowhere (down to z^1); the
    product rule then certifies the result down to (s.cert_exp - 1) * deg(p) + 1.
    """
    if p.is_zero() or p.degree < 2 or not p.is_monic():
        raise DomainError("composition requires a monic polynomial of degree >= 2")
    if not s.has_lead_z():
        raise DomainError("composition requires a series with leading term z")
    D = p.degree
    target = (s.cert_exp - 1) * D + 1
    ps = TruncSeries(D, [p[e] for e in range(D, target - 1, -1)])
    r = series_reciprocal(ps)
    acc = TruncSeries(1, [_ZERO])
    for k in range(-s.cert_exp, -1, -1):
        acc = acc * r + s.coefficient(-k)
    return ps + acc


def series_inverse(s: TruncSeries) -> TruncSeries:
    """Compositional inverse t with t(s(z)) = z, certified to the same depth.

    Lagrange inversion at infinity: for s = z + b_0 + b_1/z + ... the inverse
    is w + d_0 + d_1/w + ... with d_0 = -b_0 and d_k = -[z^-1](s^k) / k.  The
    powers s^k come from one running product; s^k is certified down to
    s.cert_exp + k - 1, which reaches z^-1 for every k <= -s.cert_exp.
    """
    if not s.has_lead_z():
        raise DomainError("compositional inverse requires leading term z")
    N = -s.cert_exp
    if N < 0:
        raise DomainError("series must be certified at least down to z^0")
    d = [Fraction(1), -s.coefficient(0)]
    power = s
    for k in range(1, N + 1):
        if k > 1:
            power = power * s
        d.append(-power.coefficient(-1) / k)
    return TruncSeries(1, d)
