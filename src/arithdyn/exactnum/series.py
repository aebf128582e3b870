"""Truncated Laurent-type series at infinity with exact rational coefficients.

A TruncSeries stores the coefficients of z^lead_exp, z^(lead_exp-1), ...,
z^cert_exp and records that every exponent >= cert_exp is *certified*: the
stored value is the exact coefficient of the underlying (formal or analytic)
series, with coefficients above lead_exp implicitly zero.  Anything below
cert_exp has been discarded and is unknown.

Certified-order bookkeeping under the operations:

* sum:      cert = max(cert_1, cert_2)
* product:  cert = max(cert_1 + lead_2, cert_2 + lead_1)
* s(p(z)) for a monic polynomial p of degree d >= 2 and s with leading
  term z: the unknown tail of s starts at exponent cert_s - 1 and enters
  the composition with leading exponent (cert_s - 1) * d, so the result is
  certified down to (cert_s - 1) * d + 1.
* s(t(z)) for series t with leading term z: certified down to
  max(cert_s, cert_t).

All coefficients are exact Fractions; no floating point is involved.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import DomainError
from .poly import RatPoly

_ZERO = Fraction(0)


class TruncSeries:
    __slots__ = ("lead_exp", "coeffs", "cert_exp")

    def __init__(self, lead_exp: int, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
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
            other = TruncSeries(0, [Fraction(other)] + [_ZERO] * (0 - self.cert_exp))
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
        acc = {e: _ZERO for e in range(cert, lead + 1)}
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            ea = self.lead_exp - i
            for j, b in enumerate(other.coeffs):
                if b == 0:
                    continue
                e = ea + other.lead_exp - j
                if e >= cert:
                    acc[e] += a * b
        return TruncSeries(lead, [acc[e] for e in range(lead, cert - 1, -1)])

    __rmul__ = __mul__


def series_power(s: TruncSeries, D: int) -> TruncSeries:
    """Exact truncation of s**D by repeated multiplication."""
    if not s.has_lead_z():
        raise DomainError("series_power expects a series with leading term z")
    if D < 1:
        raise DomainError("power must be a positive integer")
    out = s
    for _ in range(D - 1):
        out = out * s
    return out


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


def series_inverse(s: TruncSeries) -> TruncSeries:
    """Compositional inverse t with t(s(z)) = z, certified to the same depth.

    Solved coefficient by coefficient: the exponent -k equation of
    t(s(z)) = z is triangular in the unknown coefficient of w^(-k), whose
    multiplier is 1.
    """
    if not s.has_lead_z():
        raise DomainError("compositional inverse requires leading term z")
    N = -s.cert_exp
    if N < 0:
        raise DomainError("series must be certified at least down to z^0")
    inv_coeffs = [Fraction(1)]  # coefficient of w^1
    t = TruncSeries(1, inv_coeffs + [_ZERO] * (N + 1))
    for k in range(0, N + 1):
        resid = series_compose_series(t, s) - TruncSeries.identity(-N)
        r = resid.coefficient(-k)
        inv_coeffs.append(-r)
        t = TruncSeries(1, inv_coeffs + [_ZERO] * (N - k))
    return t
