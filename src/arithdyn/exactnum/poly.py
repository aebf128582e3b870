"""Dense univariate polynomials with exact coefficients, constant term first.

IntPoly holds arbitrary-precision integer coefficients, RatPoly holds
Fractions.  Both are immutable; the zero polynomial is the empty coefficient
tuple.  Serialization follows the project convention: JSON arrays of
"num/den" strings, constant term first.

Every exact product of coefficient lists goes through one kernel,
``int_mul``, a signed Kronecker product over Z (Harvey, J. Symbolic Comput.
44, 2009): each operand is split into its positive and negative parts, each
part is packed into one integer with one coefficient per k-byte slot, the
two signed integers are multiplied once, a bias of 2^(8k-1) per slot makes
every slot of the product nonnegative, and the slots are unpacked and
unbiased.  ``rat_mul`` scales each Fraction operand to integers over the lcm
of its denominators and calls ``int_mul``; IntPoly and RatPoly products use
these two, and a ``TruncSeries``, which keeps integer numerators over one
denominator, calls ``int_mul`` on its numerators.  The packer (``pack_slots``,
``unpack_slots``) also serves the products mod m of ``factorint.modp``.

Every evaluation of a coefficient list at a point goes through ``horner``
and every integer power through ``power`` (square-and-multiply), whatever
the point: an int, a Fraction, a ball, a float, an mpmath number or a
polynomial.  ``power`` takes the product as an argument, so it also serves
the powers mod g of ``factorint.modp.pow_mod`` (a product that reduces) and
the truncated series powers of ``series.series_power`` (one whose certified
floor is kept by the series product itself).
"""

from __future__ import annotations

import math
import operator
import re
import sys
from array import array
from fractions import Fraction

from ..errors import DomainError

_TYPECODES = {1: "B", 2: "H", 4: "I", 8: "Q"}
_BIG_ENDIAN = sys.byteorder == "big"


def as_fraction(x) -> Fraction:
    """x itself when it is a Fraction already (Fractions are immutable), else
    Fraction(x): the coercion of polynomial, series and ball coefficients."""
    return x if isinstance(x, Fraction) else Fraction(x)


def slot_bytes(bits: int) -> int:
    """Kronecker slot width in bytes for values of ``bits`` bits: 1, 2, 4 or
    8 (the ``array`` widths) up to 64 bits, else the least byte count."""
    k = (bits + 7) // 8
    if k <= 8:
        return 1 if k <= 1 else 2 if k == 2 else 4 if k <= 4 else 8
    return k


def pack_slots(f, k: int) -> int:
    """sum(f[i] << 8*k*i) for integers 0 <= f[i] < 2**(8*k)."""
    if k <= 8:
        a = array(_TYPECODES[k], f)
        if _BIG_ENDIAN:
            a.byteswap()
        return int.from_bytes(a.tobytes(), "little")
    return int.from_bytes(b"".join([c.to_bytes(k, "little") for c in f]), "little")


def unpack_slots(x: int, k: int, slots: int):
    """The ``slots`` k-byte slots of x (0 <= x < 2**(8*k*slots)), lowest first."""
    b = x.to_bytes(k * slots, "little")
    if k <= 8:
        a = array(_TYPECODES[k], b)
        if _BIG_ENDIAN:
            a.byteswap()
        return a
    return [int.from_bytes(b[i:i + k], "little") for i in range(0, len(b), k)]


def _signed_pack(f, k: int, lo: int) -> int:
    """sum(f[i] << 8*k*i) for integers |f[i]| < 2**(8*k) with minimum lo."""
    if lo >= 0:
        return pack_slots(f, k)
    return (pack_slots([c if c > 0 else 0 for c in f], k)
            - pack_slots([-c if c < 0 else 0 for c in f], k))


def int_mul(a, b, n: int | None = None) -> list[int]:
    """Coefficients 0 .. n-1 of the product of the nonempty integer lists a
    and b (all len(a) + len(b) - 1 of them by default), by one signed
    Kronecker product.  No slot of the first n takes more than
    min(len(a), len(b), n) terms, so slots of 8k - 1 >= bits of that count
    times max|a| times max|b| hold every coefficient with its sign."""
    if n is None:
        n = len(a) + len(b) - 1
    same = a is b
    a = a[:n]
    b = a if same else b[:n]
    alo, ahi = min(a), max(a)
    blo, bhi = (alo, ahi) if same else (min(b), max(b))
    k = slot_bytes(max(ahi, -alo).bit_length() + max(bhi, -blo).bit_length()
                   + min(len(a), len(b)).bit_length() + 1)
    x = _signed_pack(a, k, alo)
    y = x if same else _signed_pack(b, k, blo)
    bias = int.from_bytes((bytes(k - 1) + b"\x80") * n, "little")
    half = 1 << (8 * k - 1)
    slots = unpack_slots((x * y + bias) & ((1 << (8 * k * n)) - 1), k, n)
    return [c - half for c in slots]


def _over_common_denominator(f) -> tuple[int, list[int]]:
    """(d, [c * d for c in f]) for Fractions f, d the lcm of their denominators."""
    d = math.lcm(*[c.denominator for c in f])
    return d, [c.numerator * (d // c.denominator) for c in f]


def rat_mul(a, b, n: int | None = None) -> list[Fraction]:
    """``int_mul`` for nonempty lists of Fractions: each operand is scaled to
    integers over the lcm of its denominators, and each of the n product
    coefficients is one Fraction over the product of the two lcms."""
    same = a is b
    if n is not None:
        a = a[:n]
        b = a if same else b[:n]
    da, ia = _over_common_denominator(a)
    db, ib = (da, ia) if same else _over_common_denominator(b)
    d = da * db
    return [Fraction(c, d) for c in int_mul(ia, ib, n)]


def horner(coeffs, x):
    """sum(coeffs[i] * x**i), constant term first, by Horner's rule: exact at
    an int, Fraction or polynomial x; at a RealBall or ComplexBall it encloses
    the value at every point of the ball; at a float or an mpmath number it
    is rounded as that type rounds."""
    *rest, acc = coeffs or (0,)
    if not rest:
        return x * 0 + acc
    for c in reversed(rest):
        acc = acc * x + c
    return acc


def power(x, k: int, one, mul=operator.mul):
    """x**k for an integer k >= 0 by square-and-multiply from ``one`` under
    the product ``mul``; the base is not squared again after the top bit of k."""
    out = one
    while k:
        if k & 1:
            out = mul(out, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return out


def _strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class _BasePoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _strip(self._cast(c) for c in coeffs)

    @staticmethod
    def _cast(c):
        raise NotImplementedError

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self):
        if not self.coeffs:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return type(self) is type(other) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((type(self).__name__, self.coeffs))

    def __getitem__(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self._cast(0)

    def __add__(self, other):
        a, b = self.coeffs, self._coerce(other).coeffs
        n = max(len(a), len(b))
        return type(self)(
            (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
        )

    __radd__ = __add__

    def __neg__(self):
        return type(self)(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        if not self.coeffs or not other.coeffs:
            return type(self)()
        return type(self)(self._product(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise DomainError("negative polynomial power")
        return power(self, k, type(self)([1]))

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (int, Fraction)):
            return type(self)([other])
        raise TypeError(f"cannot combine {type(self).__name__} with {type(other)!r}")

    def derivative(self):
        return type(self)(i * c for i, c in enumerate(self.coeffs) if i >= 1)

    def eval(self, x):
        """Horner evaluation: exact at an int/Fraction point; at a RealBall or
        ComplexBall the result encloses p(w) for every point w of the ball."""
        return horner(self.coeffs, x)

    def compose(self, other):
        """self(other(X)), exact."""
        other = self._coerce(other) if not isinstance(other, _BasePoly) else other
        return horner(self.coeffs, other)

    def __repr__(self):
        return f"{type(self).__name__}({list(self.coeffs)!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(f"{c}")
            elif i == 1:
                parts.append("X" if c == 1 else ("-X" if c == -1 else f"{c}*X"))
            else:
                parts.append(f"X^{i}" if c == 1 else (f"-X^{i}" if c == -1 else f"{c}*X^{i}"))
        s = " + ".join(parts)
        return s.replace("+ -", "- ")


class IntPoly(_BasePoly):
    _product = staticmethod(int_mul)

    @staticmethod
    def _cast(c):
        if isinstance(c, Fraction):
            if c.denominator != 1:
                raise DomainError(f"non-integer coefficient {c} in IntPoly")
            return c.numerator
        return int(c)

    def content(self) -> int:
        return math.gcd(*(abs(c) for c in self.coeffs)) if self.coeffs else 0

    def primitive(self) -> tuple[int, "IntPoly"]:
        """(content * sign, primitive part with positive leading coefficient)."""
        if not self.coeffs:
            return 0, IntPoly()
        c = self.content()
        if self.lead < 0:
            c = -c
        return c, IntPoly(x // c for x in self.coeffs)

    def to_int_primitive(self) -> tuple[Fraction, "IntPoly"]:
        """As ``RatPoly.to_int_primitive``: (content * sign, primitive part)."""
        c, prim = self.primitive()
        return Fraction(c), prim

    def to_rat(self) -> "RatPoly":
        return RatPoly(Fraction(c) for c in self.coeffs)

    def max_norm(self) -> int:
        return max((abs(c) for c in self.coeffs), default=0)

    def exact_div(self, other: "IntPoly") -> "IntPoly":
        """self / other over Z; DomainError unless the quotient is integral and
        the remainder zero (long division in integers, stopping at the first
        quotient coefficient lc(other) does not divide)."""
        if other.is_zero():
            raise DomainError("polynomial division by zero")
        rem = list(self.coeffs)
        d, lc, oc = other.degree, other.lead, other.coeffs
        q = [0] * max(0, len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c, r = divmod(rem[i], lc)
            if r:
                raise DomainError("exact_div: not divisible over Z")
            if c:
                q[i - d] = c
                for j in range(d):
                    rem[i - d + j] -= c * oc[j]
        if any(rem[:d]):
            raise DomainError("exact_div: not divisible over Z")
        return IntPoly(q)


class RatPoly(_BasePoly):
    _product = staticmethod(rat_mul)
    _cast = staticmethod(as_fraction)

    def monic(self) -> "RatPoly":
        if not self.coeffs:
            raise DomainError("zero polynomial cannot be made monic")
        lc = self.lead
        return RatPoly(c / lc for c in self.coeffs)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.lead == 1

    def divmod(self, other: "RatPoly") -> tuple["RatPoly", "RatPoly"]:
        if other.is_zero():
            raise DomainError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        lc = other.lead
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i] == 0:
                continue
            f = rem[i] / lc
            q[i - d] = f
            for j, oc in enumerate(other.coeffs):
                rem[i - d + j] -= f * oc
        return RatPoly(q), RatPoly(rem[:d])

    def gcd(self, other: "RatPoly") -> "RatPoly":
        """Monic gcd over Q (Euclid)."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic() if not a.is_zero() else a

    def to_int_primitive(self) -> tuple[Fraction, IntPoly]:
        """(rational factor, primitive integer poly with positive leading
        coefficient) with self = factor * poly."""
        if self.is_zero():
            return Fraction(0), IntPoly()
        scale = math.lcm(*(c.denominator for c in self.coeffs))
        cont, prim = IntPoly(c * scale for c in self.coeffs).primitive()
        return Fraction(cont, scale), prim


_TERM_RE = re.compile(
    r"""^(?P<coef>\d+(?:/0*[1-9]\d*)?)?\s*(?:\*)?\s*
        (?P<var>[Xx])?(?:\^(?P<exp>\d+))?$""",
    re.VERBOSE,
)
_SIGN_RUN_RE = re.compile(r"((?:[+-]\s*)+)")
# the sign runs allowed before a term: "+-" as in "X^2+-X", no doubled "+"
_SIGNS = {"": 1, "+": 1, "-": -1, "+-": -1}


def parse_poly(text: str) -> RatPoly:
    """Parse strings like "X^2 - 3*X + 1/2" into a RatPoly.

    Integer and a/b rational coefficients only; no parentheses.  Each term
    follows one "+", one "-" or "+-" (the first term may follow none), so a
    dangling or doubled sign is a DomainError.
    """
    parts = _SIGN_RUN_RE.split(text)
    if parts[0].strip():
        parts.insert(0, "")  # the first term has no sign
    else:
        del parts[0]
    coeffs: dict[int, Fraction] = {}
    for signs, term in zip(parts[::2], parts[1::2]):
        sign = _SIGNS.get("".join(signs.split()))
        m = _TERM_RE.match(term.strip())
        if sign is None or not m or (m.group("coef") is None and m.group("var") is None):
            raise DomainError(f"cannot parse polynomial term {signs + term!r} in {text!r}")
        coef = sign * Fraction(m.group("coef") or "1")
        if m.group("var"):
            exp = int(m.group("exp") or 1)
        else:
            if m.group("exp") is not None:
                raise DomainError(f"exponent without variable in {term!r}")
            exp = 0
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + coef
    if not coeffs:
        raise DomainError(f"cannot parse polynomial {text!r}")
    n = max(coeffs) + 1
    return RatPoly(coeffs.get(i, Fraction(0)) for i in range(n))
