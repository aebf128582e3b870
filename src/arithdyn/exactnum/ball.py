"""Midpoint-radius enclosures with exact rational bookkeeping.

A ball stores an exact rational midpoint and an exact nonnegative rational
radius.  The ring operations (+, -, *, /) stay exact: the returned ball
contains the image of every point of the input balls, with no rounding at
all.  ``widen(err)`` is the one place where a rounding error or a
truncation majorant enters a radius: the rounding error of ``round_to``
(which shortens the midpoint to a dyadic of the caller-supplied working
precision) and of ``round_to_grid`` (which rounds it to the absolute grid
2^-w), the growth term of ``ball_cexp``, the series tails of
``countkit.modular`` and ``boettcher.psi_eval``, and the escape tails of
the archimedean local height in ``dynamics``.  It keeps the midpoint and
rounds ``rad + err`` up to a short dyadic (32 significant bits), so radii
stay short and stay certified, following the midpoint-radius design of Arb
(Johansson, IEEE TC 2017).  An orbit that falls into a superattracting
cycle needs the absolute grid: relative rounding would let the exponents
of its midpoint and radius double at every step.
Transcendental functions (log, exp, sqrt, sin, cos, pi) are delegated to
mpmath's directed-rounding interval context and converted back to
midpoint-radius form, so every enclosure produced here is rigorous.

``ComplexBall.real``/``.imag`` (disk to interval) and ``as_complex_ball``
(interval to disk) are the one crossing between the two ball types.

Containment contract: every operation returns a ball whose closed disk (or
closed interval for RealBall) contains f(z) for all z in the input balls.
Enlarging an input radius never shrinks an output enclosure.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import isqrt

import mpmath
from mpmath.ctx_iv import MPIntervalContext

from ..errors import CertificationError, DomainError
from .poly import as_fraction

DEFAULT_PREC = 128
_RAD_BITS = 32  # significant bits of a radius after rad_up

_ZERO = Fraction(0)
_ONE = Fraction(1)


@functools.lru_cache(maxsize=32)
def _ctx(prec: int) -> MPIntervalContext:
    c = MPIntervalContext()
    c.prec = max(8, int(prec))
    return c


def _fraction_from_mpf_tuple(t) -> Fraction:
    """The exact value of an mpmath mpf tuple; a non-finite one (inf, nan)
    cannot be certified."""
    sign, man, exp, bc = t
    man = int(man)
    if man == 0:
        if exp == 0:
            return _ZERO
        raise CertificationError("non-finite value in mpmath result")
    v = Fraction(man) * (Fraction(2) ** int(exp))
    return -v if sign else v


def _interval_endpoints(x) -> tuple[Fraction, Fraction]:
    lo, hi = x._mpi_
    return _fraction_from_mpf_tuple(lo), _fraction_from_mpf_tuple(hi)


def _iv_from_fraction(q: Fraction, ctx):
    if q.denominator == 1:
        return ctx.mpf(q.numerator)
    return ctx.mpf(q.numerator) / ctx.mpf(q.denominator)


def _iv_from_endpoints(lo: Fraction, hi: Fraction, ctx):
    a = _iv_from_fraction(lo, ctx)
    b = _iv_from_fraction(hi, ctx)
    mk = mpmath.mp.make_mpf
    return ctx.mpf([mk(a._mpi_[0]), mk(b._mpi_[1])])


def sqrt_down(x: Fraction, bits: int = 64) -> Fraction:
    """Largest convenient rational <= sqrt(x), tight to about ``bits`` bits."""
    if x < 0:
        raise DomainError("sqrt of negative rational")
    if x == 0:
        return _ZERO
    n, d = x.numerator, x.denominator
    s = 1 << bits
    r = isqrt(n * d * s * s)
    return Fraction(r, d * s)


def sqrt_up(x: Fraction, bits: int = 64) -> Fraction:
    """Smallest convenient rational >= sqrt(x), tight to about ``bits`` bits."""
    if x < 0:
        raise DomainError("sqrt of negative rational")
    if x == 0:
        return _ZERO
    n, d = x.numerator, x.denominator
    s = 1 << bits
    t = n * d * s * s
    r = isqrt(t)
    if r * r < t:
        r += 1
    return Fraction(r, d * s)


def _round_fraction(q: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Nearest dyadic with ~prec significant bits; returns (value, |error|)."""
    if q == 0:
        return _ZERO, _ZERO
    shift = prec - (abs(q.numerator).bit_length() - q.denominator.bit_length())
    if shift <= 0:
        scaled = q / (1 << (-shift))
        newv = Fraction(round(scaled)) * (1 << (-shift))
    else:
        newv = Fraction(round(q * (1 << shift)), 1 << shift)
    return newv, abs(newv - q)


def rad_up(r: Fraction) -> Fraction:
    """Round a radius up to a dyadic of _RAD_BITS significant bits (sound compaction)."""
    if r == 0:
        return _ZERO
    shift = _RAD_BITS - (r.numerator.bit_length() - r.denominator.bit_length())
    if shift <= 0:
        unit = 1 << (-shift)
        num = -(-r.numerator // (unit * r.denominator))
        return Fraction(num) * unit
    num = -(-(r.numerator << shift) // r.denominator)
    return Fraction(num, 1 << shift)


class RealBall:
    """Closed interval [mid - rad, mid + rad] with exact rational endpoints."""

    __slots__ = ("mid", "rad")

    def __init__(self, mid, rad=0):
        self.mid = as_fraction(mid)
        self.rad = as_fraction(rad)
        if self.rad < 0:
            raise DomainError("negative ball radius")

    # -- constructors -------------------------------------------------

    @classmethod
    def exact(cls, q) -> "RealBall":
        return cls(q, _ZERO)

    @classmethod
    def from_endpoints(cls, lo, hi) -> "RealBall":
        lo, hi = Fraction(lo), Fraction(hi)
        if hi < lo:
            raise DomainError("empty interval")
        return cls((lo + hi) / 2, (hi - lo) / 2)

    @classmethod
    def _from_iv(cls, x) -> "RealBall":
        lo, hi = _interval_endpoints(x)
        return cls.from_endpoints(lo, hi)

    # -- views ---------------------------------------------------------

    @property
    def lo(self) -> Fraction:
        return self.mid - self.rad

    @property
    def hi(self) -> Fraction:
        return self.mid + self.rad

    def is_exact(self) -> bool:
        return self.rad == 0

    def abs_upper(self) -> Fraction:
        return abs(self.mid) + self.rad

    def contains(self, q) -> bool:
        q = Fraction(q)
        return abs(q - self.mid) <= self.rad

    def contains_ball(self, other: "RealBall") -> bool:
        return abs(other.mid - self.mid) + other.rad <= self.rad

    def overlaps(self, other: "RealBall") -> bool:
        return abs(other.mid - self.mid) <= self.rad + other.rad

    def __repr__(self):
        return f"RealBall({self.mid}, {self.rad})"

    # -- exact ring operations ------------------------------------------

    def __add__(self, other):
        other = as_real_ball(other)
        return RealBall(self.mid + other.mid, self.rad + other.rad)

    __radd__ = __add__

    def __neg__(self):
        return RealBall(-self.mid, self.rad)

    def __sub__(self, other):
        other = as_real_ball(other)
        return RealBall(self.mid - other.mid, self.rad + other.rad)

    def __rsub__(self, other):
        return as_real_ball(other) - self

    def __mul__(self, other):
        other = as_real_ball(other)
        a, ra, b, rb = self.mid, self.rad, other.mid, other.rad
        return RealBall(a * b, abs(a) * rb + abs(b) * ra + ra * rb)

    __rmul__ = __mul__

    def inverse(self) -> "RealBall":
        if abs(self.mid) <= self.rad:
            raise DomainError("inverse of interval containing zero")
        m, r = self.mid, self.rad
        lo, hi = sorted((1 / (m - r), 1 / (m + r)))
        return RealBall.from_endpoints(lo, hi)

    def __truediv__(self, other):
        other = as_real_ball(other)
        if other.rad == 0:
            if other.mid == 0:
                raise DomainError("division by zero")
            return RealBall(self.mid / other.mid, self.rad / abs(other.mid))
        return self * other.inverse()

    def __rtruediv__(self, other):
        return as_real_ball(other) / self

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise DomainError("integer power >= 0 expected; use ball_pow for real exponents")
        out = RealBall.exact(1)
        base = self
        e = k
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __abs__(self):
        if abs(self.mid) >= self.rad:
            return RealBall(abs(self.mid), self.rad)
        return RealBall.from_endpoints(_ZERO, abs(self.mid) + self.rad)

    def widen(self, err) -> "RealBall":
        """Same midpoint, radius rad + err rounded up to a short dyadic."""
        return RealBall(self.mid, rad_up(self.rad + err))

    def round_to(self, prec: int) -> "RealBall":
        mid, err = _round_fraction(self.mid, prec)
        return RealBall(mid, self.rad).widen(err)

    def round_to_grid(self, w: int) -> "RealBall":
        """Midpoint rounded to the nearest multiple of 2^-w; the radius grows
        by 2^-w, which covers that rounding and keeps the radius >= 2^-w."""
        unit = Fraction(1, 1 << w)
        return RealBall(round(self.mid / unit) * unit, self.rad).widen(unit)

    # -- certified comparisons -------------------------------------------

    def lt(self, other) -> bool:
        """True only if every point of self is < every point of other."""
        other = as_real_ball(other)
        return self.hi < other.lo

    def gt(self, other) -> bool:
        other = as_real_ball(other)
        return self.lo > other.hi

    def le(self, other) -> bool:
        other = as_real_ball(other)
        return self.hi <= other.lo

    def ge(self, other) -> bool:
        other = as_real_ball(other)
        return self.lo >= other.hi


def as_real_ball(x) -> RealBall:
    """A RealBall as is; an int or Fraction as the exact ball around it."""
    if isinstance(x, RealBall):
        return x
    if isinstance(x, (int, Fraction)):
        return RealBall.exact(x)
    raise TypeError(f"cannot coerce {type(x)!r} to RealBall")


# -- transcendental functions (rigorous via directed rounding) ------------


def _lift_unary(fname):
    def op(x, prec: int = DEFAULT_PREC) -> RealBall:
        x = as_real_ball(x)
        ctx = _ctx(prec)
        u = _iv_from_endpoints(x.lo, x.hi, ctx)
        return RealBall._from_iv(getattr(ctx, fname)(u))

    return op


ball_exp = _lift_unary("exp")
ball_sin = _lift_unary("sin")
ball_cos = _lift_unary("cos")


def ball_log(x, prec: int = DEFAULT_PREC) -> RealBall:
    x = as_real_ball(x)
    if x.lo <= 0:
        raise DomainError("log of interval touching (-inf, 0]")
    ctx = _ctx(prec)
    return RealBall._from_iv(ctx.log(_iv_from_endpoints(x.lo, x.hi, ctx)))


def ball_sqrt(x, prec: int = DEFAULT_PREC) -> RealBall:
    x = as_real_ball(x)
    if x.lo < 0:
        raise DomainError("sqrt of interval reaching below 0")
    ctx = _ctx(prec)
    return RealBall._from_iv(ctx.sqrt(_iv_from_endpoints(x.lo, x.hi, ctx)))


def ball_pi(prec: int = DEFAULT_PREC) -> RealBall:
    return RealBall._from_iv(+_ctx(prec).pi)


def ball_e(prec: int = DEFAULT_PREC) -> RealBall:
    return ball_exp(RealBall.exact(1), prec)


def ball_pow(x, y, prec: int = DEFAULT_PREC) -> RealBall:
    """x ** y for positive x and real-ball/rational exponent y."""
    y = as_real_ball(y)
    if y.is_exact() and y.mid.denominator == 1 and y.mid >= 0:
        return as_real_ball(x) ** int(y.mid)
    return ball_exp(y * ball_log(x, prec), prec)


def ball_root(x, k: int, prec: int = DEFAULT_PREC) -> RealBall:
    """Positive k-th root of a positive interval."""
    if k <= 0:
        raise DomainError("root index must be positive")
    if k == 1:
        return as_real_ball(x)
    if k == 2:
        return ball_sqrt(x, prec)
    return ball_exp(ball_log(x, prec) / k, prec)


class ComplexBall:
    """Closed disk of radius rad around an exact rational point re + im*i."""

    __slots__ = ("re", "im", "rad")

    def __init__(self, re, im=0, rad=0):
        self.re = as_fraction(re)
        self.im = as_fraction(im)
        self.rad = as_fraction(rad)
        if self.rad < 0:
            raise DomainError("negative ball radius")

    @classmethod
    def exact(cls, re, im=0) -> "ComplexBall":
        return cls(re, im, _ZERO)

    @classmethod
    def from_real_pair(cls, x: RealBall, y: RealBall) -> "ComplexBall":
        """Smallest disk around the box [x.lo,x.hi] x [y.lo,y.hi]."""
        return cls(x.mid, y.mid, sqrt_up(x.rad * x.rad + y.rad * y.rad) )

    def __repr__(self):
        return f"ComplexBall({self.re}, {self.im}, {self.rad})"

    def is_exact(self) -> bool:
        return self.rad == 0

    @property
    def real(self) -> RealBall:
        """The interval of the real parts of the disk's points."""
        return RealBall(self.re, self.rad)

    @property
    def imag(self) -> RealBall:
        """The interval of the imaginary parts of the disk's points."""
        return RealBall(self.im, self.rad)

    def conjugate(self) -> "ComplexBall":
        return ComplexBall(self.re, -self.im, self.rad)

    def abs_sq_mid(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def abs_upper(self) -> Fraction:
        return sqrt_up(self.abs_sq_mid()) + self.rad

    def abs_lower(self) -> Fraction:
        b = sqrt_down(self.abs_sq_mid()) - self.rad
        return b if b > 0 else _ZERO

    def contains(self, re, im=0) -> bool:
        d2 = (Fraction(re) - self.re) ** 2 + (Fraction(im) - self.im) ** 2
        return d2 <= self.rad * self.rad

    def __add__(self, other):
        other = as_complex_ball(other)
        return ComplexBall(self.re + other.re, self.im + other.im, self.rad + other.rad)

    __radd__ = __add__

    def __neg__(self):
        return ComplexBall(-self.re, -self.im, self.rad)

    def __sub__(self, other):
        other = as_complex_ball(other)
        return ComplexBall(self.re - other.re, self.im - other.im, self.rad + other.rad)

    def __rsub__(self, other):
        return as_complex_ball(other) - self

    def __mul__(self, other):
        other = as_complex_ball(other)
        a, b = self.re, self.im
        c, d = other.re, other.im
        re = a * c - b * d
        im = a * d + b * c
        # |z*w - m_z*m_w| <= |m_z| r_w + |m_w| r_z + r_z r_w
        rad = (
            sqrt_up(a * a + b * b) * other.rad
            + sqrt_up(c * c + d * d) * self.rad
            + self.rad * other.rad
        )
        return ComplexBall(re, im, rad)

    __rmul__ = __mul__

    def inverse(self) -> "ComplexBall":
        mod_lo = self.abs_lower()
        if mod_lo <= self.rad or mod_lo == 0:
            raise DomainError("inverse of disk containing zero")
        den = self.abs_sq_mid()
        if den == 0:
            raise DomainError("inverse of disk containing zero")
        re = self.re / den
        im = -self.im / den
        # |1/w - 1/m| <= r / (|m| (|m| - r)) for |w - m| <= r < |m|
        r_lower = mod_lo - self.rad
        if r_lower <= 0:
            raise DomainError("inverse of disk containing zero")
        rad = self.rad / (mod_lo * r_lower)
        return ComplexBall(re, im, rad)

    def __truediv__(self, other):
        other = as_complex_ball(other)
        if other.rad == 0:
            den = other.abs_sq_mid()
            if den == 0:
                raise DomainError("division by zero")
            inv = ComplexBall(other.re / den, -other.im / den, _ZERO)
            return self * inv
        return self * other.inverse()

    def __rtruediv__(self, other):
        return as_complex_ball(other) / self

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise DomainError("integer power >= 0 expected")
        out = ComplexBall.exact(1)
        base = self
        e = k
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def widen(self, err) -> "ComplexBall":
        """Same midpoint, radius rad + err rounded up to a short dyadic."""
        return ComplexBall(self.re, self.im, rad_up(self.rad + err))

    def round_to(self, prec: int) -> "ComplexBall":
        re, e1 = _round_fraction(self.re, prec)
        im, e2 = _round_fraction(self.im, prec)
        return ComplexBall(re, im, self.rad).widen(sqrt_up(e1 * e1 + e2 * e2))


def as_complex_ball(x) -> ComplexBall:
    """x as a ComplexBall; a RealBall becomes the disk with its midpoint and radius."""
    if isinstance(x, ComplexBall):
        return x
    if isinstance(x, RealBall):
        return ComplexBall(x.mid, _ZERO, x.rad)
    if isinstance(x, (int, Fraction)):
        return ComplexBall.exact(x)
    raise TypeError(f"cannot coerce {type(x)!r} to ComplexBall")


def ball_cexp(z: ComplexBall, prec: int = DEFAULT_PREC) -> ComplexBall:
    """exp of a complex ball: exp(x)(cos y + i sin y) with escape term e^r - 1."""
    ex = ball_exp(RealBall.exact(z.re), prec)
    cy = ball_cos(RealBall.exact(z.im), prec)
    sy = ball_sin(RealBall.exact(z.im), prec)
    centre = ComplexBall.from_real_pair(ex * cy, ex * sy)
    if z.rad == 0:
        return centre
    # |exp(w) - exp(m)| <= |exp(m)| (e^r - 1)
    growth = ball_exp(RealBall.exact(z.rad), prec).hi - 1
    return centre.widen(ex.hi * growth)


def ball_decimal(mid: Fraction, rad: Fraction, digits: int) -> tuple[str, str]:
    """Decimal (mid, rad) strings with the conversion error folded into rad."""
    scale = 10 ** digits
    m10 = round(mid * scale)
    err = abs(mid - Fraction(m10, scale))
    r = rad + err
    r10 = r.numerator * scale // r.denominator
    if Fraction(r10, scale) < r:
        r10 += 1
    return _dec_str(m10, digits), _dec_str(r10, digits)


def _dec_str(scaled: int, digits: int) -> str:
    sign = "-" if scaled < 0 else ""
    s = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{s[:-digits]}.{s[-digits:]}" if digits else f"{sign}{s}"
