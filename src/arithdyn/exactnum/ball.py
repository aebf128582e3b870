"""Midpoint-radius enclosures on integer numerators and denominators.

A ball holds each exact rational it is made of (the midpoint of a RealBall,
the real and imaginary parts of a ComplexBall's centre, and the radius) as
an integer numerator over a positive integer denominator, in lowest terms;
``.mid``, ``.rad``, ``.re`` and ``.im`` return them as exact Fractions.
After any rounding the denominators are powers of two, so the products,
sums and roundings of the working loops are integer multiplies, adds and
shifts, and bringing a dyadic to lowest terms strips trailing zero bits
instead of taking a gcd.  An exact non-dyadic input (1/3, or the point
tau = 2i/(1-q) of the census pullback) takes the same code: its
denominator is simply not a power of two, and a gcd reduces it.

The ring operations (+, -, *, /) stay exact: the returned ball contains the
image of every point of the input balls, with no rounding at all.  Division
is the product with ``inverse``, which is the exact ball 1/m at an exact m.
Rounding follows one rule, in ``_round_scaled``: n 2^s / d goes to the
nearest integer, ties to even, for a midpoint, and up for a radius; a
shift when d is a power of two, a divmod otherwise.  ``round_to``
shortens the midpoint to at most ``prec`` + 1 significant bits (s from the
bit lengths of n and d: prec + 1 bits for a dyadic n/d, prec or prec + 1
for a non-dyadic one, whose bit lengths only bracket its binary exponent),
``round_to_grid`` rounds it to the absolute grid 2^-w (s = w), and
``widen(err)`` rounds ``rad + err`` up to a short dyadic (at most 33
significant bits, from ``_RAD_BITS`` = 32).  ``widen`` is the one place
where a rounding error or a truncation majorant enters a radius: the
rounding errors of ``round_to`` and ``round_to_grid``, the growth term of
``ball_cexp``, the discriminant tail of ``countkit.modular`` (whose
grid sums, below, keep their own integer radii), the series tail of
``boettcher.psi_eval`` and the escape tails of the archimedean local
height in ``dynamics``.  So radii stay short and stay certified, following
the midpoint-radius design of Arb (Johansson, IEEE TC 2017).  An orbit
that falls into a superattracting cycle needs the absolute grid: relative
rounding would let the exponents of its midpoint and radius double at
every step.
Transcendental functions (log, exp, sqrt, sin, cos, pi) go through one
seam, ``_libmp_interval``.  It rounds the ball's two endpoints, as integer
pairs, outward once to max(8, prec) bits with mpmath's ``from_rational``
(lo down, hi up), applies the directed-rounding interval function of
``mpmath.libmp.libmpi`` (``mpi_exp``, ``mpi_log``, ...), and reads the two
binary floats it returns back exactly as the endpoints of the result, so
every enclosure produced here is rigorous.  mpmath is imported on first
use: a verb that takes no transcendental does not load it.

``ComplexBall.real``/``.imag`` (disk to interval) and ``as_complex_ball``
(interval to disk) are the one crossing between the two ball types.

The fixed-point grid, after Arb's fixed-point series (Johansson, IEEE TC
2017; ARITH 2015), is the kernel of the long sums: the theta sums and the
discriminant product of ``countkit.modular`` and the psi Horner loop of
``boettcher.psi_eval``.  A grid value is three ints (re, im, rad), read as
the disk of radius rad 2^-W around (re + i im) 2^-W; an ulp is 2^-W.  The
invariant: the disk of every grid value contains the exact value it stands
for (a power, partial sum, product or quotient) at every point of the input
balls.  Each step keeps it:

- a ball enters (``_enter``) with its centre's parts rounded to the nearest
  grid point and its radius rounded up, plus 1 ulp for the centre's
  rounding;
- a sum (``_grid_add``) adds centres and radii, exactly, and so does a
  scaling by an integer;
- a product (``_mul``) rounds its centre's parts to the nearest grid point
  with ``_round_scaled``, the one rounding rule; its radius is
  |x| r_y + |y| r_x + r_x r_y rounded up, plus 1 ulp for the centre
  rounding (at most sqrt(2)/2 ulp), where |x| is an ``isqrt`` rounded up
  (``_grid_abs``), or |re| when im = 0;
- the inverse 1/y (``_inv``) is exact as a disk: z -> 1/z maps the disk of
  centre y and radius r_y < |y| onto the disk of centre
  conj(y) / (|y|^2 - r_y^2) and radius r_y / (|y|^2 - r_y^2), so it only
  rounds that centre to the nearest grid point and that radius up, plus
  1 ulp;
- a truncation majorant enters in ulps, rounded up (``_ulps``).

A real input keeps im = 0 throughout, so real and complex inputs share one
loop and the real one takes no cross products.  ``_ball`` turns a grid
value back into a ball.

Guard bits: a loop at work bits (work = prec + 32) runs on the grid
W = work + _GUARD, and the grid adds K ulps to its result, K a few per
product.  For the q-series, whose partial results are near 1 and whose
nome's radius is about 2^-work relative to it, _GUARD = 40 keeps those
K 2^-W below 2^-30 of the nome's share for K up to 2^10.  The 40 bits add
one or two 30-bit digits to integers of 200 to 600 bits.

Containment contract: every operation returns a ball whose closed disk (or
closed interval for RealBall) contains f(z) for all z in the input balls.
Enlarging an input radius never shrinks an output enclosure.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from ..errors import CertificationError, DomainError
from .poly import as_fraction, power

_RAD_BITS = 32  # the prec of rad_up: a radius keeps at most _RAD_BITS + 1 significant bits

_ZERO = Fraction(0)


def _mpf_pair(t) -> tuple[int, int]:
    """The exact value of an mpmath mpf tuple as a pair (n, d) in lowest
    terms; a non-finite one (inf, nan) cannot be certified."""
    sign, man, exp, bc = t
    man, exp = int(man), int(exp)
    if man == 0:
        if exp == 0:
            return 0, 1
        raise CertificationError("non-finite value in mpmath result")
    if sign:
        man = -man
    return (man << exp, 1) if exp >= 0 else _reduce(man, 1 << -exp)


# -- the integer kernel: a rational is a pair (n, d) with d > 0 -------------


def _reduce(n: int, d: int) -> tuple[int, int]:
    """n/d in lowest terms: trailing zero bits stripped when d is a power of
    two, a gcd otherwise."""
    if d & (d - 1):
        g = gcd(n, d)
        return (n // g, d // g) if g > 1 else (n, d)
    if n & 1 or d == 1:
        return n, d
    if not n:
        return 0, 1
    t = min((n & -n).bit_length(), d.bit_length()) - 1
    return n >> t, d >> t


def _add(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """an/ad + bn/bd, not reduced; a shift when both denominators are powers of two."""
    if ad == bd:
        return an + bn, ad
    if ad & (ad - 1) or bd & (bd - 1):
        return an * bd + bn * ad, ad * bd
    if ad < bd:
        return (an << (bd.bit_length() - ad.bit_length())) + bn, bd
    return an + (bn << (ad.bit_length() - bd.bit_length())), ad


def _dmul(ad: int, bd: int) -> int:
    """The product of two denominators; a shift when either is a power of two."""
    if not ad & (ad - 1):
        return bd << (ad.bit_length() - 1)
    if not bd & (bd - 1):
        return ad << (bd.bit_length() - 1)
    return ad * bd


def _round_scaled(n: int, d: int, s: int, up: bool = False) -> int:
    """n 2^s / d rounded to an integer: to nearest, ties to even, or up when
    ``up``.  The one rounding rule of this module: a shift when d is a power
    of two, a divmod otherwise."""
    if d & (d - 1):
        if s >= 0:
            q, r = divmod(n << s, d)
        else:
            d <<= -s
            q, r = divmod(n, d)
    else:
        t = d.bit_length() - 1 - s
        if t <= 0:
            return n << -t
        q = n >> t
        r = n - (q << t)
        d = 1 << t
    if r and (up or 2 * r > d or (2 * r == d and q & 1)):
        return q + 1
    return q


def _round_sig(n: int, d: int, prec: int, up: bool = False) -> tuple[int, int]:
    """n/d rounded to at most ``prec`` + 1 significant bits, as (R, s) for
    the value R 2^-s.

    s = prec - (bit length of n - bit length of d).  For a power-of-two d
    that difference is floor(log2 |n/d|) in any terms, so |n/d| 2^s lies in
    [2^prec, 2^(prec+1)) and R has prec + 1 bits (or is 2^(prec+1), one
    significant bit, after a carry).  For another d it only brackets the
    binary exponent, so R has prec or prec + 1 bits; such an n/d must come
    in lowest terms."""
    s = prec - (abs(n).bit_length() - d.bit_length())
    return _round_scaled(n, d, s, up), s


def _scaled_pair(R: int, s: int) -> tuple[int, int]:
    """R 2^-s in lowest terms."""
    if s <= 0:
        return R << -s, 1
    return _reduce(R, 1 << s)


def _rad_up(n: int, d: int) -> tuple[int, int]:
    """The radius n/d >= 0 rounded up as ``_round_sig`` does at prec _RAD_BITS
    (at most _RAD_BITS + 1 significant bits), in lowest terms."""
    if d & (d - 1):
        n, d = _reduce(n, d)
    return _scaled_pair(*_round_sig(n, d, _RAD_BITS, True))


def _round_mid(n: int, d: int, prec: int) -> tuple[int, int, int, int]:
    """n/d (in lowest terms) rounded as ``_round_sig`` does (at most ``prec`` + 1
    significant bits): the value in lowest terms and the absolute rounding
    error, not reduced."""
    vn, vd = _scaled_pair(*_round_sig(n, d, prec))
    en, ed = _add(vn, vd, -n, d)
    return vn, vd, abs(en), ed


def _sqrt_up(n: int, d: int, bits: int = 64) -> tuple[int, int]:
    """r / (d 2^bits) >= sqrt(n/d), for n/d >= 0 in lowest terms; not reduced."""
    t = n * d << 2 * bits
    r = isqrt(t)
    if r * r < t:
        r += 1
    return r, d << bits


def _pair(x) -> tuple[int, int]:
    """An int or Fraction as (n, d)."""
    return x.numerator, x.denominator


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
    return Fraction(*_sqrt_up(x.numerator, x.denominator, bits))


def rad_up(r: Fraction) -> Fraction:
    """Round a radius up to a dyadic of at most _RAD_BITS + 1 significant bits
    (sound compaction)."""
    return Fraction(*_scaled_pair(*_round_sig(*_pair(r), _RAD_BITS, True)))


_new = object.__new__


def _real(mn: int, md: int, rn: int, rd: int) -> "RealBall":
    b = _new(RealBall)
    b._mn, b._md, b._rn, b._rd = mn, md, rn, rd
    return b


def _span(ln: int, ld: int, hn: int, hd: int) -> "RealBall":
    """The ball [lo, hi] from the endpoint pairs of lo <= hi."""
    mn, md = _add(ln, ld, hn, hd)
    rn, rd = _add(hn, hd, -ln, ld)
    mn, md = _reduce(mn, md << 1)
    rn, rd = _reduce(rn, rd << 1)
    return _real(mn, md, rn, rd)


class RealBall:
    """Closed interval [mid - rad, mid + rad] with exact rational endpoints."""

    # mid = _mn/_md and rad = _rn/_rd, each in lowest terms with a positive denominator
    __slots__ = ("_mn", "_md", "_rn", "_rd")

    def __init__(self, mid, rad=0):
        mid, rad = as_fraction(mid), as_fraction(rad)
        if rad < 0:
            raise DomainError("negative ball radius")
        self._mn, self._md = mid.numerator, mid.denominator
        self._rn, self._rd = rad.numerator, rad.denominator

    # -- constructors -------------------------------------------------

    @classmethod
    def exact(cls, q) -> "RealBall":
        return cls(q, _ZERO)

    @classmethod
    def from_endpoints(cls, lo, hi) -> "RealBall":
        lo, hi = Fraction(lo), Fraction(hi)
        if hi < lo:
            raise DomainError("empty interval")
        return _span(lo.numerator, lo.denominator, hi.numerator, hi.denominator)

    # -- views ---------------------------------------------------------

    @property
    def mid(self) -> Fraction:
        return Fraction(self._mn, self._md)

    @property
    def rad(self) -> Fraction:
        return Fraction(self._rn, self._rd)

    # each view below builds one Fraction, and so takes one gcd

    @property
    def lo(self) -> Fraction:
        return Fraction(*_add(self._mn, self._md, -self._rn, self._rd))

    @property
    def hi(self) -> Fraction:
        return Fraction(*_add(self._mn, self._md, self._rn, self._rd))

    def abs_upper(self) -> Fraction:
        return Fraction(*_add(abs(self._mn), self._md, self._rn, self._rd))

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
        mn, md = _reduce(*_add(self._mn, self._md, other._mn, other._md))
        rn, rd = _reduce(*_add(self._rn, self._rd, other._rn, other._rd))
        return _real(mn, md, rn, rd)

    __radd__ = __add__

    def __neg__(self):
        return _real(-self._mn, self._md, self._rn, self._rd)

    def __sub__(self, other):
        return self + -as_real_ball(other)

    def __mul__(self, other):
        other = as_real_ball(other)
        an, ad, ran, rad = self._mn, self._md, self._rn, self._rd
        bn, bd, rbn, rbd = other._mn, other._md, other._rn, other._rd
        mn, md = _reduce(an * bn, _dmul(ad, bd))
        # |a| rb + |b| ra + ra rb
        rn, rd = _add(*_add(abs(an) * rbn, _dmul(ad, rbd), abs(bn) * ran, _dmul(bd, rad)),
                      ran * rbn, _dmul(rad, rbd))
        rn, rd = _reduce(rn, rd)
        return _real(mn, md, rn, rd)

    __rmul__ = __mul__

    def inverse(self) -> "RealBall":
        if abs(self.mid) <= self.rad:
            raise DomainError("inverse of interval containing zero")
        m, r = self.mid, self.rad
        lo, hi = sorted((1 / (m - r), 1 / (m + r)))
        return RealBall.from_endpoints(lo, hi)

    def __truediv__(self, other):
        return self * as_real_ball(other).inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise DomainError("integer power >= 0 expected")
        return power(self, k, RealBall.exact(1))

    def __abs__(self):
        mn, md, rn, rd = self._mn, self._md, self._rn, self._rd
        if abs(mn) * rd >= rn * md:
            return _real(abs(mn), md, rn, rd)
        return RealBall.from_endpoints(_ZERO, self.abs_upper())

    def widen(self, err) -> "RealBall":
        """Same midpoint, radius rad + err rounded up to a short dyadic."""
        rn, rd = _rad_up(*_add(self._rn, self._rd, *_pair(err)))
        return _real(self._mn, self._md, rn, rd)

    def round_to(self, prec: int) -> "RealBall":
        """Midpoint rounded to at most ``prec`` + 1 significant bits (``prec`` + 1
        for a dyadic one); the radius grows by the rounding error and is
        rounded up as in ``widen``."""
        mn, md, en, ed = _round_mid(self._mn, self._md, prec)
        rn, rd = _rad_up(*_add(self._rn, self._rd, en, ed))
        return _real(mn, md, rn, rd)

    def round_to_grid(self, w: int) -> "RealBall":
        """Midpoint rounded to the nearest multiple of 2^-w; the radius grows
        by 2^-w, which covers that rounding and keeps the radius >= 2^-w."""
        unit = 1 << w
        mn, md = _reduce(_round_scaled(self._mn, self._md, w), unit)
        rn, rd = _rad_up(*_add(self._rn, self._rd, 1, unit))
        return _real(mn, md, rn, rd)

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


def as_real_ball(x) -> RealBall:
    """A RealBall as is; an int or Fraction as the exact ball around it."""
    if isinstance(x, RealBall):
        return x
    if isinstance(x, (int, Fraction)):
        return _real(x.numerator, x.denominator, 0, 1)
    raise TypeError(f"cannot coerce {type(x)!r} to RealBall")


# -- transcendental functions (rigorous via directed rounding) ------------


def _libmp_interval(fname: str, prec: int, *x: RealBall) -> RealBall:
    """The ``mpmath.libmp.libmpi`` interval function ``fname`` at max(8, prec)
    bits, on the ball x with each endpoint rounded outward once (on no ball
    for a constant), read back exactly."""
    # imported on first use: only these kernels need mpmath
    from mpmath.libmp import from_rational, libmpi, round_ceiling, round_floor

    prec = max(8, prec)
    ivs = [(from_rational(*_add(b._mn, b._md, -b._rn, b._rd), prec, round_floor),
            from_rational(*_add(b._mn, b._md, b._rn, b._rd), prec, round_ceiling)) for b in x]
    lo, hi = getattr(libmpi, fname)(*ivs, prec)
    return _span(*_mpf_pair(lo), *_mpf_pair(hi))


def ball_exp(x, prec: int) -> RealBall:
    return _libmp_interval("mpi_exp", prec, as_real_ball(x))


def ball_sin(x, prec: int) -> RealBall:
    return _libmp_interval("mpi_sin", prec, as_real_ball(x))


def ball_cos(x, prec: int) -> RealBall:
    return _libmp_interval("mpi_cos", prec, as_real_ball(x))


def ball_log(x, prec: int) -> RealBall:
    x = as_real_ball(x)
    if x.lo <= 0:
        raise DomainError("log of interval touching (-inf, 0]")
    return _libmp_interval("mpi_log", prec, x)


def ball_sqrt(x, prec: int) -> RealBall:
    x = as_real_ball(x)
    if x.lo < 0:
        raise DomainError("sqrt of interval reaching below 0")
    return _libmp_interval("mpi_sqrt", prec, x)


def ball_pi(prec: int) -> RealBall:
    return _libmp_interval("mpi_pi", prec)


def ball_e(prec: int) -> RealBall:
    return ball_exp(RealBall.exact(1), prec)


def ball_root(x, k: int, prec: int) -> RealBall:
    """Positive k-th root of a positive interval."""
    if k <= 0:
        raise DomainError("root index must be positive")
    if k == 1:
        return as_real_ball(x)
    if k == 2:
        return ball_sqrt(x, prec)
    return ball_exp(ball_log(x, prec) / k, prec)


def _complex(xn: int, xd: int, yn: int, yd: int, rn: int, rd: int) -> "ComplexBall":
    b = _new(ComplexBall)
    b._xn, b._xd, b._yn, b._yd, b._rn, b._rd = xn, xd, yn, yd, rn, rd
    return b


def _abs_up(xn: int, xd: int, yn: int, yd: int) -> tuple[int, int]:
    """sqrt_up(x^2 + y^2) for x = xn/xd, y = yn/yd, as a pair (not reduced)."""
    return _sqrt_up(*_reduce(*_add(xn * xn, _dmul(xd, xd), yn * yn, _dmul(yd, yd))))


class ComplexBall:
    """Closed disk of radius rad around an exact rational point re + im*i."""

    # re = _xn/_xd, im = _yn/_yd and rad = _rn/_rd, each in lowest terms
    __slots__ = ("_xn", "_xd", "_yn", "_yd", "_rn", "_rd")

    def __init__(self, re, im=0, rad=0):
        re, im, rad = as_fraction(re), as_fraction(im), as_fraction(rad)
        if rad < 0:
            raise DomainError("negative ball radius")
        self._xn, self._xd = re.numerator, re.denominator
        self._yn, self._yd = im.numerator, im.denominator
        self._rn, self._rd = rad.numerator, rad.denominator

    @classmethod
    def exact(cls, re, im=0) -> "ComplexBall":
        return cls(re, im, _ZERO)

    @classmethod
    def from_real_pair(cls, x: RealBall, y: RealBall) -> "ComplexBall":
        """Smallest disk around the box [x.lo,x.hi] x [y.lo,y.hi]."""
        rn, rd = _reduce(*_abs_up(x._rn, x._rd, y._rn, y._rd))
        return _complex(x._mn, x._md, y._mn, y._md, rn, rd)

    @property
    def re(self) -> Fraction:
        return Fraction(self._xn, self._xd)

    @property
    def im(self) -> Fraction:
        return Fraction(self._yn, self._yd)

    @property
    def rad(self) -> Fraction:
        return Fraction(self._rn, self._rd)

    def __repr__(self):
        return f"ComplexBall({self.re}, {self.im}, {self.rad})"

    @property
    def real(self) -> RealBall:
        """The interval of the real parts of the disk's points."""
        return _real(self._xn, self._xd, self._rn, self._rd)

    @property
    def imag(self) -> RealBall:
        """The interval of the imaginary parts of the disk's points."""
        return _real(self._yn, self._yd, self._rn, self._rd)

    def abs_sq_mid(self) -> Fraction:
        re, im = self.re, self.im
        return re * re + im * im

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
        xn, xd = _reduce(*_add(self._xn, self._xd, other._xn, other._xd))
        yn, yd = _reduce(*_add(self._yn, self._yd, other._yn, other._yd))
        rn, rd = _reduce(*_add(self._rn, self._rd, other._rn, other._rd))
        return _complex(xn, xd, yn, yd, rn, rd)

    __radd__ = __add__

    def __neg__(self):
        return _complex(-self._xn, self._xd, -self._yn, self._yd, self._rn, self._rd)

    def __sub__(self, other):
        return self + -as_complex_ball(other)

    def __mul__(self, other):
        other = as_complex_ball(other)
        an, ad, bn, bd, rz, rzd = self._xn, self._xd, self._yn, self._yd, self._rn, self._rd
        cn, cd, dn, dd, rw, rwd = other._xn, other._xd, other._yn, other._yd, other._rn, other._rd
        xn, xd = _reduce(*_add(an * cn, _dmul(ad, cd), -bn * dn, _dmul(bd, dd)))  # ac - bd
        yn, yd = _reduce(*_add(an * dn, _dmul(ad, dd), bn * cn, _dmul(bd, cd)))  # ad + bc
        # |z*w - m_z*m_w| <= |m_z| r_w + |m_w| r_z + r_z r_w
        rn, rd = rz * rw, _dmul(rzd, rwd)
        if rw:
            zn, zd = _abs_up(an, ad, bn, bd)
            rn, rd = _add(rn, rd, zn * rw, _dmul(zd, rwd))
        if rz:
            wn, wd = _abs_up(cn, cd, dn, dd)
            rn, rd = _add(rn, rd, wn * rz, _dmul(wd, rzd))
        rn, rd = _reduce(rn, rd)
        return _complex(xn, xd, yn, yd, rn, rd)

    __rmul__ = __mul__

    def inverse(self) -> "ComplexBall":
        # mod_lo <= |m| - r, so this one check makes den, mod_lo and mod_lo - r positive
        mod_lo = self.abs_lower()
        if mod_lo <= self.rad:
            raise DomainError("inverse of disk containing zero")
        den = self.abs_sq_mid()
        # |1/w - 1/m| <= r / (|m| (|m| - r)) for |w - m| <= r < |m|
        rad = self.rad / (mod_lo * (mod_lo - self.rad))
        return ComplexBall(self.re / den, -self.im / den, rad)

    def __truediv__(self, other):
        return self * as_complex_ball(other).inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise DomainError("integer power >= 0 expected")
        return power(self, k, ComplexBall.exact(1))

    def widen(self, err) -> "ComplexBall":
        """Same midpoint, radius rad + err rounded up to a short dyadic."""
        rn, rd = _rad_up(*_add(self._rn, self._rd, *_pair(err)))
        return _complex(self._xn, self._xd, self._yn, self._yd, rn, rd)

    def round_to(self, prec: int) -> "ComplexBall":
        """Both parts of the centre rounded to at most ``prec`` + 1 significant
        bits, as in ``RealBall.round_to``; the radius grows by the length of
        the rounding error, as in ``widen``."""
        xn, xd, e1n, e1d = _round_mid(self._xn, self._xd, prec)
        yn, yd, e2n, e2d = _round_mid(self._yn, self._yd, prec)
        en, ed = _abs_up(e1n, e1d, e2n, e2d)
        rn, rd = _rad_up(*_add(self._rn, self._rd, en, ed))
        return _complex(xn, xd, yn, yd, rn, rd)


def as_complex_ball(x) -> ComplexBall:
    """x as a ComplexBall; a RealBall becomes the disk with its midpoint and radius."""
    if isinstance(x, ComplexBall):
        return x
    if isinstance(x, RealBall):
        return _complex(x._mn, x._md, 0, 1, x._rn, x._rd)
    if isinstance(x, (int, Fraction)):
        return _complex(x.numerator, x.denominator, 0, 1, 0, 1)
    raise TypeError(f"cannot coerce {type(x)!r} to ComplexBall")


def ball_cexp(z: ComplexBall, prec: int) -> ComplexBall:
    """exp of a complex ball: exp(x)(cos y + i sin y) with escape term e^r - 1.
    At y = 0 exactly, cos y = 1 and sin y = 0 (mpmath returns exactly these),
    so the centre is the disk of exp(x), with no cosine or sine taken."""
    ex = ball_exp(RealBall.exact(z.re), prec)
    if z.im == 0:
        centre = as_complex_ball(ex)
    else:
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


# -- the fixed-point grid: (re, im, rad) is the disk of radius rad 2^-W around
# (re + i im) 2^-W (module docstring)

_GUARD = 40  # grid bits past work = prec + 32


def _ulps(x: Fraction, W: int, up: bool = False) -> int:
    """x 2^W rounded to an integer: to nearest, or up when ``up``."""
    return _round_scaled(x.numerator, x.denominator, W, up)


def _enter(q: RealBall | ComplexBall, W: int) -> tuple:
    """The ball q on the grid: its centre rounded, its radius rounded up,
    plus 1 ulp for the centre."""
    z = as_complex_ball(q)
    return _ulps(z.re, W), _ulps(z.im, W), _ulps(z.rad, W, True) + 1


def _grid_abs(re: int, im: int) -> int:
    """|re + i im| rounded up to an integer."""
    if not im:
        return abs(re)
    n = re * re + im * im
    r = isqrt(n)
    return r if r * r == n else r + 1


def _mul(x: tuple, y: tuple, W: int) -> tuple:
    xr, xi, xe = x
    yr, yi, ye = y
    if xi or yi:
        re = _round_scaled(xr * yr - xi * yi, 1, -W)
        im = _round_scaled(xr * yi + xi * yr, 1, -W)
    else:
        re, im = _round_scaled(xr * yr, 1, -W), 0
    err = _grid_abs(xr, xi) * ye + _grid_abs(yr, yi) * xe + xe * ye
    return re, im, _round_scaled(err, 1, -W, True) + 1


def _inv(y: tuple, W: int) -> tuple:
    """1/y: z -> 1/z maps the disk |z - b| <= r < |b| onto the disk of
    centre conj(b) / (|b|^2 - r^2) and radius r / (|b|^2 - r^2)."""
    yr, yi, ye = y
    d = yr * yr + yi * yi - ye * ye
    if d <= 0:
        raise DomainError("inverse of disk containing zero")
    W2 = 2 * W
    return (_round_scaled(yr, d, W2), _round_scaled(-yi, d, W2),
            _round_scaled(ye, d, W2, True) + 1)


def _grid_add(x: tuple, y: tuple, k: int = 1) -> tuple:
    """x + k y, exactly."""
    return x[0] + k * y[0], x[1] + k * y[1], x[2] + abs(k) * y[2]


def _ball(v: tuple, W: int, q: RealBall | ComplexBall) -> RealBall | ComplexBall:
    """The grid value v as a ball of q's type (a real input's values are real)."""
    re, im, rad = (Fraction(x, 1 << W) for x in v)
    return RealBall(re, rad) if isinstance(q, RealBall) else ComplexBall(re, im, rad)
