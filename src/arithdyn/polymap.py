"""Monic polynomial dynamical systems over Q."""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, ResourceGuardError
from .exactnum import RatPoly, parse_poly

DEFAULT_DEGREE_CAP = 4096


class PolyMap:
    """A monic polynomial of degree D >= 2 viewed as z -> P(z)."""

    __slots__ = ("poly",)

    def __init__(self, poly: RatPoly):
        if poly.is_zero() or poly.degree < 2:
            raise DomainError("map must have degree at least 2")
        if not poly.is_monic():
            raise DomainError("map must be monic; conjugate by a suitable gamma first")
        self.poly = poly

    def __eq__(self, other):
        return isinstance(other, PolyMap) and self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    def __repr__(self):
        return f"PolyMap({self.poly!r})"

    @classmethod
    def from_text(cls, text: str) -> "PolyMap":
        return cls(parse_poly(text))

    @property
    def degree(self) -> int:
        return self.poly.degree

    def coefficient(self, i: int) -> Fraction:
        """a_i = coefficient of X^(D-i), i = 1..D (a_0 = 1 is the lead)."""
        if not 0 <= i <= self.degree:
            raise DomainError(f"coefficient index {i} out of range")
        return Fraction(self.poly[self.degree - i])

    def lower_coefficients(self) -> list[Fraction]:
        """[a_1, ..., a_D]."""
        return [self.coefficient(i) for i in range(1, self.degree + 1)]

    @property
    def escape_radius(self) -> Fraction:
        """R = 1 + sum |a_i|: |z| > R implies |P(z)| > |z|, and 2R is the
        radius from which the Boettcher series converge certifiably."""
        return 1 + sum(abs(c) for c in self.lower_coefficients())

    def eval(self, x) -> Fraction:
        return self.poly.eval(Fraction(x))

    def iterate_poly(self, n: int, degree_cap: int = DEFAULT_DEGREE_CAP) -> RatPoly:
        """Exact expanded n-th iterate (degree D**n); X for n = 0."""
        if n < 0:
            raise DomainError("iteration count must be >= 0")
        self.check_iterate_degree(n, degree_cap)
        out = RatPoly([Fraction(0), Fraction(1)])
        for _ in range(n):
            out = self.poly.compose(out)
        return out

    def check_iterate_degree(self, n: int, degree_cap: int) -> None:
        """Raise ResourceGuardError when D**n exceeds the cap.  D**n >= 2**n,
        so D**n is formed only for n below the cap's bit length."""
        if n >= degree_cap.bit_length() or self.degree ** n > degree_cap:
            raise ResourceGuardError(f"iterate degree {self.degree}^{n} exceeds cap {degree_cap}")

    def __str__(self):
        return str(self.poly)
