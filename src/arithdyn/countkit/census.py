"""Bounded-height rational census with certified exclusion verdicts.

For each rational q of height <= H in (0,1) the evaluator produces a ball
around f(q).  Distinct rationals with denominator <= H are at least 1/H^2
apart, so a ball of radius below 1/(2 H^2) contains at most one of them;
the closest one is found exactly (Stern-Brocot via Fraction.limit_denominator
on the exact rational midpoint) and compared against the radius.  Absence
of rational values is certifiable; presence is only ever reported as a
candidate.  A value certified to be exactly 0 is excluded from candidacy
(it is recorded with candidate 0 and an exclusion flag, and not counted).

The scan domain is exactly the open interval (0,1).  Evaluators whose decay
region strictly contains (0,1) are only censused on (0,1); points outside
are out of scope for this tool.  ``make_evaluator`` builds the evaluator of
each census function, including the disk pullback tau = 2i/(1-q) of lambda
and the discriminant.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple

from ..errors import DomainError, ResourceGuardError
from ..exactnum import ComplexBall, RealBall
from ..heights import rational_height
from ..polymap import PolyMap
from .modular import delta_eval, lambda_eval, modular_constants

Evaluator = Callable[[Fraction, int], RealBall]

# (numerator, denominator) pairs a census may scan (H up to 447)
_MAX_PAIRS = 10 ** 5


def enumerate_rationals(H) -> list[Fraction]:
    """All p/q in (0,1) with height max(p, q) = q <= H, by (denominator, numerator)."""
    H = Fraction(H)
    if H < 1:
        raise DomainError("H must be >= 1")
    top = math.floor(H)
    if top * (top - 1) // 2 > _MAX_PAIRS:
        raise ResourceGuardError(f"census scan exceeds {_MAX_PAIRS} (numerator, denominator) pairs")
    out = []
    for q in range(2, top + 1):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                out.append(Fraction(p, q))
    return out


class CensusRecord(NamedTuple):
    q: Fraction
    value: RealBall
    verdict: str  # certified-no-rational | candidate-rational | undecided-at-precision
    candidate: Fraction | None
    precision_used: int
    excluded_zero: bool = False


class CensusResult(NamedTuple):
    height: Fraction
    precision: int
    records: tuple[CensusRecord, ...]

    @property
    def count(self) -> int:
        """Candidate-rational records, certified zeros excluded."""
        return sum(r.verdict == "candidate-rational" and not r.excluded_zero for r in self.records)

    def verdict_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.records:
            out[r.verdict] = out.get(r.verdict, 0) + 1
        return out


def _classify(q: Fraction, v: RealBall, H: Fraction, prec: int) -> CensusRecord | None:
    """One classification attempt; None means escalate precision."""
    top = math.floor(H)
    if v.rad == 0 and v.mid == 0:
        return CensusRecord(q, v, "candidate-rational", Fraction(0), prec, excluded_zero=True)
    cand = v.mid.limit_denominator(top)
    dist = abs(cand - v.mid)
    if dist > v.rad:
        return CensusRecord(q, v, "certified-no-rational", None, prec)
    if 2 * v.rad * top * top < 1:
        # at most one rational of denominator <= H fits in the ball
        if rational_height(cand) <= H:
            return CensusRecord(q, v, "candidate-rational", cand, prec)
        return CensusRecord(q, v, "certified-no-rational", None, prec)
    return None


def census_records(evaluator: Evaluator, qs, H, precision: int = 128,
                   escalations: int = 1) -> list[CensusRecord]:
    """Classify f(q) for the given rationals (used for chunked parallel runs)."""
    if escalations < 0:
        raise DomainError(f"escalations must be >= 0, got {escalations}")
    H = Fraction(H)
    records = []
    for q in qs:
        prec = precision
        for attempt in range(escalations + 1):
            if attempt:
                prec *= 4
            v = evaluator(q, prec)
            rec = _classify(q, v, H, prec)
            if rec is not None:
                break
        else:  # the last ball classified, at the precision it was taken at
            rec = CensusRecord(q, v, "undecided-at-precision", None, prec)
        records.append(rec)
    return records


CENSUS_FUNCTIONS = ("square", "const", "lambda", "delta", "fstar")


def make_evaluator(function: str, *, value=Fraction(1, 2), N: int = 16, map_text: str = "X^2",
                   alpha=Fraction(4), precision: int | None = None) -> Evaluator:
    """The census evaluator (q, prec) -> ball around f(q) for one of CENSUS_FUNCTIONS.

    square and const (``value``) are exact; lambda and delta (at most N terms) are taken
    at tau = 2i/(1-q), fstar (``map_text`` at ``alpha``, order N) at tau = i(1+q)/(1-q).
    These three reject q outside (0,1), and build their constants once per precision:
    pi and (2 pi)^12, or the Boettcher frame, phi(alpha) and pi.
    ``precision`` is the census's first-round precision: lambda and delta then sum
    at most N * (prec // precision) terms at an escalated prec (x4 terms per x4 bits),
    so that an escalation narrows the ball rather than stopping at the same N-term tail.
    """
    if function == "square":
        return lambda q, prec: RealBall.exact(q * q)
    if function == "const":
        value = Fraction(value)
        return lambda q, prec: RealBall.exact(value)
    if function in ("lambda", "delta"):
        evaluate = lambda_eval if function == "lambda" else delta_eval
        build = modular_constants

        def on_axis(q: Fraction, prec: int, constants) -> ComplexBall:
            cap = N * max(1, prec // precision) if precision else N
            return evaluate(ComplexBall(0, 2 / (1 - q)), cap, prec, constants).value
    elif function == "fstar":
        from ..boettcher import fstar_constants, fstar_eval  # lazy: only this function needs it

        P, alpha = PolyMap.from_text(map_text), Fraction(alpha)

        def build(prec: int):
            return fstar_constants(P, alpha, N, prec)

        def on_axis(q: Fraction, prec: int, constants) -> ComplexBall:
            tau = ComplexBall(0, (1 + q) / (1 - q))
            return fstar_eval(P, alpha, tau, N=N, prec=prec, constants=constants).value
    else:
        raise DomainError(f"unknown census function {function!r}")
    by_prec = {}

    def pullback(q: Fraction, prec: int) -> RealBall:
        if not 0 < q < 1:
            raise DomainError("q must lie in (0,1)")
        if prec not in by_prec:
            by_prec[prec] = build(prec)
        return on_axis(q, prec, by_prec[prec]).real

    return pullback
