"""Extremal part-count combinatorics for partitions with polynomially
bounded sub-sums.

A multiset of positive integers d_1..d_M with sum X is *admissible* for
(c, theta) when sum_{d_i <= R} d_i <= c R^theta for all R > 0.  Since the
left side is a right-continuous step function jumping only at integer part
values and the right side is increasing, it suffices to check R at the
distinct part values.

The extremal construction fixes M and greedily minimizes X: a_1 = floor(c)
parts equal to 1, then a_k maximal with sum_{i<=k} i a_i <= c k^theta, cut
off once M parts are reached (leftover parts get value m+1).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from ..errors import DomainError, ResourceGuardError

ORACLE_CAP = 40
# the most parts of a construction: its cost and its printed witness grow
# linearly in M (M = 10^6 took 36 s and printed 18 MB)
CONSTRUCTION_CAP = 100_000


def _le_c_pow(s: Fraction, c: Fraction, k: int, theta: Fraction) -> bool:
    """Exact test s <= c * k**theta for rational theta = p/q (s >= 0)."""
    p, q = theta.numerator, theta.denominator
    if s <= 0:
        return True
    return (s / c) ** q <= Fraction(k) ** p


class ExtremalConstruction(NamedTuple):
    X_min: int
    counts: tuple[int, ...]  # a_1 .. a_m (last level possibly clipped at M parts)
    witness: tuple[int, ...]  # the multiset itself


def power_lemma_min_X(M: int, c, theta) -> ExtremalConstruction:
    """Minimal admissible sum X for a fixed part count M, with the witness."""
    c, theta = Fraction(c), Fraction(theta)
    if M < 1:
        raise DomainError("M must be >= 1")
    if M > CONSTRUCTION_CAP:
        raise ResourceGuardError(f"construction capped at M <= {CONSTRUCTION_CAP}")
    if c < 1 or theta < 2:
        raise DomainError("need c >= 1 and theta >= 2")
    counts: list[int] = []
    weighted = 0  # sum i * a_i
    total = 0  # sum a_i
    k = 0
    while total < M:
        k += 1
        if k == 1:
            a = int(c)
        else:
            # maximal a with weighted + k*a <= c * k^theta
            lo, hi = 0, 1
            while _le_c_pow(Fraction(weighted + k * hi), c, k, theta):
                hi *= 2
            while lo < hi - 1:
                mid = (lo + hi) // 2
                if _le_c_pow(Fraction(weighted + k * mid), c, k, theta):
                    lo = mid
                else:
                    hi = mid
            a = lo
        a = min(a, M - total)
        counts.append(a)
        weighted += k * a
        total += a
    witness = []
    for i, a in enumerate(counts, start=1):
        witness.extend([i] * a)
    return ExtremalConstruction(weighted, tuple(counts), tuple(witness))


def admissible(parts, c, theta) -> bool:
    """Exact sub-sum condition check at the distinct part values."""
    c, theta = Fraction(c), Fraction(theta)
    parts = sorted(parts)
    prefix = 0
    i = 0
    n = len(parts)
    while i < n:
        v = parts[i]
        while i < n and parts[i] == v:
            prefix += parts[i]
            i += 1
        if not _le_c_pow(Fraction(prefix), c, v, theta):
            return False
    return True


def _partitions(n: int, cap: int):
    """Non-increasing partitions of n with parts <= cap."""
    if n == 0:
        yield []
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield [first] + rest


class OracleResult(NamedTuple):
    max_M: int
    witness: tuple[int, ...]


def power_lemma_oracle(X: int, c, theta) -> OracleResult:
    """Exhaustive maximum part count over admissible partitions of X."""
    if X < 1:
        raise DomainError("X must be >= 1")
    if X > ORACLE_CAP:
        raise ResourceGuardError(f"exhaustive oracle capped at X <= {ORACLE_CAP}")
    c, theta = Fraction(c), Fraction(theta)
    best = None
    for parts in _partitions(X, X):
        if best is not None and len(parts) <= best[0]:
            continue
        if admissible(parts, c, theta):
            best = (len(parts), tuple(sorted(parts)))
    if best is None:
        raise DomainError("no admissible partition (c too small?)")
    return OracleResult(best[0], best[1])
