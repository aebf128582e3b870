"""Extremal part-count combinatorics for partitions with polynomially
bounded sub-sums.

A multiset of positive integers d_1..d_M with sum X is *admissible* for
(c, theta) when sum_{d_i <= R} d_i <= c R^theta for all R > 0.  Since the
left side is a right-continuous step function jumping only at integer part
values and the right side is increasing, it suffices to check R at the
distinct part values.

The extremal construction fixes M and greedily minimizes X: level k takes
a_k maximal with sum_{i<=k} i a_i <= c k^theta (a_1 = floor(c)), cut off once
M parts are reached.  The construction and the admissibility check both
compare integer sums with floor(c k^theta), taken exactly by ``_cap``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from ..errors import DomainError, ResourceGuardError
from ..ntheory import iroot

ORACLE_CAP = 40
# the most parts of a construction: its cost and its printed witness grow
# linearly in M (M = 10^6 took 36 s and printed 18 MB)
CONSTRUCTION_CAP = 100_000
# the most bits of u^q k^|p| in ``_cap`` (c = u/v, theta = p/q), bounded by
# q bitlen(u) + |p| bitlen(k): one floor(c k^theta) took 8 us at 2,000 bits,
# 0.2 ms at 20,000 and 4 ms at 100,000, the root's cost growing with its
# size and its index q (CPython 3.11, 2-core host)
ROOT_BITS_CAP = 4096


def _cap(c: Fraction, k: int, theta: Fraction) -> int:
    """floor(c * k**theta) for c > 0 and k >= 1, exactly: with c = u/v and
    theta = p/q it is floor((u^q k^p)^(1/q)) // v, k^|p| dividing when p < 0."""
    p, q = theta.numerator, theta.denominator
    u = c.numerator
    if q * u.bit_length() + abs(p) * k.bit_length() > ROOT_BITS_CAP:
        raise ResourceGuardError(f"floor(c k^theta) at c = {c}, theta = {theta}, k = {k} "
                                 f"needs more than {ROOT_BITS_CAP} bits")
    return iroot(u ** q * k ** max(p, 0) // k ** max(-p, 0), q) // c.denominator


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
        # c k^theta grows with k, so weighted <= _cap(c, k - 1, theta) <= _cap(c, k, theta)
        a = min((_cap(c, k, theta) - weighted) // k, M - total)
        counts.append(a)
        weighted += k * a
        total += a
    witness = []
    for i, a in enumerate(counts, start=1):
        witness.extend([i] * a)
    return ExtremalConstruction(weighted, tuple(counts), tuple(witness))


def admissible(parts, c, theta) -> bool:
    """Exact sub-sum condition check (c > 0).  Checking at every part in
    increasing order checks the distinct part values, each at the last of its
    run, and adds nothing: a partial run's sum is below the whole run's."""
    c, theta = Fraction(c), Fraction(theta)
    parts = sorted(parts)
    return all(prefix <= _cap(c, v, theta) for v, prefix in zip(parts, accumulate(parts)))


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
    if c <= 0:
        raise DomainError("need c > 0")
    best = None
    for parts in _partitions(X, X):
        if best is not None and len(parts) <= best[0]:
            continue
        if admissible(parts, c, theta):
            best = (len(parts), tuple(sorted(parts)))
    if best is None:
        raise DomainError("no admissible partition (c too small?)")
    return OracleResult(best[0], best[1])
