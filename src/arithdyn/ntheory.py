"""Small number-theory helpers shared across the package: primality,
factorization of integers, prime divisors, p-adic valuation."""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division + Pollard rho (deterministic)."""
    if n <= 0:
        raise DomainError("factorization needs a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.extend([d, m // d])
    return out


# Miller-Rabin to the first thirteen prime bases is a proof of primality below
# this bound (Sorenson-Webster 2015); the first twelve stop at 3.2e23.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PROVEN_PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin to the first thirteen prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    for c in range(1, 1000):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise DomainError(f"failed to split {n}")


def prime_divisors(n: int) -> list[int]:
    """Distinct primes dividing n, increasing.

    Below ``PROVEN_PRIME_BOUND`` every factor ``factorize`` returns is a
    proven prime; larger n fall back to trial division up to sqrt(n).
    """
    n = abs(n)
    if 1 < n < PROVEN_PRIME_BOUND:
        return sorted(factorize(n))
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def valuation(x, p: int) -> int:
    """The p-adic valuation v_p(x) of a nonzero rational x."""
    x = Fraction(x)
    if x == 0:
        raise DomainError("valuation of zero")
    v = 0
    n, d = x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v
