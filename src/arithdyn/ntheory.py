"""Small number-theory helpers shared across the package: primality,
factorization of integers, prime divisors, p-adic valuation."""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, ResourceGuardError


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


# prime_divisors trial-divides a number at or above PROVEN_PRIME_BOUND by
# every odd d below this limit before looking for a perfect-power root
_TRIAL_LIMIT = 1 << 16


def prime_divisors(n: int) -> list[int]:
    """Distinct primes dividing n, increasing, each one proven prime.

    Below ``PROVEN_PRIME_BOUND`` this is ``factorize``.  Larger n are
    trial-divided up to ``_TRIAL_LIMIT``; a cofactor that is a perfect power
    is replaced by its root, and one then below the bound is factorized.  A
    cofactor still at or above the bound raises ResourceGuardError.
    """
    n = abs(n)
    if n < PROVEN_PRIME_BOUND:
        return sorted(factorize(n)) if n > 1 else []
    out = []
    d = 2
    while d < _TRIAL_LIMIT and d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if d * d > n:
        return out + [n] if n > 1 else out
    while n >= PROVEN_PRIME_BOUND and (root := _perfect_power_root(n)) is not None:
        n = root
    if n >= PROVEN_PRIME_BOUND:
        raise ResourceGuardError(
            f"a {n.bit_length()}-bit cofactor above {PROVEN_PRIME_BOUND} cannot be factored")
    return out + sorted(factorize(n))


def _perfect_power_root(n: int) -> int | None:
    """r with r^k = n for a prime k, or None when n is not a perfect power.

    n has no prime factor below ``_TRIAL_LIMIT``, so k <= log n / log limit.
    """
    for k in range(2, n.bit_length() // (_TRIAL_LIMIT.bit_length() - 1) + 1):
        if is_prime(k) and (r := _iroot(n, k)) ** k == n:
            return r
    return None


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1: Newton's method from a float estimate above."""
    if k == 2:
        return math.isqrt(n)
    e = max(0, n.bit_length() // k - 48)  # n^(1/k) ~ est * 2^e, est < 2^50
    x = (int(math.exp(math.log(n >> e * k) / k) * (1 + 1e-9)) + 2) << e
    while x ** k <= n:
        x <<= 1
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


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
