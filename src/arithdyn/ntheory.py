"""Small number-theory helpers shared across the package: primality, the
odd primes in order, factorization of integers, prime divisors, p-adic
valuation, rationals reduced modulo an integer, and the Legendre symbol and
square roots modulo an odd prime."""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, ResourceGuardError


# Miller-Rabin to the first thirteen prime bases is a proof of primality below
# this bound (Sorenson-Webster 2015); the first twelve stop at 3.2e23.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PROVEN_PRIME_BOUND = 3317044064679887385961981

# factorize trial-divides a number at or above PROVEN_PRIME_BOUND by every
# odd d below this limit before looking for a perfect-power root; below the
# bound it stops at 37 and Pollard rho splits the rest
_TRIAL_LIMIT = 1 << 16


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1, each p proven prime.

    Below ``PROVEN_PRIME_BOUND``: trial division by the primes to 37, then
    Pollard rho, with ``is_prime`` as the proof.  At or above it: trial
    division up to ``_TRIAL_LIMIT``; a cofactor r^k that is a perfect power is
    replaced by r, whose primes get exponents times k; a cofactor then below
    the bound is factorized, and one still at or above it raises
    ResourceGuardError.
    """
    if n <= 0:
        raise DomainError("factorization needs a positive integer")
    out: dict[int, int] = {}
    limit = _TRIAL_LIMIT if n >= PROVEN_PRIME_BOUND else 38
    d = 2
    while d < limit and d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    k = 1
    while n >= PROVEN_PRIME_BOUND and (root := _perfect_power_root(n)) is not None:
        n, k = root[0], k * root[1]
    if n >= PROVEN_PRIME_BOUND:
        raise ResourceGuardError(
            f"a {n.bit_length()}-bit cofactor above {PROVEN_PRIME_BOUND} cannot be factored")
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + k
        else:
            d = _pollard_rho(m)
            stack.extend([d, m // d])
    return out


def is_prime(n: int) -> bool:
    """Miller-Rabin to the first thirteen prime bases: a proof below
    ``PROVEN_PRIME_BOUND``.  At or above it a witness still proves n
    composite, but a probable prime raises ResourceGuardError."""
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
    if n >= PROVEN_PRIME_BOUND:
        raise ResourceGuardError(
            f"a {n.bit_length()}-bit probable prime above {PROVEN_PRIME_BOUND} is not proven prime")
    return True


def primes_from(start: int):
    """The odd primes >= start, increasing, without end."""
    n = max(3, start)
    if n % 2 == 0:
        n += 1
    while True:
        if is_prime(n):
            yield n
        n += 2


# Brent's rho multiplies this many differences |x - y| mod n before each gcd
_RHO_BLOCK = 128


def _pollard_rho(n: int) -> int:
    """A proper divisor of the composite n: Pollard rho with Brent's cycle
    search, one gcd per block of steps; a block whose product is 0 mod n is
    replayed one gcd per step.  n is odd: ``factorize``, the one caller,
    divides out every 2 first."""
    for c in range(1, 1000):
        y, r, prod, d = 2, 1, 1, 1
        while d == 1:
            x = y  # y runs r steps ahead of the saved point x
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and d == 1:
                ys = y
                for _ in range(min(_RHO_BLOCK, r - k)):
                    y = (y * y + c) % n
                    prod = prod * abs(x - y) % n
                d = math.gcd(prod, n)
                k += _RHO_BLOCK
            r *= 2
        if d == n:
            d = 1
            while d == 1:
                ys = (ys * ys + c) % n
                d = math.gcd(abs(x - ys), n)
        if d != n:
            return d
    raise DomainError(f"failed to split {n}")


def prime_divisors(n: int) -> list[int]:
    """Distinct primes dividing n != 0, increasing, each one proven prime."""
    return sorted(factorize(abs(n)))


def _perfect_power_root(n: int) -> tuple[int, int] | None:
    """(r, k) with r^k = n for a prime k, or None when n is not a perfect power.

    n has no prime factor below ``_TRIAL_LIMIT``, so k <= log n / log limit.
    """
    for k in range(2, n.bit_length() // (_TRIAL_LIMIT.bit_length() - 1) + 1):
        if is_prime(k) and (r := iroot(n, k)) ** k == n:
            return r, k
    return None


def iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0 and k >= 1: Newton's method from a float
    estimate above."""
    if k == 1 or n < 2:
        return n
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


def residue(x, m: int) -> int:
    """The rational x, whose denominator is prime to m, reduced modulo m."""
    return x.numerator * pow(x.denominator, -1, m) % m


def legendre(a: int, p: int) -> int:
    """The Legendre symbol (a/p) for an odd prime p: 0, 1 or -1 (Euler's
    criterion)."""
    s = pow(a, (p - 1) // 2, p)
    return -1 if s == p - 1 else s


def sqrt_mod(a: int, p: int) -> int:
    """A square root of the quadratic residue a modulo the odd prime p
    (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    r, t = pow(a, (q + 1) // 2, p), pow(a, q, p)
    if t == 1:
        return r
    z = 2
    while legendre(z, p) != -1:
        z += 1
    c = pow(z, q, p)
    # invariant: r^2 = a t and c has order 2^s; t's order 2^i drops each round
    while t != 1:
        i, u = 0, t
        while u != 1:
            u = u * u % p
            i += 1
        if i == s:
            raise DomainError(f"{a} is not a square modulo {p}")
        b = pow(c, 1 << (s - i - 1), p)
        r, c, s = r * b % p, b * b % p, i
        t = t * c % p
    return r
