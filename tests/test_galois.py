import time
from fractions import Fraction as F
from math import gcd

import pytest

from arithdyn.errors import DomainError
from arithdyn.galois import (
    cyclotomic_degree_qp,
    galcor_lower_bound,
    lifting_exponent,
    mult_order,
    padic_degree_bound,
)
from arithdyn.polymap import PolyMap
from oracles import naive_order


def _totient(n):
    out = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


def test_mult_order_examples():
    assert mult_order(2, 5) == 4
    assert mult_order(7, 9) == 3
    assert mult_order(3, 8) == 2


def test_mult_order_rejects_noncoprime():
    with pytest.raises(DomainError):
        mult_order(6, 9)
    with pytest.raises(DomainError):
        mult_order(2, 1)


def test_mult_order_matches_naive_small():
    for n in range(2, 120):
        for a in range(2, n):
            if gcd(a, n) == 1:
                assert mult_order(a, n) == naive_order(a, n)


def test_lifting_exponent_examples():
    le = lifting_exponent(7, 3)
    assert (le.e, le.m) == (1, 1)
    assert le.predicted_order(3) == 9
    le2 = lifting_exponent(3, 2)
    assert (le2.e, le2.m) == (2, 3)
    le3 = lifting_exponent(2, 5)
    assert (le3.e, le3.m) == (4, 1)


def test_lifting_exponent_edge_cases():
    # a = 1 mod 4 vs 3 mod 4 both covered; q | a rejected
    assert lifting_exponent(5, 2).e == 1
    assert lifting_exponent(7, 2).e == 2
    with pytest.raises(DomainError):
        lifting_exponent(6, 3)
    with pytest.raises(DomainError):
        lifting_exponent(1, 3)


def test_group_order_formula_small():
    for q in (2, 3, 5):
        for a in (3, 7, 10, 22):
            if a % q == 0:
                continue
            le = lifting_exponent(a, q)
            for n in range(max(le.m, 1), le.m + 3):
                if q ** n < 3:
                    continue
                assert naive_order(a, q ** n) == le.predicted_order(n)


def test_cyclotomic_degree_examples():
    for k in range(1, 8):
        assert cyclotomic_degree_qp(2, 2 ** k) == 2 ** (k - 1)
    assert cyclotomic_degree_qp(3, 8) == 2
    assert cyclotomic_degree_qp(5, 12) == 2
    assert cyclotomic_degree_qp(7, 1) == 1


def test_cyclotomic_degree_divides_totient():
    for p in (2, 3, 5, 7):
        for b in range(1, 201):
            d = cyclotomic_degree_qp(p, b)
            if b >= 3:
                assert _totient(b) % d == 0
            else:
                assert d == 1


def test_galcor_examples():
    g = galcor_lower_bound(2, 2 ** 5, 2)
    assert g.degree == 2 ** 4 and g.m == 1 and g.bound == F(2 ** 5, 2)
    g2 = galcor_lower_bound(7, 4, 2)
    assert g2.degree == 2 and g2.m == 1 and g2.bound == 2
    g3 = galcor_lower_bound(5, 1, 2)
    assert g3.degree == 1 and g3.m == 0 and g3.bound == 1


def test_galcor_bound_never_exceeds_degree():
    for p in (2, 3, 5, 7, 11):
        for b in (1, 2, 4, 8, 16, 32, 64):
            g = galcor_lower_bound(p, b, 2)
            assert g.bound <= g.degree


def test_galcor_rejects_bad_b():
    with pytest.raises(DomainError):
        galcor_lower_bound(2, 6, 2)  # 3 does not divide D = 2


def test_padic_degree_bound_tight_example():
    rep = padic_degree_bound(PolyMap.from_text("X^2"), F(1, 8), 3)
    assert rep.bound == 4
    assert rep.snap_max_degree == 4  # tight
    assert rep.place.prime == 2
    assert rep.m_height_cap.contains(3)  # (D-1) h(1/8)/log 2 = 3 exactly


def test_padic_degree_bound_n1_rational_roots():
    rep = padic_degree_bound(PolyMap.from_text("X^2"), F(1, 8), 1)
    assert rep.bound == 1
    assert rep.snap_max_degree == 1


def test_padic_degree_bound_x2_plus_1():
    rep = padic_degree_bound(PolyMap.from_text("X^2+1"), F(1, 8), 2)
    assert rep.bound == 2
    assert rep.snap_max_degree >= 2
    assert rep.count_coefficient == 4  # D^(2m) with m = 1


def test_padic_degree_bound_at_a_place_that_is_not_a_prime_of_d():
    # p = 3, q = 2: 3 = 3 mod 4, so e = 2, and 3^2 - 1 = 2^3 gives
    # m_uniform = 3; the bound is ord(3 mod 8) = 2
    rep = padic_degree_bound(PolyMap.from_text("X^2"), F(1, 27), 3)
    assert rep.place.prime == 3
    assert (rep.bound, rep.m_uniform, rep.cap_form, rep.count_coefficient) == (2, 3, 1, 64)
    assert rep.snap_max_degree == 4


def test_padic_bound_no_place():
    with pytest.raises(DomainError):
        padic_degree_bound(PolyMap.from_text("X^2+1"), 0, 2)


def test_padic_bound_below_observed_for_desk_cases():
    for alpha, n in ((F(1, 8), 1), (F(1, 8), 2), (F(1, 8), 3), (F(3, 8), 2), (F(1, 16), 3)):
        rep = padic_degree_bound(PolyMap.from_text("X^2"), alpha, n)
        assert rep.bound <= rep.snap_max_degree


def test_padic_bound_needs_strict_escape():
    # |1/4|_2 = delta_2 = 4 exactly: the strict hypothesis fails
    with pytest.raises(DomainError):
        padic_degree_bound(PolyMap.from_text("X^2"), F(1, 4), 2)


def test_galcor_degree_three():
    g = galcor_lower_bound(2, 9, 3)
    assert g.degree == 6  # order of 2 modulo 9
    assert g.m == 1 and g.bound == 3


def test_padic_degree_bound_cubic_tight():
    # roots of X^9 = (1/9)^9 are 9th roots of unity over 1/9; the bound
    # [Q_3(zeta_9):Q_3] = 6 matches the largest factor degree exactly
    rep = padic_degree_bound(PolyMap.from_text("X^3"), F(1, 9), 2)
    assert rep.place.prime == 3
    assert rep.bound == 6
    assert rep.snap_max_degree == 6


def test_primality_and_prime_divisors_match_trial_division():
    from arithdyn.ntheory import is_prime, prime_divisors

    primes = [n for n in range(2, 4000) if all(n % d for d in range(2, int(n ** 0.5) + 1))]
    assert [n for n in range(-5, 4000) if is_prime(n)] == primes
    for n in range(1, 4000):
        assert prime_divisors(n) == [p for p in primes if n % p == 0]
    assert prime_divisors(-360) == [2, 3, 5]
    assert prime_divisors(3 ** 5 * 1_000_003) == [3, 1_000_003]


def test_prime_divisors_match_a_sieve_up_to_1e5():
    from arithdyn.ntheory import prime_divisors

    N = 10 ** 5
    spf = list(range(N + 1))  # smallest prime factor, by sieve
    for p in range(2, int(N ** 0.5) + 1):
        if spf[p] == p:
            for m in range(p * p, N + 1, p):
                if spf[m] == m:
                    spf[m] = p
    for n in range(1, N + 1):
        want, m = [], n
        while m > 1:
            p = spf[m]
            want.append(p)
            while m % p == 0:
                m //= p
        assert prime_divisors(n) == want, n


def test_prime_divisors_of_a_large_prime_are_fast():
    from arithdyn.ntheory import prime_divisors

    t0 = time.time()
    assert prime_divisors(2 ** 61 - 1) == [2 ** 61 - 1]
    assert prime_divisors(6 * (2 ** 61 - 1)) == [2, 3, 2 ** 61 - 1]
    assert time.time() - t0 < 1


def test_prime_divisors_past_the_proven_bound_are_proven_or_refused():
    from sympy import factorint

    from arithdyn.errors import ResourceGuardError
    from arithdyn.ntheory import factorize, prime_divisors

    m = 2 ** 61 - 1
    # a perfect-power cofactor is replaced by its root, prime or composite
    assert prime_divisors(6 * m ** 2) == [2, 3, m]
    assert prime_divisors(12 * (65537 * m) ** 3) == [2, 3, 65537, m]
    for n in (6 * m ** 2, 12 * (65537 * m) ** 3, 2 ** 100, 3 ** 80 * 5, (2 ** 31 - 1) ** 4):
        assert factorize(n) == factorint(n), n
    for n in (2 ** 89 - 1, 7 * (2 ** 89 - 1), (2 ** 127 - 1) ** 3, 65537 ** 2 * m ** 4):
        with pytest.raises(ResourceGuardError):
            prime_divisors(n)


def test_factorize_matches_sympy_below_the_proven_bound():
    import random

    from sympy import factorint

    from arithdyn.ntheory import factorize

    rng = random.Random(20)
    for _ in range(120):  # sizes spread evenly in log scale below 10^22
        n = rng.randrange(1, 10 ** rng.randint(1, 22))
        assert factorize(n) == factorint(n), n


def test_factorize_splits_semiprimes_and_prime_powers_like_sympy():
    import random

    from sympy import factorint, nextprime

    from arithdyn.ntheory import PROVEN_PRIME_BOUND, factorize

    rng = random.Random(41)

    def prime(bits):
        return nextprime(rng.getrandbits(bits - 1) | 1 << (bits - 1))

    # rho's cost grows with the square root of the smaller prime
    cases = [1821275395031 * 1821275395081]
    for bits in (20, 23, 26, 29, 32, 35, 38, 41):
        n = PROVEN_PRIME_BOUND
        while n >= PROVEN_PRIME_BOUND:
            n = prime(bits) * prime(rng.randint(bits, 41))
        cases.append(n)
    for bits in (2, 5, 9, 14, 20, 27, 33, 40):
        p = prime(bits)
        k = rng.randint(2, 81 // bits)
        while p ** k >= PROVEN_PRIME_BOUND:
            k -= 1
        cases.append(p ** k)
    for n in cases:
        assert factorize(n) == factorint(n), n


def test_is_prime_refuses_a_probable_prime_past_the_proven_bound():
    from arithdyn.errors import ResourceGuardError
    from arithdyn.ntheory import is_prime

    with pytest.raises(ResourceGuardError, match="not proven prime"):
        is_prime(2 ** 89 - 1)
    assert is_prime(2 ** 89 + 1) is False  # a Miller-Rabin witness is a proof


_M61, _M89, _Q = 2 ** 61 - 1, 2 ** 89 - 1, 10 ** 9 + 7


# the group exponent of q^3 is (q - 1) q^2, past the bound with a large
# composite cofactor when q = 10^9 + 7
@pytest.mark.parametrize("argv, code", [
    (["order", "--a", "5", "--n", str(6 * _M61 ** 2)], 0),
    (["order", "--a", "2", "--n", str(_Q ** 3)], 0),
    (["lifting-exponent", "--a", "3", "--q", str(_M61)], 0),
    (["lifting-exponent", "--a", "2", "--q", str(_Q)], 0),
    (["order", "--a", "5", "--n", str(_M61 * _M89)], 3),
    (["cyclotomic-degree", "--p", "3", "--b", str(_M61 * _M89)], 3),
    (["delta-v", "--map", "X^2+1", "--prime", str(_M89)], 3),
])
def test_number_theory_verbs_past_the_proven_bound(argv, code, capsys):
    import json

    from sympy.ntheory import n_order

    from arithdyn.cli import main

    t0 = time.time()
    assert main(argv) == code
    assert time.time() - t0 < 1
    if code:
        return
    result = json.loads(capsys.readouterr().out)["result"]
    a, n = int(argv[2]), int(argv[4])
    if argv[0] == "order":
        assert result["order"] == n_order(a, n)
    else:
        # m is maximal with a^e = 1 mod q^m: the order modulo q^(m+1) is e * q
        e, m = result["e"], result["m"]
        assert e == n_order(a, n) == n_order(a, n ** m)
        assert n_order(a, n ** (m + 1)) == e * n


@pytest.mark.parametrize("denominator, code", [(6 * (2 ** 61 - 1) ** 2, 0), (2 ** 89 - 1, 3)])
def test_good_place_on_a_denominator_past_the_proven_bound(denominator, code, capsys):
    from arithdyn.cli import main

    t0 = time.time()
    assert main(["good-place", "--map", "X^2+1", "--alpha", f"1/{denominator}"]) == code
    assert time.time() - t0 < 1


def test_strong_pseudoprimes_to_the_first_twelve_prime_bases_are_composite():
    from arithdyn.ntheory import is_prime, prime_divisors

    # the least strong pseudoprime to the bases 2..37 (Sorenson-Webster)
    n = 318665857834031151167461
    assert not is_prime(n)
    assert prime_divisors(n) == [399165290221, 798330580441]


def _naive_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def test_valuation_matches_the_naive_loop():
    from arithdyn.boettcher import padic_abs
    from arithdyn.ntheory import valuation

    for p in (2, 3, 5, 7):
        for n in range(1, 10 ** 4 + 1):
            assert valuation(n, p) == valuation(-n, p) == _naive_valuation(n, p)
        for x in (F(1, 8), F(-12, 35), F(49, 50), F(3 ** 7, 2 ** 9 * 5), F(7 ** 5, 3 ** 4)):
            v = _naive_valuation(x.numerator, p) - _naive_valuation(x.denominator, p)
            assert valuation(x, p) == v
            assert padic_abs(x, p) == F(p) ** -v
        assert padic_abs(F(0), p) == 0
        with pytest.raises(DomainError, match="valuation of zero"):
            valuation(0, p)
