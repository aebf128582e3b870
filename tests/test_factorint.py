import itertools
import json
import math
import random
import time
from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithdyn.cli import main
from arithdyn.dynamics import snap_degree_multiset
from arithdyn.errors import DomainError
from arithdyn.exactnum import IntPoly, RatPoly
from arithdyn.exactnum.series import TruncSeries
from arithdyn.exactnum.poly import int_mul, rat_mul
from arithdyn.factorint import capelli, modp, zassenhaus
from arithdyn.factorint.zassenhaus import factor_over_Q, factor_over_Z
from arithdyn.ntheory import is_prime, legendre, primes_from, residue, sqrt_mod
from arithdyn.polymap import PolyMap
from conftest import random_monic_map
from oracles import (
    _some_factor_certifies,
    compose_irreducible,
    degree_multiset,
    dict_series_mul,
    exhaustive_factorization,
    per_link_chain,
    school_divmod,
    school_mul,
    school_poly_mul,
    school_pow_mod,
    tower_chains,
)

# a pool of known irreducibles for reconstruction stress tests
IRREDUCIBLES = [
    IntPoly([1, 1]),
    IntPoly([-2, 1]),
    IntPoly([1, 0, 1]),
    IntPoly([4, 0, 1]),
    IntPoly([-2, 0, 1]),
    IntPoly([1, 1, 1]),
    IntPoly([3, -2, 1]),
    IntPoly([16, 0, 0, 0, 1]),
    IntPoly([1, 0, 0, 1, 1]),
    IntPoly([7, 5, 0, 1]),
]


def test_difference_of_squares():
    rep = factor_over_Z(IntPoly([-1, 0, 1]))
    assert [(list(f.coeffs), m) for f, m in rep.factors] == [([-1, 1], 1), ([1, 1], 1)]


def test_quartic_plus_16_irreducible():
    rep = factor_over_Z(IntPoly([16, 0, 0, 0, 1]))
    assert len(rep.factors) == 1 and rep.factors[0][1] == 1
    # independent certificate by exhaustive quadratic-box search
    assert exhaustive_factorization(IntPoly([16, 0, 0, 0, 1])) == [IntPoly([16, 0, 0, 0, 1])]


def test_x8_minus_256():
    rep = factor_over_Z(IntPoly([-256] + [0] * 7 + [1]))
    assert degree_multiset(rep) == [(1, 2), (2, 1), (4, 1)]
    got = sorted(list(f.coeffs) for f, _ in rep.factors)
    assert [-2, 1] in got and [2, 1] in got and [4, 0, 1] in got and [16, 0, 0, 0, 1] in got


def test_degree_multiset_examples():
    assert degree_multiset(factor_over_Z(IntPoly([-16, 0, 0, 0, 1]))) == [(1, 2), (2, 1)]
    assert degree_multiset(factor_over_Z(IntPoly([0, 0, 0, 1]))) == [(1, 3)]


def test_content_unit_and_multiplicity():
    f = IntPoly([-6, 6]) * IntPoly([1, 1]) ** 2  # 6(X-1)(X+1)^2
    rep = factor_over_Z(f)
    assert rep.content == 6 and rep.unit == 1
    assert rep.reconstruct() == f
    assert not rep.is_squarefree()
    neg = factor_over_Z(IntPoly([2, -2]))
    assert neg.unit == -1 and neg.content == 2


def test_rational_input_records_scale():
    p = RatPoly([F(-1, 3), F(0), F(2, 3)])  # (2X^2 - 1)/3
    scale, rep = factor_over_Q(p)
    assert scale == F(1, 3)
    assert [(list(f.coeffs), m) for f, m in rep.factors] == [([-1, 0, 2], 1)]


def test_zero_rejected():
    with pytest.raises(DomainError):
        factor_over_Z(IntPoly([]))


def test_brute_force_agreement_degree_6():
    rng = random.Random(17)
    pool = [p for p in IRREDUCIBLES if p.degree <= 3 and p.max_norm() <= 4]
    for _ in range(8):
        f = IntPoly([1])
        while True:
            g = rng.choice(pool)
            if f.degree + g.degree > 6:
                break
            f = f * g
        if f.degree < 2:
            continue
        mine = sorted(
            [list(fac.coeffs) for fac, m in factor_over_Z(f).factors for _ in range(m)]
        )
        brute = sorted(list(p.coeffs) for p in exhaustive_factorization(f))
        assert mine == brute, f"disagreement for {list(f.coeffs)}"


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_reconstruction_random_products(data):
    k = data.draw(st.integers(min_value=1, max_value=4))
    idx = data.draw(st.lists(st.integers(0, len(IRREDUCIBLES) - 1), min_size=k, max_size=k))
    content = data.draw(st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0))
    f = IntPoly([content])
    for i in idx:
        if f.degree + IRREDUCIBLES[i].degree > 24:
            break
        f = f * IRREDUCIBLES[i]
    rep = factor_over_Z(f)
    assert rep.reconstruct() == f
    assert sum(d * m for d, m in degree_multiset(rep)) == f.degree


def test_degree_64_performance():
    c = [0] * 65
    c[0] = -(2 ** 64)
    c[64] = 1
    t0 = time.time()
    rep = factor_over_Z(IntPoly(c))
    assert time.time() - t0 < 30
    assert len(rep.factors) == 7
    assert degree_multiset(rep) == [(1, 2), (2, 1), (4, 1), (8, 1), (16, 1), (32, 1)]


def test_determinism_across_seeds_is_consistent():
    f = IntPoly([-256] + [0] * 7 + [1])
    a = factor_over_Z(f, seed=0)
    b = factor_over_Z(f, seed=1)
    assert a == b  # seed changes the splitting path, never the sorted output


def test_json_schema(capsys):
    assert main(["factor", "--poly", "X^2-4"]) == 0
    j = json.loads(capsys.readouterr().out)["result"]
    assert set(j) == {"scale", "content", "unit", "factors"}
    assert j["factors"][0] == {"coeffs": ["-2/1", "1/1"], "mult": 1}


# --- F_p[x] kernels against the schoolbook references -----------------------
# Moduli cover every slot width of the Kronecker packing: 1- and 2-byte slots
# (p = 2, 3), 4 bytes (101), 8 bytes (65521), and wide byte-string slots for a
# 61-bit prime and Hensel-sized prime powers of hundreds of bits.  Lengths up
# to 70 cross the 1 -> 2 byte slot change at 16 terms for p = 3.
KERNEL_MODULI = [2, 3, 101, 65521, (1 << 61) - 1, 3 ** 200, 5 ** 150]


def _trimmed(f, m):
    out = [c % m for c in f]
    while out and out[-1] == 0:
        out.pop()
    return out


@st.composite
def _raw_poly(draw, m, max_len=70):
    """Unreduced coefficients (negative or >= m) with optional trailing zeros."""
    body = draw(st.lists(st.integers(-2 * m, 2 * m), max_size=max_len))
    return body + [0] * draw(st.integers(0, 2))


@st.composite
def _divisor(draw, m, max_len=40):
    """A divisor whose leading coefficient is a unit mod m, maybe untrimmed."""
    unit = draw(st.integers(1, 3 * m).filter(lambda u: math.gcd(u, m) == 1))
    body = draw(st.lists(st.integers(-2 * m, 2 * m), max_size=max_len))
    return body + [unit] + [0] * draw(st.integers(0, 1))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_kronecker_mul_matches_schoolbook(data):
    m = data.draw(st.sampled_from(KERNEL_MODULI))
    f = data.draw(_raw_poly(m))
    g = data.draw(_raw_poly(m))
    assert modp.mul(f, g, m) == school_mul(f, g, m)
    assert modp.mul(f, f, m) == school_mul(f, f, m)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_division_and_remainders_match_schoolbook(data):
    m = data.draw(st.sampled_from(KERNEL_MODULI))
    f = data.draw(_raw_poly(m, 90))
    g = data.draw(_divisor(m))
    q_ref, r_ref = school_divmod(f, _trimmed(g, m), m)
    assert modp.divmod_general(f, g, m) == (q_ref, r_ref)
    if len(_trimmed(g, m)) > 1:
        # quotients shorter and longer than deg g take different paths
        assert modp.Modulus(g, m).rem(f) == r_ref


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_pow_mod_matches_schoolbook(data):
    m = data.draw(st.sampled_from(KERNEL_MODULI))
    f = data.draw(_raw_poly(m, 30))
    g = _trimmed(data.draw(_divisor(m, 25)), m)
    if len(g) < 2:
        g = g + [1]
    e = data.draw(st.integers(0, 70))
    assert modp.pow_mod(f, e, modp.Modulus(g, m)) == school_pow_mod(f, e, g, m)


@pytest.mark.parametrize("m", KERNEL_MODULI)
def test_kernels_on_zero_and_constant_polynomials(m):
    g = [5, -1, 1]
    for f in ([], [0], [0, 0], [7], [m], [-1, 0, 0]):
        assert modp.mul(f, g, m) == school_mul(f, g, m)
        assert modp.mul(g, f, m) == school_mul(g, f, m)
        assert modp.divmod_general(f, g, m) == school_divmod(f, _trimmed(g, m), m)
        assert modp.Modulus(g, m).rem(f) == school_divmod(f, _trimmed(g, m), m)[1]
    f = [4, -9, 2, 0, 1]
    unit = 7 if m % 7 else 11
    assert modp.divmod_general(f, [unit, 0], m) == school_divmod(f, [unit], m)
    with pytest.raises(DomainError):
        modp.divmod_general(f, [0, m], m)


# --- the signed Kronecker kernel over Z and Q --------------------------------
# Coefficients of 0-3000 bits cover every slot width (the 1-, 2-, 4- and
# 8-byte ``array`` slots and wide byte-string slots); lengths of 1, all-zero
# operands, trailing zeros and squaring (a is b) take the kernel's edge paths.
# Denominators mix small ones with large Mersenne primes, which are coprime
# to each other, so the lcm scaling of ``rat_mul`` meets unrelated primes.
_DENOMINATORS = [1, 2, 3, 12, (1 << 61) - 1, (1 << 89) - 1, (1 << 107) - 1, (1 << 127) - 1]


@st.composite
def _signed_coeffs(draw, max_len=40):
    bound = 1 << draw(st.integers(0, 3000))
    body = draw(st.lists(st.integers(-bound, bound), min_size=1, max_size=max_len))
    if draw(st.booleans()):
        body = [0] * len(body)
    return body + [0] * draw(st.integers(0, 2))


@st.composite
def _fractions(draw, max_len=30):
    nums = draw(_signed_coeffs(max_len))
    dens = draw(st.lists(st.sampled_from(_DENOMINATORS) | st.integers(1, 1 << 128),
                         min_size=len(nums), max_size=len(nums)))
    return [F(a, d) for a, d in zip(nums, dens)]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_signed_kronecker_product_matches_schoolbook(data):
    a = data.draw(_signed_coeffs())
    b = data.draw(_signed_coeffs())
    full = school_poly_mul(a, b)
    assert int_mul(a, b) == full
    assert int_mul(a, a) == school_poly_mul(a, a)
    n = data.draw(st.integers(1, len(full)))
    assert int_mul(a, b, n) == full[:n]
    assert int_mul(a, a, min(n, len(a))) == school_poly_mul(a, a)[:min(n, len(a))]


@pytest.mark.parametrize("a, b", [
    ([0], [0]), ([5], [-7]), ([0, 0, 0], [1, -1]), ([-1], [1 << 3000, -(1 << 3000)]),
    ([0] * 6, [0] * 5), ([0, 0, 0, 0, 0, 1], [1, -1, 0, 0, 0, 0]),
    ([-1] * 5, [1 << 3000, 0, 0, 0, -(1 << 3000)]), ([3, 0, 0, 0, 0], [0, 0, 0, 0, 2])])
def test_signed_kronecker_product_edge_cases(a, b):
    assert int_mul(a, b) == school_poly_mul(a, b)
    assert int_mul(b, a) == school_poly_mul(b, a)
    assert int_mul(a, a) == school_poly_mul(a, a)


@pytest.mark.parametrize("bits", [1, 2, 3, 5, 12, 27, 28, 29, 60, 61, 98, 500])
def test_signed_kronecker_product_at_the_slot_bound(bits):
    # every coefficient of largest magnitude, one sign per operand: the middle
    # coefficients of the product reach min(len) * max|a| * max|b|, the
    # largest value a slot must hold, and for some length each bit size
    # fills a slot to the last bit below its sign
    top = (1 << bits) - 1
    for la in (1, 2, 3, 4, 7, 8, 15, 16, 31):
        for lb in (la, 2 * la + 1):
            for sa, sb in ((1, 1), (1, -1), (-1, -1)):
                a, b = [sa * top] * la, [sb * top] * lb
                assert int_mul(a, b) == school_poly_mul(a, b)
                assert int_mul(a, a) == school_poly_mul(a, a)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_rational_kernel_and_poly_products_match_schoolbook(data):
    a, b = data.draw(_fractions()), data.draw(_fractions())
    assert rat_mul(a, b) == school_poly_mul(a, b)
    assert rat_mul(a, a) == school_poly_mul(a, a)
    p, q = RatPoly(a), RatPoly(b)
    assert (p * q).coeffs == RatPoly(school_poly_mul(a, b)).coeffs
    assert (p * p).coeffs == RatPoly(school_poly_mul(a, a)).coeffs
    ia, ib = data.draw(_signed_coeffs()), data.draw(_signed_coeffs())
    assert (IntPoly(ia) * IntPoly(ib)).coeffs == IntPoly(school_poly_mul(ia, ib)).coeffs
    assert (IntPoly(ia) * -3).coeffs == IntPoly(school_poly_mul(ia, [-3])).coeffs


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_series_product_matches_the_dict_convolution(data):
    s = TruncSeries(data.draw(st.integers(-5, 5)), data.draw(_fractions(25)))
    t = TruncSeries(data.draw(st.integers(-5, 5)), data.draw(_fractions(25)))
    for x, y in ((s, t), (t, s), (s, s)):
        prod = x * y
        cert = max(x.cert_exp + y.lead_exp, y.cert_exp + x.lead_exp)
        want = {e: c for e, c in dict_series_mul(x.as_dict(), y.as_dict()).items() if e >= cert}
        assert prod.cert_exp == cert
        assert prod.lead_exp == max(want, default=cert - 1)
        assert prod.as_dict() == want
        assert prod.coefficient(cert) == want.get(cert, 0)
        with pytest.raises(DomainError):
            prod.coefficient(cert - 1)


def test_prime_sequence_is_the_odd_primes():
    odd_primes = [n for n in range(3, 3000, 2) if all(n % d for d in range(3, math.isqrt(n) + 1, 2))]
    assert list(islice(primes_from(3), len(odd_primes))) == odd_primes
    assert next(primes_from(90)) == 97


# --- iterate towers ----------------------------------------------------------


def _orbit_value(P: PolyMap, alpha, n: int) -> F:
    v = F(alpha)
    for _ in range(n):
        v = P.eval(v)
    return v


def test_cubic_tower_degree_243_matches_sympy():
    sympy = pytest.importorskip("sympy")
    P = PolyMap.from_text("X^3+X+1")
    t0 = time.time()
    rep = snap_degree_multiset(P, 1, 5)
    assert time.time() - t0 < 10
    x = sympy.symbols("x")
    diff = P.iterate_poly(5) - _orbit_value(P, 1, 5)
    _, prim = diff.to_int_primitive()
    _, factors = sympy.factor_list(sum(int(c) * x ** i for i, c in enumerate(prim.coeffs)), x)
    expected = sorted((sympy.degree(g, x), m) for g, m in factors)
    assert degree_multiset(rep.factor_report) == expected
    assert expected == [(1, 1), (2, 1), (6, 1), (18, 1), (54, 1), (162, 1)]


def test_quadratic_tower_degree_256():
    t0 = time.time()
    rep = snap_degree_multiset(PolyMap.from_text("X^2+1"), 1, 8)
    assert time.time() - t0 < 5
    # computed by sympy factor_list (16 s there, so not re-run here)
    assert degree_multiset(rep.factor_report) == [
        (1, 2), (2, 1), (4, 1), (8, 1), (16, 1), (32, 1), (64, 1), (128, 1)]


def test_recombination_budget_ends_in_exit_3(monkeypatch, capsys):
    from arithdyn.cli import main

    # the whole n = 8 tower difference of X^2+1 examines 178,649 subsets
    P = PolyMap.from_text("X^2+1")
    diff = P.iterate_poly(8) - _orbit_value(P, 1, 8)
    monkeypatch.setattr(zassenhaus, "_SUBSET_BUDGET", 1000)
    assert main(["factor", "--poly", str(diff)]) == 3
    assert "1000 subsets" in capsys.readouterr().err


def _count_yun_calls(monkeypatch):
    calls = []
    original = zassenhaus._yun_squarefree

    def counted(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(zassenhaus, "_yun_squarefree", counted)
    return calls


def test_squarefree_certificate_skips_primes_of_bad_reduction(monkeypatch):
    # X(X - N) is X^2 mod every odd prime up to 23, so it is certified mod 29
    N = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23
    yun = _count_yun_calls(monkeypatch)
    rep = factor_over_Z(IntPoly([0, -N, 1]))
    assert yun == []
    assert [(list(f.coeffs), m) for f, m in rep.factors] == [([-N, 1], 1), ([0, 1], 1)]


def test_yun_decides_when_every_certificate_prime_divides_the_discriminant(monkeypatch):
    N = math.prod(islice(primes_from(3), zassenhaus._CERTIFICATE_PRIMES))
    yun = _count_yun_calls(monkeypatch)
    rep = factor_over_Z(IntPoly([0, -N, 1]))
    assert len(yun) == 1
    assert [(list(f.coeffs), m) for f, m in rep.factors] == [([-N, 1], 1), ([0, 1], 1)]
    assert rep.is_squarefree()


def test_multiplicities_survive_the_squarefree_split():
    f = IntPoly([-1, 0, 1]) ** 2 * IntPoly([3, 1])
    rep = factor_over_Z(f)
    assert [(list(g.coeffs), m) for g, m in rep.factors] == [([-1, 1], 2), ([1, 1], 2), ([3, 1], 1)]
    assert not rep.is_squarefree()


def _assert_tower_matches_whole_factorization(P: PolyMap, alpha, n: int):
    """The tower split against factor_over_Q of the expanded difference."""
    rep = snap_degree_multiset(P, alpha, n)
    value = _orbit_value(P, alpha, n)
    _, whole = factor_over_Q(P.iterate_poly(n) - value)
    assert rep.factor_report.factors == whole.factors
    assert rep.multiset == tuple(sorted(
        d for d, m in degree_multiset(whole) for _ in range(d * m)))
    assert rep.squarefree == whole.is_squarefree()
    assert rep.value == value


def test_tower_split_matches_whole_factorization_on_random_maps(rng):
    for _ in range(12):
        P = random_monic_map(rng, max_degree=4)
        alpha = F(rng.randint(-4, 4), rng.randint(1, 3))
        _assert_tower_matches_whole_factorization(P, alpha, {2: 5, 3: 3, 4: 2}[P.degree])


@pytest.mark.parametrize("m, alpha, n", [
    ("X^2", 0, 6), ("X^2-2", 0, 5), ("X^2-2", 2, 5), ("X^2-1", 0, 5), ("X^2-1", -1, 5),
    ("X^3-3*X", 0, 3), ("X^3-3*X", 2, 3), ("X^2+X", -1, 5), ("X^3", 1, 3)])
def test_tower_split_merges_shared_factors(m, alpha, n):
    # critical or preperiodic orbits: P' vanishes on the orbit or the orbit
    # repeats, so pieces at different levels share irreducible factors
    _assert_tower_matches_whole_factorization(PolyMap.from_text(m), alpha, n)


def _snap_factor_degrees(capsys, argv, budget):
    """(degree, number of factors) of a timed ``snap`` run."""
    import json

    from arithdyn.cli import main

    t0 = time.time()
    assert main(["snap", *argv]) == 0
    assert time.time() - t0 < budget
    rep = json.loads(capsys.readouterr().out)["result"]
    degrees = sorted(set(rep["multiset"]))
    return [(d, rep["multiset"].count(d) // d) for d in degrees]


def test_snap_reaches_n_9(capsys):
    assert _snap_factor_degrees(capsys, ["--map", "X^2+1", "--alpha", "1", "--n", "9"], 2) == [
        (1, 2), (2, 1), (4, 1), (8, 1), (16, 1), (32, 1), (64, 1), (128, 1), (256, 1)]


def test_snap_reaches_n_11(capsys):
    # factor degrees pinned from the output of the schoolbook IntPoly products
    assert _snap_factor_degrees(capsys, ["--map", "X^2+1", "--alpha", "1", "--n", "11"], 3) == [
        (1, 2), (2, 1), (4, 1), (8, 1), (16, 1), (32, 1), (64, 1), (128, 1), (256, 1), (512, 1),
        (1024, 1)]


def test_snap_cubic_tower_degree_729(capsys):
    # pinned from the output of the Zassenhaus-only tower split (15 s there)
    assert _snap_factor_degrees(capsys, ["--map", "X^3+X+1", "--alpha", "1", "--n", "6"], 5) == [
        (1, 1), (2, 1), (6, 1), (18, 1), (54, 1), (162, 1), (486, 1)]


# --- Capelli certificates ----------------------------------------------------


def _capelli_chains(P: PolyMap, alpha, n: int):
    """(f, f o P, whether f o P is irreducible) along the chains f -> f o P
    of n links started at the factors of each Q_beta, beta = P^k(alpha) for
    k < n; a chain stops after its first reducible f o P, so every f is
    irreducible (the certificate's precondition)."""
    beta = F(alpha)
    for _ in range(n):
        nxt = P.eval(beta)
        q_beta = (P.poly - nxt).divmod(RatPoly([-beta, 1]))[0]
        for f, _ in factor_over_Q(q_beta)[1].factors:
            for _ in range(n):
                g = f.compose(P.poly).to_int_primitive()[1]
                irreducible = [m for _, m in factor_over_Z(g).factors] == [1]
                yield f, g, irreducible
                if not irreducible:
                    break
                f = g
        beta = nxt


def test_capelli_certificate_never_contradicts_zassenhaus(rng):
    # random maps, most with rational coefficients; the oracle splits a few
    # of their compositions, and the certificate must refuse all of those
    certified = reducible = 0
    for _ in range(12):
        P = random_monic_map(rng, max_degree=3)
        alpha = F(rng.randint(-4, 4), rng.randint(1, 3))
        for f, g, irreducible in _capelli_chains(P, alpha, {2: 4, 3: 3}[P.degree]):
            cert = compose_irreducible(f, P.poly)
            assert capelli.chain(f, P.poly, 1) == ([cert] if cert else []), (P, alpha, f)
            reducible += not irreducible
            if cert is not None:
                certified += 1
                assert irreducible, (P, alpha, f, cert)
                tag, p, d = cert
                assert tag == "fp" and is_prime(p)
                assert 1 <= d <= capelli._MAX_FACTOR_DEGREE
    assert reducible > 0 and certified > 100


@pytest.mark.parametrize("f, P, whole", [
    # Y^2 + 4 is irreducible, but Y^2 + 4 at Y = X^2 is X^4 + 4 = (X^2+2X+2)(X^2-2X+2)
    (IntPoly([4, 0, 1]), RatPoly([0, 0, 1]), [[2, -2, 1], [2, 2, 1]]),
    # X^2 - 5 at alpha = 1: the level-1 piece (Y - 4)(P(X)) is X^2 - 9
    (IntPoly([-4, 1]), RatPoly([-5, 0, 1]), [[-3, 1], [3, 1]]),
    # a rational map: (Y - 1)(X^2 + X/2 - 1/2) is (X - 1)(2X + 3)/2
    (IntPoly([-1, 1]), RatPoly([F(-1, 2), F(1, 2), 1]), [[-1, 1], [3, 2]]),
])
def test_capelli_certificate_refuses_reducible_compositions(f, P, whole):
    _, rep = factor_over_Q(f.compose(P))
    assert sorted(list(g.coeffs) for g, m in rep.factors for _ in range(m)) == whole
    assert compose_irreducible(f, P) is None
    assert capelli.chain(f, P, 1) == []


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_irreducibility_test_matches_trial_division(data):
    p = data.draw(st.sampled_from([3, 5, 7]))
    f = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=6)) + [1]
    n = len(f) - 1
    reducible = any(not modp.divmod_general(f, list(g) + [1], p)[1]
                    for d in range(1, n // 2 + 1)
                    for g in itertools.product(range(p), repeat=d))
    assert modp.is_irreducible(f, p) == (not reducible)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_quadratic_norm_criterion_matches_factoring(data):
    # the D = 2 shortcut against splitting every factor and testing g(P(X))
    p = data.draw(st.sampled_from([3, 5, 7, 11, 13]))
    f = data.draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=10)) + [1]
    P = data.draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=2)) + [1]
    if not modp.is_squarefree(f, p):
        return
    for prod, d in modp.distinct_degree(f, p):
        split = modp.equal_degree_split(prod, d, p, random.Random(0))
        expected = any(modp.is_irreducible(modp.compose(g, P, p), p) for g in split)
        assert _some_factor_certifies(prod, d, P, p) == expected


# --- the Capelli chain: the tree walk (D = 2) and the small-factor walk ------


@pytest.mark.parametrize("m, alpha, n, broken", [
    # the four D = 2 jobs of perfbench's tower workload
    ("X^2+1", 1, 7, {}), ("X^2+X", 1, 7, {}), ("X^2-2", 3, 7, {}), ("X^2", 2, 7, {}),
    ("X^2+1", 1, 10, {}),
    # Chebyshev: the top piece h(P^8(X)) breaks at its last link, f_7 -> f_8
    ("X^2-2", 3, 9, {8: 7}),
])
def test_tree_walk_matches_per_link_certificates(m, alpha, n, broken, monkeypatch):
    P = PolyMap.from_text(m)
    chains = [(h, k, per_link_chain(h, P.poly, k)) for h, k in tower_chains(P, alpha, n)]
    for h, k, expected in chains:
        links = capelli.chain(h, P.poly, k)
        assert links == expected, (h, k)
        assert len(links) == broken.get(k, k)
    # the small-factor walk, which serves D >= 3, certifies the same on D = 2
    monkeypatch.setattr(capelli, "_tree_degrees", capelli._small_factor_degrees)
    for h, k, expected in chains:
        assert capelli.chain(h, P.poly, k) == expected, (h, k)


def test_tree_walk_matches_per_link_certificates_on_random_maps(rng):
    towers = links = breaks = 0
    while towers < 40:
        P = random_monic_map(rng, 2)
        alpha = F(rng.randint(-4, 4), rng.randint(1, 3))
        for h, k in tower_chains(P, alpha, 6):
            walk = capelli.chain(h, P.poly, k)
            assert walk == per_link_chain(h, P.poly, k), (P, alpha, h, k)
            links += len(walk)
            breaks += len(walk) < k
        towers += 1
    assert links > 400 and breaks > 0


@pytest.mark.parametrize("m, alpha, n", [
    # the two D = 3 jobs of perfbench's tower workload
    ("X^3+X+1", 1, 4), ("X^3-X", 2, 4),
    ("X^3+X+1", 1, 6), ("X^3-3*X", 3, 5), ("X^3+2", 1, 5), ("X^4+X+1", 1, 4),
    ("X^3+X^2-1", 2, 5), ("X^5+3", 1, 3),
])
def test_small_factor_walk_matches_per_link_certificates(m, alpha, n):
    P = PolyMap.from_text(m)
    for h, k in tower_chains(P, alpha, n):
        assert capelli.chain(h, P.poly, k) == per_link_chain(h, P.poly, k), (h, k)


def test_small_factor_walk_matches_per_link_certificates_on_random_maps(rng):
    # 80 draws of degree 3 or 4; the one break among them is the level-1
    # piece 2P(X) + 1 = X(2X^3 - 5X - 4) of X^4 - 5/2 X^2 - 2X - 1/2 at 0
    towers = links = breaks = 0
    while towers < 80:
        P = random_monic_map(rng, 4)
        if P.degree < 3:
            continue
        alpha = F(rng.randint(-4, 4), rng.randint(1, 3))
        for h, k in tower_chains(P, alpha, {3: 4, 4: 3}[P.degree]):
            walk = capelli.chain(h, P.poly, k)
            assert walk == per_link_chain(h, P.poly, k), (P, alpha, h, k)
            links += len(walk)
            breaks += len(walk) < k
        towers += 1
    assert links > 300 and breaks > 0


def test_small_factor_walk_tracks_critical_values_of_degree_d_minus_1():
    # P = X^5 + 4X + 2: mod 13, P' = 5X^4 + 4 is irreducible, so P's critical
    # values have degree 4, and h = (their minimal polynomial)(X - 2) mod 13.
    # So h(P) mod 13 has a repeated root, and 13 must not certify link 1,
    # though X - 2 -> X -> P(X) would: a walk that tracked factors of degree
    # <= 3 only would miss the repeated root.  lc(h) = 3*5*7*11 makes 13 the
    # first prime walked.
    P = IntPoly([2, 4, 0, 0, 0, 1])
    h = IntPoly([6, 12, 4, 11, 7, 1155])
    assert capelli._small_factor_degrees(h, list(P.coeffs), 13, 2) == [0, 0]
    assert capelli.chain(h, P, 2) == per_link_chain(h, P, 2) == [("fp", 19, 3), ("fp", 41, 1)]


def test_both_kernels_give_the_same_degrees_on_quadratic_maps(rng):
    # per prime and per link, not only the first certificate of each link
    towers = lists = 0
    while towers < 40:
        P = random_monic_map(rng, 2)
        alpha = F(rng.randint(-4, 4), rng.randint(1, 3))
        coeffs = [F(c) for c in P.poly.coeffs]
        den = math.lcm(*(c.denominator for c in coeffs))
        for h, k in tower_chains(P, alpha, 6):
            for p in islice((p for p in primes_from(3) if h.lead % p and den % p), 8):
                Pp = [residue(c, p) for c in coeffs]
                tree = capelli._tree_degrees(h, Pp, p, k)
                assert capelli._small_factor_degrees(h, Pp, p, k) == tree, (P, alpha, h, p)
                lists += any(tree)
        towers += 1
    assert lists > 1000


@pytest.mark.parametrize("p", [17, 41, 73, 97, 113, 193, 241, 257])
def test_legendre_and_sqrt_mod_where_tonelli_shanks_loops(p):
    # p = 1 mod 8: p - 1 has at least three factors 2
    squares = {x * x % p for x in range(1, p)}
    for a in range(-p, 2 * p):
        expected = 0 if a % p == 0 else 1 if a % p in squares else -1
        assert legendre(a, p) == expected, a
        if expected >= 0:
            assert sqrt_mod(a, p) ** 2 % p == a % p
        else:
            with pytest.raises(DomainError):
                sqrt_mod(a, p)


@pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 41])
def test_fp2_root_squares_back(p):
    r = next(z for z in range(2, p) if legendre(z, p) == -1)
    roots = 0
    for a, b in itertools.product(range(p), range(1, p)):
        if legendre(a * a - r * b * b, p) == 1:
            x, y = capelli.sqrt_fp2(a, b, r, p)
            assert ((x * x + r * y * y) % p, 2 * x * y % p) == (a, b)
            roots += 1
    # F_p^* lies in the squares of F_(p^2)^*, which leaves (p - 1)^2 / 2 of them with b != 0
    assert roots == (p - 1) ** 2 // 2
