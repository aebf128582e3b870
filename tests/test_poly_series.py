import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithdyn.cli import main
from arithdyn.errors import DomainError
from arithdyn.exactnum import IntPoly, RatPoly, parse_poly
from arithdyn.exactnum.series import (
    TruncSeries,
    series_compose_poly,
    series_inverse,
    series_power,
    series_reciprocal,
    series_root,
)
import oracles
from oracles import (
    dict_series_add,
    dict_series_inverse,
    dict_series_mul,
    dict_series_pow,
    dict_series_reciprocal,
    dict_series_root,
    series_compose_series,
)

small = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def test_parse_and_str():
    p = parse_poly("X^2 - 3*X + 1/2")
    assert p.coeffs == (F(1, 2), F(-3), F(1))
    assert parse_poly("X^2") == RatPoly([0, 0, 1])
    assert parse_poly("-X") == RatPoly([0, -1])
    with pytest.raises(DomainError):
        parse_poly("X^")


def test_parse_rejects_dangling_and_doubled_signs():
    assert parse_poly("+X^2") == RatPoly([0, 0, 1])
    assert parse_poly("X^2+-X") == parse_poly("X^2 + - X") == RatPoly([0, -1, 1])
    for text in ("X^2+", "X^2++X", "X^2-", "X^2--X", "X^2-+X", "+", "+ +X"):
        with pytest.raises(DomainError):
            parse_poly(text)


def test_json_round_trip(capsys):
    # the CLI prints coefficients as exact "p/q" strings that parse back
    assert main(["iterate", "--map", "X^2-3*X+1/2", "--n", "2"]) == 0
    coeffs = json.loads(capsys.readouterr().out)["result"]["coeffs"]
    p = parse_poly("X^2-3*X+1/2")
    assert RatPoly(F(c) for c in coeffs) == p.compose(p)
    assert main(["factor", "--poly", "-X^2+2"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["scale"] == "-1/1"
    assert result["factors"] == [{"coeffs": ["-2/1", "0/1", "1/1"], "mult": 1}]


@given(a=st.lists(small, min_size=1, max_size=5), b=st.lists(small, min_size=1, max_size=5))
@settings(max_examples=50, deadline=None)
def test_divmod_identity(a, b):
    pa, pb = RatPoly(a), RatPoly(b)
    if pb.is_zero():
        return
    q, r = pa.divmod(pb)
    assert q * pb + r == pa
    assert r.degree < pb.degree


ints = st.lists(st.integers(-6, 6), max_size=6)


@given(a=ints, b=ints.filter(any), r=ints)
@settings(max_examples=200, deadline=None)
def test_int_exact_div_agrees_with_rational_division(a, b, r):
    f = IntPoly(a) * IntPoly(b) + IntPoly(r)
    q, rem = f.to_rat().divmod(IntPoly(b).to_rat())
    if rem.is_zero() and all(c.denominator == 1 for c in q.coeffs):
        assert f.exact_div(IntPoly(b)).to_rat() == q
    else:
        with pytest.raises(DomainError):
            f.exact_div(IntPoly(b))


def test_compose():
    p = parse_poly("X^2+1")
    assert p.compose(p) == parse_poly("X^4 + 2*X^2 + 2")


def test_gcd_monic():
    a = parse_poly("X^2-1")
    b = parse_poly("X^2 - 2*X + 1")
    assert a.gcd(b) == parse_poly("X - 1")


def test_int_poly_primitive():
    c, prim = IntPoly([-6, 0, -12]).primitive()
    assert c == -6 and prim == IntPoly([1, 0, 2])


# --- series ---------------------------------------------------------------


def pad(coeffs, depth):
    return TruncSeries(1, list(coeffs) + [F(0)] * depth)


def test_identity_compose():
    s = TruncSeries.identity(-4)
    out = series_compose_poly(s, parse_poly("X^2+1"))
    assert out.coefficient(2) == 1 and out.coefficient(0) == 1
    assert all(out.coefficient(e) == 0 for e in range(-1, out.cert_exp - 1, -1) if e != 0)


def test_compose_direct_substitution():
    # (z + 1/2 z^-1) o X^2 = z^2 + 1/2 z^-2
    s = pad([F(1), F(0), F(1, 2)], 4)
    out = series_compose_poly(s, parse_poly("X^2"))
    assert out.coefficient(2) == 1
    assert out.coefficient(-2) == F(1, 2)
    assert out.coefficient(0) == 0
    # certified floor: (cert_s - 1) * D + 1
    assert out.cert_exp == (s.cert_exp - 1) * 2 + 1


def test_compose_phi_like_series():
    # s = z + (1/2) z^-1 + (1/8) z^-3 into X^2 + 1: constant 1, z^-2 term 1/2
    s = pad([F(1), F(0), F(1, 2), F(0), F(1, 8)], 4)
    out = series_compose_poly(s, parse_poly("X^2+1"))
    assert out.coefficient(0) == 1
    assert out.coefficient(-2) == F(1, 2)


def test_power_binomial():
    s = pad([F(1), F(0), F(1, 2)], 3)
    out = series_power(s, 2)
    assert out.coefficient(2) == 1
    assert out.coefficient(0) == 1
    assert out.coefficient(-2) == F(1, 4)


def test_power_identity():
    s = pad([F(1), F(3), F(1, 2)], 3)
    assert series_power(s, 1) == s


def test_power_of_plain_z():
    s = TruncSeries.identity(-3)
    cube = series_power(s, 3)
    assert cube.coefficient(3) == 1
    assert all(cube.coefficient(e) == 0 for e in range(2, cube.cert_exp - 1, -1))


def test_power_rejects_bad_lead():
    with pytest.raises(DomainError):
        series_power(TruncSeries(2, [F(1), F(0)]), 2)


def test_compose_rejects_nonmonic():
    s = TruncSeries.identity(-2)
    with pytest.raises(DomainError):
        series_compose_poly(s, parse_poly("2*X^2"))
    with pytest.raises(DomainError):
        series_compose_poly(s, parse_poly("X"))


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_power_matches_naive_dict_convolution(data):
    N = data.draw(st.integers(min_value=1, max_value=12))
    D = data.draw(st.integers(min_value=1, max_value=4))
    coeffs = [F(1)] + [data.draw(small) for _ in range(N)]
    s = TruncSeries(1, coeffs)
    out = series_power(s, D)
    naive = dict_series_pow(s.as_dict(), D)
    for e in range(out.lead_exp, out.cert_exp - 1, -1):
        assert out.coefficient(e) == naive.get(e, F(0))


def test_certified_tail_bookkeeping():
    # composing a short and a long version of the same series agrees on the
    # certified range of the short one, and only there is agreement guaranteed
    long = pad([F(1), F(0), F(1, 2), F(1, 3), F(1, 5), F(1, 7)], 6)
    short = long.truncate(-2)
    p = parse_poly("X^2+1")
    a = series_compose_poly(short, p)
    b = series_compose_poly(long, p)
    for e in range(a.lead_exp, a.cert_exp - 1, -1):
        assert a.coefficient(e) == b.coefficient(e)
    assert a.cert_exp == -5  # (-2 - 1) * 2 + 1
    assert b.cert_exp < a.cert_exp


def test_series_inverse_first_order():
    s = pad([F(1), F(0), F(1, 2)], 4)
    inv = series_inverse(s)
    assert inv.coefficient(1) == 1
    assert inv.coefficient(0) == 0
    assert inv.coefficient(-1) == F(-1, 2)
    # round trip on the common certified range
    rt = series_compose_series(inv, s)
    assert rt.coefficient(1) == 1
    for e in range(0, rt.cert_exp - 1, -1):
        assert rt.coefficient(e) == 0


def test_mul_certified_range_rule():
    a = pad([F(1), F(2)], 3)  # cert -3
    b = pad([F(1), F(0), F(5)], 1)  # cert -1
    prod = a * b
    assert prod.cert_exp == max(a.cert_exp + b.lead_exp, b.cert_exp + a.lead_exp)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_reciprocal_times_series_is_one(data):
    lead = data.draw(st.integers(min_value=-2, max_value=3))
    coeffs = [data.draw(small.filter(bool))] + data.draw(st.lists(small, max_size=10))
    s = TruncSeries(lead, coeffs)
    r = series_reciprocal(s)
    assert r.cert_exp == s.cert_exp - 2 * s.lead_exp
    prod = s * r
    assert prod.cert_exp == s.cert_exp - s.lead_exp
    for e in range(0, prod.cert_exp - 1, -1):
        assert prod.coefficient(e) == (e == 0)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_root_to_the_power_D_gives_back_the_series(data):
    D = data.draw(st.integers(min_value=1, max_value=4))
    N = data.draw(st.integers(min_value=0, max_value=10))
    s = series_power(TruncSeries(1, [F(1)] + [data.draw(small) for _ in range(N + 1)]), D)
    h = series_root(s, D)
    assert h.cert_exp == s.cert_exp - D + 1
    back = series_power(h, D)
    assert back.cert_exp == s.cert_exp
    assert back == s


def test_root_rejects_bad_lead():
    with pytest.raises(DomainError):
        series_root(TruncSeries(2, [F(1), F(0)]), 3)
    with pytest.raises(DomainError):
        series_root(TruncSeries(2, [F(2), F(0)]), 2)
    with pytest.raises(DomainError):
        series_reciprocal(TruncSeries(1, [F(0), F(0)]))


def _old_scalar_add(s: TruncSeries, c) -> TruncSeries:
    """s + c the way the full-series sum formed it: c as a series, every slot summed."""
    other = TruncSeries(0, [F(c)] + [F(0)] * (0 - s.cert_exp))
    cert = max(s.cert_exp, other.cert_exp)
    lead = max(s.lead_exp, other.lead_exp, cert)
    coeffs = []
    for e in range(lead, cert - 1, -1):
        a = s.coeffs[s.lead_exp - e] if s.cert_exp <= e <= s.lead_exp else F(0)
        b = other.coeffs[other.lead_exp - e] if other.cert_exp <= e <= other.lead_exp else F(0)
        coeffs.append(a + b)
    return TruncSeries(lead, coeffs)


@given(lead=st.integers(min_value=-5, max_value=5),
       coeffs=st.lists(st.one_of(st.just(F(0)), small), min_size=1, max_size=9),
       c=st.one_of(st.just(F(0)), small, st.integers(min_value=-3, max_value=3)))
@settings(max_examples=200, deadline=None)
def test_scalar_add_equals_the_full_series_sum(lead, coeffs, c):
    s = TruncSeries(lead, coeffs)  # cert_exp from -13 to 5: z^0 above and below it
    want = _old_scalar_add(s, c)
    for got in (s + c, c + s, s - (-c)):
        assert (got.lead_exp, got.cert_exp, got.coeffs) == (want.lead_exp, want.cert_exp,
                                                            want.coeffs)


# --- the integer kernel against naive Fraction dicts -------------------------

# denominators with odd primes; leading coefficients of either sign, not 1
_rats = st.builds(F, st.integers(-30, 30), st.sampled_from([1, 1, 2, 3, 5, 7, 9, 15, 49]))
_leads = _rats.filter(bool)


@st.composite
def _series(draw, max_terms=9):
    lead = draw(st.integers(-4, 4))
    return TruncSeries(lead, [draw(_leads)] + draw(st.lists(_rats, max_size=max_terms)))


@st.composite
def _lead_series(draw, lead=1, max_depth=8):
    """z^lead + ... with a rational tail: the input of root, compose and inverse."""
    return TruncSeries(lead, [1] + draw(st.lists(_rats, min_size=1, max_size=max_depth)))


def _canonical(s: TruncSeries) -> TruncSeries:
    """s after checking the stored form: one numerator per certified slot,
    a nonzero leading one, a positive denominator, lowest terms; and a
    rebuild from its Fractions over a larger denominator is equal, hash too."""
    assert len(s.nums) == s.lead_exp - s.cert_exp + 1
    assert s.den > 0 and math.gcd(s.den, *s.nums) == 1
    assert not s.nums or s.nums[0] != 0
    rebuilt = TruncSeries(s.lead_exp + 1, [0] + [c * F(6, 6) for c in s.coeffs])
    assert rebuilt == s and hash(rebuilt) == hash(s)
    return s


def _agrees(s: TruncSeries, want: dict, cert: int):
    assert _canonical(s).cert_exp == cert
    want = {e: c for e, c in want.items() if e >= cert and c}
    assert s.as_dict() == want
    assert s.lead_exp == max(want, default=cert - 1)


@given(s=_series(), t=_series(), c=st.one_of(_rats, st.integers(-3, 3)),
       cut=st.integers(0, 4))
@settings(max_examples=150, deadline=None)
def test_ring_operations_match_the_dict_oracle(s, t, c, cut):
    ds, dt = s.as_dict(), t.as_dict()
    cert = max(s.cert_exp + t.lead_exp, t.cert_exp + s.lead_exp)
    _agrees(s * t, dict_series_mul(ds, dt), cert)
    _agrees(s * s, dict_series_mul(ds, ds), s.cert_exp + s.lead_exp)
    _agrees(s + t, dict_series_add(ds, dt, max(s.cert_exp, t.cert_exp)),
            max(s.cert_exp, t.cert_exp))
    _agrees(s - t, dict_series_add(ds, {e: -x for e, x in dt.items()}, -10 ** 9),
            max(s.cert_exp, t.cert_exp))
    _agrees(s + c, dict_series_add(ds, {0: F(c)}, s.cert_exp), s.cert_exp)
    _agrees(-s, {e: -x for e, x in ds.items()}, s.cert_exp)
    _agrees(s.truncate(s.cert_exp + cut), ds, s.cert_exp + cut)


@given(s=_series())
@settings(max_examples=100, deadline=None)
def test_reciprocal_matches_the_dict_oracle(s):
    cert = s.cert_exp - 2 * s.lead_exp
    _agrees(series_reciprocal(s), dict_series_reciprocal(s.as_dict(), cert), cert)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_root_matches_the_dict_oracle(data):
    D = data.draw(st.integers(1, 4))
    s = data.draw(_lead_series(lead=D))
    cert = s.cert_exp - D + 1
    _agrees(series_root(s, D), dict_series_root(s.as_dict(), D, cert), cert)


@given(s=_lead_series(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_compose_poly_matches_the_geometric_series_oracle(s, data):
    D = data.draw(st.integers(2, 4))
    p = RatPoly([data.draw(_rats) for _ in range(D)] + [1])
    got, want = series_compose_poly(s, p), oracles.series_compose_poly(s, p)
    _agrees(got, want.as_dict(), want.cert_exp)


@given(s=_lead_series())
@settings(max_examples=80, deadline=None)
def test_inverse_matches_lagrange_on_dicts_and_undoes_the_series(s):
    inv = series_inverse(s)
    _agrees(inv, dict_series_inverse(s.as_dict(), -s.cert_exp), s.cert_exp)
    rt = series_compose_series(inv, s)
    assert rt.as_dict() == {1: 1}
