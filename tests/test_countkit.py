import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithdyn.countkit.census import (
    CENSUS_FUNCTIONS,
    census_records,
    enumerate_rationals,
    make_evaluator,
)
from arithdyn.countkit.cover import cover_count_bound_holds, disk_cover
from arithdyn.countkit.jensen import jensen_zero_bound
from arithdyn.countkit.masser import _threshold_gap, masser_T_threshold, vanishing_polynomial
from arithdyn.countkit.powerlemma import _cap, admissible, power_lemma_min_X, power_lemma_oracle
from arithdyn.countkit.shapes import bound_shape
from arithdyn.errors import DomainError, ResourceGuardError
from arithdyn.exactnum import IntPoly, RealBall, ball_e
from arithdyn.ntheory import iroot
from oracles import census, construction_coefficient_power, covers_sample


# --- covering ---------------------------------------------------------------


def test_cover_concentric():
    assert disk_cover(1, 1) == [(F(0), F(0))]
    assert disk_cover(F(1, 2), 1) == [(F(0), F(0))]


def test_cover_two_to_one():
    centers = disk_cover(2, 1)
    assert len(centers) <= 23
    assert cover_count_bound_holds(len(centers), 2, 1)


def test_cover_small_radius():
    centers = disk_cover(1, F(1, 4))
    assert len(centers) <= 58
    assert cover_count_bound_holds(len(centers), 1, F(1, 4))


def _sample_points(R, k, seed=5):
    rng = random.Random(seed)
    pts = []
    R = F(R)
    for _ in range(k):
        x = F(rng.randint(-1000, 1000), 1000) * R
        y = F(rng.randint(-1000, 1000), 1000) * R
        if x * x + y * y <= R * R:
            pts.append((x, y))
    # boundary and axis points
    pts += [(R, F(0)), (-R, F(0)), (F(0), R), (F(0), -R), (F(0), F(0))]
    return pts


def test_cover_covers_sample():
    centers = disk_cover(2, 1)
    assert covers_sample(centers, 1, _sample_points(2, 500))


@given(rn=st.integers(1, 16), rd=st.integers(1, 4), Rn=st.integers(1, 24), Rd=st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_cover_bound_random(rn, rd, Rn, Rd):
    R, r = F(Rn, Rd), F(rn, rd)
    if R / r > 12:  # keep grids at desk scale
        r = R / 12
    centers = disk_cover(R, r)
    assert cover_count_bound_holds(len(centers), R, r)
    assert covers_sample(centers, r, _sample_points(R, 40, seed=rn * 100 + Rn))


# --- jensen ----------------------------------------------------------------


def test_jensen_examples():
    assert jensen_zero_bound(1, 1, F(1, 2), 1) == 0
    assert jensen_zero_bound(F(5, 4), F(1, 4), F(1, 2), 1) == 2
    e = ball_e(96)
    # M = e, g0 = 1, r = 1, R = e -> 1; use rational stand-ins e is fine too
    assert jensen_zero_bound(F(27183, 10000), 1, 1, F(27182, 10000)) == 1


def test_jensen_rejects():
    with pytest.raises(DomainError):
        jensen_zero_bound(1, 0, F(1, 2), 1)
    with pytest.raises(DomainError):
        jensen_zero_bound(1, 1, 1, F(1, 2))


def test_jensen_dominates_true_zero_counts():
    # battery of explicit polynomials with exactly-known zeros
    rng = random.Random(11)
    for _ in range(20):
        k = rng.randint(1, 5)
        zeros = [F(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(k)]
        g = IntPoly([1])
        for z in zeros:
            g = g * IntPoly([-z.numerator, z.denominator])
        r = F(1)
        R = F(3)
        if any(abs(z) == r for z in zeros) or g.eval(F(0)) == 0:
            continue
        true_count = sum(1 for z in zeros if abs(z) <= r)
        # valid analytic sup bound on |z| = R: sum |c_i| R^i
        M = sum(abs(F(c)) * R ** i for i, c in enumerate(g.coeffs))
        bound = jensen_zero_bound(M, abs(g.eval(F(0))), r, R)
        assert bound >= true_count


# --- masser threshold -------------------------------------------------------


def _certified_satisfies(AZ, M, H, d, T, prec=160):
    g = _threshold_gap(AZ if isinstance(AZ, RealBall) else RealBall.exact(F(AZ)),
                       M if isinstance(M, RealBall) else RealBall.exact(F(M)),
                       H if isinstance(H, RealBall) else RealBall.exact(F(H)),
                       d, F(T), prec)
    if g.lo > 0:
        return True
    if g.hi <= 0:
        return False
    raise AssertionError("undecidable at test precision")


def test_masser_threshold_tuples():
    e = ball_e(160)
    cases = [
        (RealBall.exact(F(2)), RealBall.exact(F(1)), e, 2),
        (e ** 100, RealBall.exact(F(1)), RealBall.exact(F(1)), 1),
        (RealBall.exact(F(3, 2)), RealBall.exact(F(5)), RealBall.exact(F(10)), 3),
        (RealBall.exact(F(10)), RealBall.exact(F(2)), e ** 2, 2),
        (RealBall.exact(F(100)), RealBall.exact(F(1, 2)), RealBall.exact(F(1)), 4),
    ]
    for AZ, M, H, d in cases:
        T = masser_T_threshold(AZ, M, H, d)
        assert T >= 0
        floor = F(8 * d)
        assert T * T >= floor  # T >= sqrt(8d)
        assert _certified_satisfies(AZ, M, H, d, T)
        T_small = T * (1 - F(1, 10 ** 6))
        if T_small * T_small >= floor:
            assert not _certified_satisfies(AZ, M, H, d, T_small)
        # else: below the sqrt(8d) floor, fails the domain constraint


def test_masser_AZ_one_rejected():
    with pytest.raises(DomainError):
        masser_T_threshold(1, 1, 1, 2)


def test_masser_low_hundreds_regression():
    T = masser_T_threshold(RealBall.exact(F(2)), RealBall.exact(F(1)), ball_e(160), 2)
    assert 100 < T < 1000


# --- vanishing polynomial ----------------------------------------------------


def test_vanish_examples():
    p0 = vanishing_polynomial([], 1)
    assert p0.terms == (((0, 0), 1),)
    p1 = vanishing_polynomial([(0, 0)], 1)
    assert p1.total_degree == 1 and p1.eval(0, 0) == 0
    p2 = vanishing_polynomial([(1, 1), (2, 4), (3, 9)], 2)
    assert p2.total_degree <= 2 and not p2.is_zero()
    for x, y in ((1, 1), (2, 4), (3, 9)):
        assert p2.eval(x, y) == 0


def test_vanish_dimension_gate():
    pts = [(i, i * i) for i in range(6)]
    with pytest.raises(DomainError):
        vanishing_polynomial(pts, 1)  # 3 monomials <= 6 points


_coord = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@given(st.lists(st.tuples(_coord, _coord), min_size=1, max_size=8, unique=True))
@settings(max_examples=20, deadline=None)
def test_vanish_random(pts):
    pts = sorted(pts)
    t_max = 1
    while (t_max + 1) * (t_max + 2) // 2 <= len(pts):
        t_max += 1
    poly = vanishing_polynomial(pts, t_max)
    assert not poly.is_zero()
    assert poly.total_degree <= t_max
    for x, y in pts:
        assert poly.eval(x, y) == 0


# --- power lemma -------------------------------------------------------------


def test_power_construction_sequence():
    con = power_lemma_min_X(5, 1, 2)
    # a_1 = 1, a_2 = 1, a_3 = 2, a_4 = 1 per greedy maximization
    assert con.counts[:3] == (1, 1, 2)
    assert power_lemma_min_X(4, 1, 2).X_min == 9
    assert power_lemma_min_X(4, 1, 2).witness == (1, 2, 3, 3)
    assert power_lemma_min_X(1, 1, 2).X_min == 1


def test_power_oracle_examples():
    assert power_lemma_oracle(9, 1, 2).max_M == 4
    assert power_lemma_oracle(1, 1, 2).max_M == 1
    r = power_lemma_oracle(3, 1, 2)
    assert r.max_M == 2 and r.witness == (1, 2)


def test_cap_is_the_floor_of_c_k_to_the_theta():
    """``_cap`` against the exact comparison s <= c k^(p/q) <=> (s/c)^q <= k^p,
    at floor(c) = 0, negative, zero and fractional theta."""
    for c in (F(1, 2), F(1), F(5, 2), F(7, 3), F(1000, 7)):
        for theta in (F(-3, 2), F(-1), F(0), F(1, 3), F(1), F(3, 2), F(2), F(7, 3), F(5, 2)):
            p, q = theta.numerator, theta.denominator
            for k in range(1, 40):
                f = _cap(c, k, theta)
                assert f <= 0 or (f / c) ** q <= F(k) ** p
                assert ((f + 1) / c) ** q > F(k) ** p


def test_iroot_is_the_integer_floor_of_the_root():
    for k in range(1, 8):
        for n in [*range(0, 300), 2 ** 200 - 1, 2 ** 200, 3 ** 150 + 7]:
            r = iroot(n, k)
            assert r ** k <= n < (r + 1) ** k, (n, k)


def test_power_oracle_guard():
    with pytest.raises(ResourceGuardError):
        power_lemma_oracle(41, 1, 2)


def test_construction_witness_admissible():
    for M in range(1, 12):
        con = power_lemma_min_X(M, 1, 2)
        assert admissible(con.witness, 1, 2)
        assert sum(con.witness) == con.X_min
        assert len(con.witness) == M


def test_oracle_vs_construction_consistency_small():
    # oracle max M at X equals the inverse of the construction's X_min
    for X in range(1, 16):
        m_oracle = power_lemma_oracle(X, 1, 2).max_M
        assert power_lemma_min_X(m_oracle, 1, 2).X_min <= X
        assert power_lemma_min_X(m_oracle + 1, 1, 2).X_min > X


def test_construction_coefficient_is_sup():
    c2 = construction_coefficient_power(1, 12, 2)
    for X in range(1, 16):
        M = power_lemma_oracle(X, 1, 2).max_M
        assert M * M <= c2 * X


# --- bound shapes ------------------------------------------------------------


def test_bound_shape_values():
    e = ball_e(128)
    v = bound_shape("decay_unit_disk", d=2, H=e)
    ref = 512 * math.log(2) ** 2
    assert abs(float(v.mid) - ref) < 1e-6
    g = bound_shape("growth_rational_count", d=2, H=e)
    assert g.contains(1) or abs(float(g.mid) - 1) < 1e-20
    x = bound_shape("degree_lower", D=2, n=8, eps=F(1, 8))
    assert x.mid == 2 and x.rad == 0
    y = bound_shape("factor_count", D=2, n=4, eps=F(1, 4))
    assert y.mid == 16  # 2^(3+1)


def test_bound_shape_domain_checks():
    with pytest.raises(DomainError):
        bound_shape("decay_unit_disk", d=1, H=ball_e(64))
    with pytest.raises(DomainError):
        bound_shape("decay_unit_disk", d=2, H=F(2))  # H < e
    with pytest.raises(DomainError):
        bound_shape("nonsense", d=2, H=ball_e(64))
    with pytest.raises(DomainError):
        bound_shape("decay_profile", d=2, H=ball_e(64))  # missing l


def test_bound_shape_profile_tags():
    e = ball_e(96)
    for tag in ("decay_profile", "growth_profile", "compact_refinement",
                "interpolation_degree"):
        v = bound_shape(tag, d=3, H=e ** 2, l=F(3))
        assert v.lo > 0


# --- rational enumeration and census ----------------------------------------


def test_enumerate_examples():
    assert enumerate_rationals(2) == [F(1, 2)]
    assert enumerate_rationals(1) == []
    nine = enumerate_rationals(5)
    assert len(nine) == 9
    assert nine[0] == F(1, 2) and nine[-1] == F(4, 5)


def test_enumeration_refuses_more_than_its_pair_cap():
    # H = 447 scans 447 * 446 / 2 = 99681 pairs; H = 448 would scan 100128
    assert len(enumerate_rationals(F(895, 2))) == 60873
    with pytest.raises(ResourceGuardError):
        enumerate_rationals(448)


def test_census_square():
    res = census(make_evaluator("square"), 4)
    assert res.count == 1
    cands = [r for r in res.records if r.verdict == "candidate-rational"]
    assert len(cands) == 1 and cands[0].q == F(1, 2) and cands[0].candidate == F(1, 4)
    assert all(r.verdict != "undecided-at-precision" for r in res.records)


def test_census_const():
    res = census(make_evaluator("const", value=F(1, 2)), 5)
    assert res.count == 9


def test_census_zero_exclusion():
    res = census(make_evaluator("const", value=F(0)), 4)
    assert res.count == 0
    assert all(r.excluded_zero for r in res.records)


def test_census_fstar_and_delta_evaluators():
    res = census(make_evaluator("fstar", map_text="X^2", alpha=F(4), N=8), 5, precision=128)
    assert res.count == 0
    assert res.verdict_counts() == {"certified-no-rational": 9}
    res2 = census(make_evaluator("delta", N=12), 5, precision=128)
    assert res2.count == 0
    # every census function builds with the defaults
    assert all(make_evaluator(f)(F(1, 2), 64).rad >= 0 for f in CENSUS_FUNCTIONS)


def test_census_soundness_reverification():
    ev = make_evaluator("lambda", N=16)
    res = census(ev, 6, precision=96)
    for r in res.records:
        if r.verdict == "certified-no-rational":
            v2 = ev(r.q, 4 * r.precision_used)
            # tighter ball stays strictly clear of every height-6 rational
            cand = v2.mid.limit_denominator(6)
            assert abs(cand - v2.mid) > v2.rad
        if r.verdict == "candidate-rational":
            v2 = ev(r.q, 4 * r.precision_used)
            assert v2.contains(r.candidate)


@pytest.mark.parametrize("escalations, verdict, precision, calls", [
    (0, "undecided-at-precision", 4, 1),
    (1, "certified-no-rational", 16, 2),
])
def test_census_reports_the_last_precision_it_classified_at(escalations, verdict, precision,
                                                            calls):
    # 1/3 +- 1/prec holds 1/2 at prec 4 and clears every height-2 rational at
    # prec 16; an undecided point keeps its last ball and is not evaluated again
    seen = []

    def evaluator(q, prec):
        seen.append(prec)
        return RealBall(F(1, 3), F(1, prec))

    (rec,) = census_records(evaluator, [F(1, 2)], 2, precision=4, escalations=escalations)
    assert (rec.verdict, rec.precision_used) == (verdict, precision)
    assert rec.value.rad == F(1, precision)
    assert len(seen) == calls and seen[-1] == precision


def test_escalation_raises_the_lambda_delta_term_cap():
    # at tau = 2i/(1 - 1/20) the discriminant product needs more than 16
    # factors at 512 bits: with the cap held at N = 16, 4x the bits leave the
    # relative radius where it was
    q = F(1, 20)
    held, scaled = make_evaluator("delta", N=16), make_evaluator("delta", N=16, precision=512)
    first, again = scaled(q, 512), held(q, 512)
    assert (first.mid, first.rad) == (again.mid, again.rad)  # the first round keeps N

    def rel(v):
        return v.rad / abs(v.mid)

    assert rel(held(q, 2048)) >= rel(first) / 2
    assert rel(scaled(q, 2048)) < rel(first) / 2 ** 300
    lam = make_evaluator("lambda", N=4, precision=128)
    assert rel(lam(q, 512)) < rel(lam(q, 128)) / 2 ** 300
