"""Acceptance suite: one test per numbered criterion, at the stated
tolerances and time budgets, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines.
"""

import random
import time
from fractions import Fraction as F

from arithdyn.boettcher import boettcher_series
from arithdyn.countkit.census import make_evaluator
from arithdyn.countkit.cover import cover_count_bound_holds, disk_cover
from arithdyn.countkit.jensen import jensen_zero_bound
from arithdyn.countkit.masser import _threshold_gap, masser_T_threshold, vanishing_polynomial
from arithdyn.countkit.powerlemma import power_lemma_min_X, power_lemma_oracle
from arithdyn.dynamics import snap_degree_multiset
from arithdyn.errors import ResourceGuardError
from arithdyn.exactnum import IntPoly, RatPoly, RealBall, ball_e, ball_log
from arithdyn.exactnum.series import series_compose_poly, series_power
from arithdyn.galois import cyclotomic_degree_qp, lifting_exponent, mult_order, padic_degree_bound
from arithdyn.polymap import PolyMap
from conftest import random_monic_map
from oracles import (
    canonical_height,
    census,
    construction_coefficient_power,
    covers_sample,
    exhaustive_factorization,
    naive_order,
)

P2 = PolyMap.from_text("X^2")


def _report(k, elapsed, budget, detail):
    assert elapsed < budget, f"criterion {k} exceeded budget: {elapsed:.1f}s >= {budget}s"
    print(f"ACCEPTANCE {k}: PASS ({elapsed:.2f}s < {budget}s) {detail}")


def test_criterion_1_functional_equation_residual():
    t0 = time.time()
    rng = random.Random(101)
    N = 10
    for i in range(10):
        P = random_monic_map(rng)
        B = boettcher_series(P, N)
        lhs = series_compose_poly(B.phi, P.poly)
        rhs = series_power(B.phi, P.degree)
        floor = max(lhs.cert_exp, rhs.cert_exp)
        assert floor <= P.degree - 1 - N
        for e in range(P.degree, floor - 1, -1):
            assert lhs.coefficient(e) == rhs.coefficient(e), (i, e)
    _report(1, time.time() - t0, 5, "residual identically zero for 10 random maps at N=10")


def test_criterion_2_quadratic_coefficients():
    t0 = time.time()
    for c in (F(1), F(-1), F(1, 2)):
        B = boettcher_series(PolyMap(RatPoly([c, 0, 1])), 5)
        assert B.b(1) == c / 2
        assert B.b(3) == c * (2 - c) / 8
    _report(2, time.time() - t0, 1, "b1 = c/2 and b3 = c(2-c)/8 exactly at c in {1,-1,1/2}")


def test_criterion_3_canonical_heights():
    t0 = time.time()
    eps = F(1, 10 ** 20)
    ch = canonical_height(P2, 2, eps)
    assert ch.rad <= eps
    log2 = ball_log(RealBall.exact(2), 256)
    assert abs(log2.mid - ch.mid) + log2.rad <= ch.rad  # contains log 2
    ch0 = canonical_height(PolyMap.from_text("X^2-1"), 0, eps)
    assert ch0.contains(0)
    rng = random.Random(33)
    checked = 0
    while checked < 20:
        P = random_monic_map(rng)
        alpha = F(rng.randint(-6, 6), rng.randint(1, 4))
        try:
            h_a = canonical_height(P, alpha, F(1, 10 ** 3))
            h_pa = canonical_height(P, P.eval(alpha), F(1, 10 ** 3))
        except ResourceGuardError:
            continue
        rhs = h_a * P.degree
        assert abs(h_pa.mid - rhs.mid) <= h_pa.rad + rhs.rad
        checked += 1
    _report(3, time.time() - t0, 10,
            "hhat enclosures at eps=1e-20 and 20 functional-equation checks")


def test_criterion_4_snap_degrees_and_factor_counts():
    t0 = time.time()
    # expected multisets from (X-2)(X+2)(X^2+4)(X^4+16)... : degrees 1,1,2,4,8,...
    for n in range(1, 7):
        rep = snap_degree_multiset(P2, 2, n)
        expected = [1, 1]
        d = 2
        while len(expected) < 2 ** n:
            expected.extend([d] * d)
            d *= 2
        assert rep.multiset == tuple(sorted(expected)), n
        assert rep.distinct_factors == n + 1
        assert rep.factor_report.reconstruct() == \
            IntPoly([-(2 ** (2 ** n))] + [0] * (2 ** n - 1) + [1])
    # independent exhaustive small-degree search at n <= 3
    for n in (1, 2, 3):
        f = IntPoly([-(2 ** (2 ** n))] + [0] * (2 ** n - 1) + [1])
        brute = exhaustive_factorization(f)
        mine = sorted(
            (fac for fac, m in snap_degree_multiset(P2, 2, n).factor_report.factors
             for _ in range(m)),
            key=lambda p: (p.degree, p.coeffs),
        )
        assert brute == mine, n
    _report(4, time.time() - t0, 60,
            "snap multisets, r = n+1 for n <= 6, brute-force agreement at n <= 3")


def test_criterion_5_padic_tightness():
    t0 = time.time()
    rep = padic_degree_bound(P2, F(1, 8), 3)
    assert rep.bound == 4
    snap = snap_degree_multiset(P2, F(1, 8), 3)
    assert snap.multiset == (1, 1, 2, 2, 4, 4, 4, 4)
    assert rep.bound == snap.max_degree
    _report(5, time.time() - t0, 5, "bound 4 equals the factorization maximum")


def test_criterion_6_galois_lemmas():
    t0 = time.time()
    from math import gcd

    for n in range(2, 501):
        for a in range(2, n):
            if gcd(a, n) == 1:
                assert mult_order(a, n) == naive_order(a, n), (a, n)
    for q in (2, 3, 5, 7):
        for a in range(2, 50):
            if a % q == 0:
                continue
            le = lifting_exponent(a, q)
            for n in range(max(le.m, 1), le.m + 5):
                if q ** n < 3:
                    continue
                assert naive_order(a, q ** n) == le.predicted_order(n), (a, q, n)
    for k in range(1, 11):
        assert cyclotomic_degree_qp(2, 2 ** k) == 2 ** (k - 1)
    _report(6, time.time() - t0, 30,
            "orders vs naive <= 500, stabilized-order formula, 2-power degrees")


def test_criterion_7_power_lemma():
    t0 = time.time()
    c_sq = construction_coefficient_power(1, 40, 2)  # c_theta^2 from the construction
    for X in range(1, 31):
        M = power_lemma_oracle(X, 1, 2).max_M
        assert M * M <= c_sq * X, (X, M)
    con = power_lemma_min_X(4, 1, 2)
    assert con.X_min == 9 and con.witness == (1, 2, 3, 3)
    _report(7, time.time() - t0, 120,
            "exhaustive X <= 30 against the construction constant; X_min(4) = 9")


def test_criterion_8_cover_and_jensen():
    t0 = time.time()
    centers = disk_cover(2, 1)
    assert len(centers) <= 23
    assert cover_count_bound_holds(len(centers), 2, 1)
    rng = random.Random(8)
    pts = []
    while len(pts) < 10 ** 4:
        x = F(rng.randint(-2000, 2000), 1000)
        y = F(rng.randint(-2000, 2000), 1000)
        if x * x + y * y <= 4:
            pts.append((x, y))
    assert covers_sample(centers, 1, pts)
    checked = 0
    while checked < 20:
        k = rng.randint(1, 5)
        zeros = [F(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(k)]
        g = IntPoly([1])
        for z in zeros:
            g = g * IntPoly([-z.numerator, z.denominator])
        r, R = F(1), F(3)
        if g.eval(F(0)) == 0:
            continue
        true_count = sum(1 for z in zeros if abs(z) <= r)
        M = sum(abs(F(c)) * R ** i for i, c in enumerate(g.coeffs))
        assert jensen_zero_bound(M, abs(g.eval(F(0))), r, R) >= true_count
        checked += 1
    _report(8, time.time() - t0, 10,
            "cover(2,1) <= 23 over a 10^4 sample; zero bound dominates 20 cases")


def test_criterion_9_vanishing_polynomials():
    t0 = time.time()
    rng = random.Random(9)
    for trial in range(10):
        k = rng.randint(1, 12)
        pts = set()
        while len(pts) < k:
            pts.add((F(rng.randint(-6, 6), rng.randint(1, 3)),
                     F(rng.randint(-6, 6), rng.randint(1, 3))))
        pts = sorted(pts)
        t_max = 1
        while (t_max + 1) * (t_max + 2) // 2 <= len(pts):
            t_max += 1
        poly = vanishing_polynomial(pts, t_max)
        assert not poly.is_zero()
        assert poly.total_degree <= t_max
        for x, y in pts:
            assert poly.eval(x, y) == 0
    _report(9, time.time() - t0, 10, "10 random point sets, exact vanishing, nonzero")


def test_criterion_10_census_soundness():
    t0 = time.time()
    res = census(make_evaluator("square"), 4)
    assert res.count == 1
    only = [r for r in res.records if r.verdict == "candidate-rational"]
    assert only[0].q == F(1, 2) and only[0].candidate == F(1, 4)

    ev = make_evaluator("lambda", N=16)
    lam = census(ev, 20, precision=128, escalations=1)
    counts = lam.verdict_counts()
    assert counts.get("candidate-rational", 0) == 0
    assert counts.get("undecided-at-precision", 0) == 0
    for r in lam.records:
        assert r.verdict == "certified-no-rational"
        v2 = ev(r.q, 4 * r.precision_used)
        cand = v2.mid.limit_denominator(20)
        assert abs(cand - v2.mid) > v2.rad  # re-verifies at 4x precision
    _report(10, time.time() - t0, 2,
            "square census count 1; lambda census H=20 all certified, re-verified at 4x")


def test_criterion_11_masser_threshold():
    t0 = time.time()
    e = ball_e(192)
    one = RealBall.exact(F(1))
    cases = [
        (RealBall.exact(F(2)), one, e, 2),
        (RealBall.exact(F(3, 2)), RealBall.exact(F(5)), RealBall.exact(F(10)), 3),
        (e ** 100, one, one, 1),
        (RealBall.exact(F(10)), RealBall.exact(F(2)), e ** 2, 2),
        (RealBall.exact(F(100)), RealBall.exact(F(1, 2)), one, 4),
    ]
    for AZ, M, H, d in cases:
        T = masser_T_threshold(AZ, M, H, d)
        gap = _threshold_gap(AZ, M, H, d, T, 192)
        assert gap.lo > 0, "returned T must certifiably satisfy the inequality"
        T_small = T * (1 - F(1, 10 ** 6))
        if T_small * T_small >= 8 * d:
            gap_small = _threshold_gap(AZ, M, H, d, T_small, 192)
            assert gap_small.hi <= 0, "slightly smaller T must certifiably fail"
        # else: T_small < sqrt(8d) fails the domain constraint, as required
    _report(11, time.time() - t0, 5, "5 tuples: T certified, T(1-1e-6) fails")
