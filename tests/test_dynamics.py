import random
import time
from fractions import Fraction as F

import pytest

from arithdyn import dynamics
from arithdyn.errors import DomainError, ResourceGuardError
from arithdyn.exactnum import IntPoly, RatPoly, RealBall, ball_log, parse_poly
from arithdyn.factorint import capelli, modp, zassenhaus
from arithdyn.dynamics import (
    bounded_height_region_check,
    canonical_height_stats,
    height_gap_constant,
    irreducible_count,
    low_degree_proportion,
    snap_degree_multiset,
)
from arithdyn.heights import height_rational
from arithdyn.ntheory import PROVEN_PRIME_BOUND
from arithdyn.polymap import PolyMap
from conftest import random_monic_map
from oracles import (
    canonical_height,
    gap_constant_by_elimination,
    per_link_chain,
    telescoped_height_stats,
    tower_chains,
    tower_identity,
)

P2 = PolyMap.from_text("X^2")
P21 = PolyMap.from_text("X^2+1")
PM1 = PolyMap.from_text("X^2-1")


def test_iterate_examples():
    assert P2.iterate_poly(0) == parse_poly("X")
    assert P21.iterate_poly(2) == parse_poly("X^4 + 2*X^2 + 2")
    assert P2.iterate_poly(5) == parse_poly("X^32")


def test_iterate_degree_cap():
    with pytest.raises(ResourceGuardError):
        P2.iterate_poly(13)  # 2^13 > 4096


def test_nonmonic_rejected_with_conjugation_helper():
    with pytest.raises(DomainError):
        PolyMap.from_text("2*X^2")


def test_a_map_is_checked_on_construction_and_compared_by_its_polynomial():
    with pytest.raises(DomainError, match="degree at least 2"):
        PolyMap(RatPoly([1, 1]))
    with pytest.raises(DomainError, match="degree at least 2"):
        PolyMap(RatPoly([]))
    same = PolyMap(RatPoly([1, 0, 1]))
    assert same == P21 and hash(same) == hash(P21)
    assert same != P2 and same != P21.poly
    assert len({same, P21, P2}) == 2


def test_gap_constant_power_map_is_zero():
    gc = height_gap_constant(P2)
    assert gc.one_step_arg == 1
    assert gc.gap().mid == 0 and gc.gap().rad == 0


def test_gap_constant_x2_plus_1():
    gc = height_gap_constant(P21)
    # regression: the cofactor construction yields exactly log 2 here,
    # within the advertised log 2 + resultant-length budget
    assert gc.one_step_arg == 2
    assert gc.gap(96).contains_ball(ball_log(RealBall.exact(2), 96))


def test_gap_constant_grows_with_coefficient_length():
    a = height_gap_constant(P21).one_step_arg
    b = height_gap_constant(PolyMap.from_text("X^2+1/3")).one_step_arg
    assert b > a  # regression, not a theorem


def test_gap_constant_matches_the_cofactor_elimination():
    # the series reciprocal gives the X^(2D-1) cofactor that the full 2D x 2D
    # elimination gives, and the Y^(2D-1) cofactor, which it drops, always
    # has length 1, so it never sets the maximum
    rng = random.Random(20261020)
    maps = [PolyMap.from_text(t) for t in ("X^2", "X^3", "X^4")]
    for _ in range(500):
        D = rng.randint(2, 7)
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(D)]
        maps.append(PolyMap(RatPoly(coeffs + [F(1)])))
    for P in maps:
        one_step_arg, _, y_length = gap_constant_by_elimination(P)
        assert height_gap_constant(P).one_step_arg == one_step_arg, str(P)
        assert y_length == 1, str(P)


def test_gap_constant_bounds_one_step_heights(rng):
    # certified: |h(P(x)) - D h(x)| <= log(one_step_arg) for random rationals
    for _ in range(10):
        P = random_monic_map(rng)
        gc = height_gap_constant(P)
        for _ in range(20):
            x = F(rng.randint(-50, 50), rng.randint(1, 30))
            lhs_h = height_rational(P.eval(x)).exact
            rhs_h = height_rational(x).exact
            # h(P(x)) - D h(x) <= log M  <=>  H(P(x)) <= M * H(x)^D (and dually)
            assert lhs_h <= gc.one_step_arg * rhs_h ** P.degree
            assert rhs_h ** P.degree <= gc.one_step_arg * lhs_h


def test_canonical_height_power_map():
    ch = canonical_height(P2, 2, F(1, 10 ** 20))
    assert ch.rad <= F(1, 10 ** 20)
    log2 = ball_log(RealBall.exact(2), 160)
    assert ch.overlaps(log2)


def test_canonical_height_preperiodic_zero():
    ch = canonical_height(PM1, 0, F(1, 10 ** 20))
    assert ch.contains(0)


def test_canonical_height_nested_enclosures():
    loose = canonical_height(P21, 1, F(1, 100))
    tight = canonical_height(P21, 1, F(1, 10 ** 6))
    assert loose.overlaps(tight)
    assert tight.rad < loose.rad


def test_canonical_functional_equation(rng):
    checked = 0
    while checked < 20:
        P = random_monic_map(rng)
        alpha = F(rng.randint(-6, 6), rng.randint(1, 4))
        eps = F(1, 10 ** 4)
        try:
            h_a = canonical_height(P, alpha, eps)
            h_pa = canonical_height(P, P.eval(alpha), eps)
        except ResourceGuardError:
            continue
        lhs = h_pa
        rhs = h_a * P.degree
        assert abs(lhs.mid - rhs.mid) <= lhs.rad + rhs.rad
        checked += 1


def test_canonical_gap_invariant(rng):
    for _ in range(10):
        P = random_monic_map(rng)
        alpha = F(rng.randint(-5, 5), rng.randint(1, 3))
        try:
            stats = canonical_height_stats(P, alpha, F(1, 10 ** 4))
        except ResourceGuardError:
            continue
        h_alpha = ball_log(RealBall.exact(height_rational(alpha).exact), 96) \
            if alpha != 0 else RealBall.exact(0)
        diff = stats.canonical - h_alpha
        assert abs(diff.mid) <= stats.gap_constant.hi + diff.rad


def test_orbit_stats_prefix_tail_bounds():
    # |canonical - h(P^k alpha)/D^k| <= gap * D/((D-1) D^k) at every recorded k
    stats = telescoped_height_stats(P21, 1, F(1, 10 ** 6))
    D = 2
    for k, h_k in enumerate(stats.log_heights(128)):
        budget = stats.gap_constant.hi * D / ((D - 1) * D ** k)
        diff = abs(stats.canonical.mid - h_k.mid / D ** k)
        assert diff <= budget + stats.canonical.rad + h_k.rad


def test_local_heights_match_telescoping_oracle():
    rng = random.Random(20261018)
    eps = F(1, 10 ** 4)
    for _ in range(100):
        P = random_monic_map(rng, max_degree=4)
        alpha = F(rng.randint(-6, 6), rng.randint(1, 4))
        stats = canonical_height_stats(P, alpha, eps)
        oracle = telescoped_height_stats(P, alpha, eps)
        image = canonical_height(P, P.eval(alpha), eps)
        assert stats.canonical.rad <= eps
        assert stats.canonical.overlaps(oracle.canonical), (P, alpha)
        assert image.overlaps(stats.canonical * P.degree), (P, alpha)


def test_local_heights_independent_values():
    eps = F(1, 10 ** 30)
    log7 = ball_log(RealBall.exact(7), 256)
    ch = canonical_height_stats(PM1, F(2, 7), eps)
    # 2/7 falls into the cycle 0 <-> -1 at infinity; all the height is 7-adic
    assert ch.canonical.rad <= eps and ch.canonical.contains_ball(log7)
    assert [(pl.place, pl.escaped) for pl in ch.places] == [("inf", False), ("good", True)]
    assert canonical_height(P2, 2, eps).contains_ball(ball_log(RealBall.exact(2), 256))
    assert canonical_height(PM1, 0, eps).contains(0)


def test_local_height_at_a_prime_dividing_the_degree():
    # 2-adically 1/3 -> 11/18 -> 283/324 has valuations 0, -1, -2: escape at step 2
    P = PolyMap.from_text("X^2+1/2")
    eps = F(1, 10 ** 20)
    stats = canonical_height_stats(P, F(1, 3), eps)
    two = {pl.place: pl for pl in stats.places}["2"]
    assert two.escaped and two.steps == 2
    assert two.value.contains_ball(ball_log(RealBall.exact(2), 256) / 2)
    image = canonical_height(P, P.eval(F(1, 3)), eps)
    assert stats.canonical.rad <= eps and image.overlaps(stats.canonical * 2)
    assert stats.canonical.overlaps(telescoped_height_stats(P, F(1, 3), F(1, 10 ** 4)).canonical)
    # X^2 - X/2 fixes 0 and sends 1/2 to 0: the 2-adic orbit never escapes
    Q = PolyMap.from_text("X^2-1/2*X")
    stats = canonical_height_stats(Q, F(1, 2), eps)
    two = {pl.place: pl for pl in stats.places}["2"]
    assert not two.escaped and two.value.rad <= eps and stats.canonical.contains(0)


def test_canonical_height_tight_eps_is_fast():
    t0 = time.perf_counter()
    ch = canonical_height(P21, F(1, 3), F(1, 10 ** 30))
    assert time.perf_counter() - t0 < 1.0
    assert ch.rad <= F(1, 10 ** 30)
    assert ch.overlaps(telescoped_height_stats(P21, F(1, 3), F(1, 10 ** 5)).canonical)


def test_canonical_height_refuses_an_unfactorable_denominator():
    P = PolyMap(RatPoly([F(1, PROVEN_PRIME_BOUND), 0, 1]))
    with pytest.raises(ResourceGuardError):
        canonical_height(P, 1, F(1, 100))


def test_canonical_height_with_a_perfect_power_denominator(capsys):
    import json

    from arithdyn.cli import main

    t0 = time.time()
    argv = ["canonical-height", "--map", f"X^2+1/{2 ** 100}", "--alpha", "1/3", "--eps", "1/1000"]
    assert main(argv) == 0
    assert time.time() - t0 < 1
    got = json.loads(capsys.readouterr().out)["result"]["canonical"]
    ball = RealBall(F(got["mid"]), F(got["rad"]))
    P = PolyMap(RatPoly([F(1, 2 ** 100), 0, 1]))
    assert ball.overlaps(telescoped_height_stats(P, F(1, 3), F(1, 10)).canonical)


def test_canonical_height_refines_the_archimedean_grid(capsys, monkeypatch):
    # X^3 - 3X maps [-2, 2] onto itself, so the orbit of 1/3 stays bounded:
    # lambda_inf = 0 and h^ = log 3, from the place 3 alone.  At eps 1e-30 the
    # rounding on the 133-bit grid outgrows the share, and the orbit restarts
    # on the 266-bit grid
    import json

    import mpmath

    from arithdyn.cli import main

    widths = set()
    round_to_grid = RealBall.round_to_grid

    def spy(self, w):
        widths.add(w)
        return round_to_grid(self, w)

    monkeypatch.setattr(RealBall, "round_to_grid", spy)
    assert main(["canonical-height", "--map", "X^3-3*X", "--alpha", "1/3", "--eps", "1e-30"]) == 0
    got = json.loads(capsys.readouterr().out)["result"]
    assert widths == {133, 266}
    (inf,) = (pl["enclosure"] for pl in got["places"] if pl["place"] == "inf")
    assert RealBall(F(inf["mid"]), F(inf["rad"])).contains(0)
    with mpmath.workdps(50):
        log3 = F(mpmath.nstr(mpmath.log(3), 50))
    canonical = got["canonical"]
    assert RealBall(F(canonical["mid"]), F(canonical["rad"])).contains(log3)


def test_snap_examples():
    assert snap_degree_multiset(P2, 2, 2).multiset == (1, 1, 2, 2)
    assert snap_degree_multiset(P2, 2, 3).multiset == (1, 1, 2, 2, 4, 4, 4, 4)
    rep = snap_degree_multiset(PM1, 0, 2)
    assert not rep.squarefree  # X^4 - 2X^2 = X^2 (X^2 - 2)
    assert rep.multiset == (1, 1, 2, 2)


def test_snap_orbit_bit_cap_trips_before_factoring():
    t0 = time.time()
    with pytest.raises(ResourceGuardError, match="bit cap"):
        snap_degree_multiset(P21, 3 ** 400_000, 4)  # P^4(alpha) has about 10^7 bits
    assert time.time() - t0 < 10  # the beta chain trips before any piece is factored


def test_snap_cardinality(rng):
    for _ in range(6):
        P = random_monic_map(rng)
        n = rng.choice((1, 2))
        alpha = F(rng.randint(-4, 4), rng.randint(1, 3))
        rep = snap_degree_multiset(P, alpha, n)
        assert len(rep.multiset) == P.degree ** n


# the six jobs of perfbench's tower workload
_TOWER_JOBS = [("X^2+1", 1, 7), ("X^2+X", 1, 7), ("X^2-2", 3, 7), ("X^2", 2, 7),
               ("X^3+X+1", 1, 4), ("X^3-X", 2, 4)]


@pytest.mark.parametrize("m, alpha, n", _TOWER_JOBS)
def test_tower_jobs_certify_every_composed_piece_by_capelli(m, alpha, n, monkeypatch):
    P, factor = PolyMap.from_text(m), zassenhaus.factor_over_Z

    def no_composed_piece(f, *args):
        # each Q_beta (degree D - 1) is factored; a composed piece has degree >= D
        if f.degree >= P.degree:
            raise AssertionError("a composed piece reached factor_over_Z")
        return factor(f, *args)

    monkeypatch.setattr(zassenhaus, "factor_over_Z", no_composed_piece)
    rep = snap_degree_multiset(P, alpha, n)
    certs = rep.certificates
    assert certs[0] == ()  # X - alpha
    composed = [c for c in certs if c]
    # every level k >= 1 has at least one piece
    assert len(composed) >= n - 1
    for c in composed:
        assert all(link[0] == "fp" for link in c), c
    # a piece h(P^k(X)) has k links; the top level is k = n - 1
    assert max(len(c) for c in certs) == n - 1


@pytest.mark.parametrize("m, alpha, n", [job for job in _TOWER_JOBS if job[0].startswith("X^2")])
def test_quadratic_tower_jobs_screen_no_link_as_a_polynomial(m, alpha, n, monkeypatch):
    # D = 2 chains are certified on the preimage tree: no f_j mod p is formed
    def per_link(*args):
        raise AssertionError("a quadratic chain was screened link by link")

    monkeypatch.setattr(capelli, "_small_factor_degrees", per_link)
    monkeypatch.setattr(modp, "distinct_degree", per_link)
    rep = snap_degree_multiset(PolyMap.from_text(m), alpha, n)
    assert all(link[0] == "fp" for c in rep.certificates for link in c)


@pytest.mark.parametrize("m, alpha, n", _TOWER_JOBS + [("X^3+X+1", 1, 6)])
def test_tower_forms_no_polynomial_below_the_top_piece(m, alpha, n, monkeypatch):
    # the only compositions snap makes are P^(k+1) = P(P^k) for k < n - 1 and
    # each piece h(P^k(X)) itself; no h(P^j(X)) with j < k is formed for any
    # D, and neither is P^n(X) nor anything else of degree D^n
    calls = []
    compose = IntPoly.compose  # RatPoly shares it

    def counted(self, other):
        out = compose(self, other)
        calls.append(out.degree)
        return out

    monkeypatch.setattr(IntPoly, "compose", counted)
    monkeypatch.setattr(RatPoly, "compose", counted)
    P = PolyMap.from_text(m)
    rep = snap_degree_multiset(P, alpha, n)
    monkeypatch.undo()
    pieces = len(rep.certificates) - 1  # every piece but X - alpha
    assert len(calls) == n - 1 + pieces, calls
    assert max(calls) < P.degree ** n, calls
    # and the chains are the per-link screen's, link for link
    assert [c for c in rep.certificates if c] == [
        tuple(per_link_chain(h, P.poly, k)) for h, k in tower_chains(P, alpha, n)]


def test_tower_identity_rejects_a_tampered_report():
    # X^2 - 2 at alpha = 3: beta_1 = 7, so X^2 - 9 gives the factors X -/+ 3
    P = PolyMap.from_text("X^2-2")
    rep = snap_degree_multiset(P, 3, 3)
    tower_identity(P, 3, 3, rep)
    (f, m), *rest = rep.factor_report.factors
    for factors in (((f, m + 1), *rest), tuple(rest)):
        bad = rep.factor_report._replace(factors=factors)
        with pytest.raises(AssertionError, match="do not rebuild"):
            tower_identity(P, 3, 3, rep._replace(factor_report=bad))


def test_a_broken_chain_is_factored_whole():
    # X^2 - 5 at alpha = 1: beta_1 = -4, and the level-1 piece is X^2 - 9
    rep = snap_degree_multiset(PolyMap.from_text("X^2-5"), 1, 2)
    assert rep.certificates == ((), (), (("zassenhaus",),))
    assert [list(f.coeffs) for f, _ in rep.factor_report.factors] == [
        [-3, 1], [-1, 1], [1, 1], [3, 1]]


def test_irreducible_count_examples():
    assert irreducible_count(P2, 1, 1) == (2, 2)
    assert irreducible_count(P2, 2, 3)[0] == 4
    assert irreducible_count(P2, 2, 5)[0] == 6


def test_r_equals_n_plus_one_family():
    for n in range(1, 7):
        r, rm = irreducible_count(P2, 2, n)
        assert r == n + 1 and rm == n + 1


def test_low_degree_proportion_examples():
    assert low_degree_proportion(P2, 2, 2, F(2, 5)) == F(1, 2)
    assert low_degree_proportion(P2, 2, 3, F(1, 2)) == F(1, 2)
    assert low_degree_proportion(P2, 2, 2, F(5)) == 1


def test_low_degree_share_matches_the_exact_powers():
    # the bit-length screen against d^q <= (D^n)^p, for every degree d <= D^n
    rep = snap_degree_multiset(P2, 2, 3)
    for degree in (8, 27, 64, 81, 125, 1024):
        every = rep._replace(degree=degree, multiset=tuple(range(1, degree + 1)))
        for p in range(1, 13):
            for q in range(1, 13):
                exact = sum(1 for d in every.multiset if d ** q <= degree ** p)
                assert every.low_degree_share(F(p, q)) == F(exact, degree), (degree, p, q)


def test_proportion_monotone_in_delta():
    deltas = [F(1, 8), F(1, 4), F(1, 2), F(3, 4), F(1), F(2)]
    vals = [low_degree_proportion(P2, 2, 3, d) for d in deltas]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_theorem_shape_regression():
    # max degree 2^(n-1) dominates the degree_lower shape at c = 1
    from arithdyn.countkit.shapes import bound_shape

    for n in range(2, 7):
        max_deg = snap_degree_multiset(P2, 2, n).max_degree
        assert max_deg == 2 ** (n - 1)
        for eps in (F(1, 8), F(1, 16)):
            shape = bound_shape("degree_lower", D=2, n=n, eps=eps)
            assert shape.le(RealBall.exact(F(max_deg))) or F(max_deg) >= shape.hi


def test_factor_count_shape_regression():
    # r_{2,n} stays under the factor_count shape once the constant is
    # calibrated at n = 3 (the shape undershoots the counts for n < 3,
    # so the regression window is 3 <= n <= 6); pure bookkeeping, not a
    # verification of any effective constant
    from arithdyn.countkit.shapes import bound_shape

    eps = F(1, 8)
    r3 = irreducible_count(P2, 2, 3)[0]
    shape3 = bound_shape("factor_count", D=2, n=3, eps=eps)
    c = F(r3) / shape3.lo  # observed ratio at n = 3, rounded outward
    for n in range(3, 7):
        r_n = irreducible_count(P2, 2, n)[0]
        budget = bound_shape("factor_count", c=RealBall.exact(c), D=2, n=n, eps=eps)
        assert F(r_n) <= budget.hi, (n, r_n, float(budget.hi))


def test_bounded_region_examples():
    rep = bounded_height_region_check(P2, 3)
    assert rep.height == 3
    # product = arch radius 1 * delta_2 = 4 (p = 2 divides D)
    assert rep.threshold_product.contains(4)
    assert rep.exceeds is False
    assert rep.witness_place is not None and rep.witness_place.prime is None

    rep0 = bounded_height_region_check(P21, 0)
    assert rep0.height == 1 and rep0.exceeds is False
    assert rep0.witness_place is None

    rep8 = bounded_height_region_check(P21, F(1, 8))
    assert rep8.witness_place is not None and rep8.witness_place.prime == 2
    assert rep8.height == 8


def test_bounded_region_mixed_places():
    # X^2 + 1/3: delta_2 = 4 (2 | D), delta_3 = 3 (denominator), arch = 4/3
    P = PolyMap.from_text("X^2+1/3")
    rep = bounded_height_region_check(P, F(1, 2))
    assert {dv.prime for dv in rep.nontrivial_places} == {2, 3}
    assert rep.threshold_product.contains(F(16))  # 4 * 3 * 4/3
    assert rep.exceeds is False
    big = bounded_height_region_check(P, F(100))
    assert big.exceeds is True
    assert big.witness_place is not None and big.witness_place.prime is None
