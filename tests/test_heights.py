import math
import random
from fractions import Fraction as F

import mpmath
import pytest

from arithdyn.errors import DomainError
from arithdyn.exactnum import ComplexBall, IntPoly, ball_e
from arithdyn.heights import (
    AlgebraicNumber,
    alpha_radius_cap,
    height_algebraic,
    height_rational,
    modulus_lower_bound,
    weil_height_tuple,
)
from arithdyn.ntheory import prime_divisors, valuation


def test_height_rational_examples():
    assert height_rational(F(1, 2)).exact == 2
    assert height_rational(F(0)).exact == 1
    assert height_rational(F(7, 3)).exact == 7


def test_height_power_multiplicativity():
    q = F(3, 5)
    h1 = height_rational(q).exact
    for k in range(1, 6):
        assert height_rational(q ** k).exact == h1 ** k


def test_height_algebraic_degree_one_matches_rational():
    a = AlgebraicNumber.create(IntPoly([-2, 1]))
    hv = height_algebraic(a)
    assert hv.exact == 2 and hv.mult.is_exact()
    b = AlgebraicNumber.create(IntPoly([-7, 3]))
    assert height_algebraic(b).exact == height_rational(F(7, 3)).exact


def test_height_sqrt2():
    # direct-formula oracle: both roots have modulus sqrt(2), so
    # H = (1 * sqrt(2) * sqrt(2))^(1/2) = sqrt(2); the square must contain 2
    a = AlgebraicNumber.create(IntPoly([-2, 0, 1]))
    hv = height_algebraic(a, prec=96)
    assert (hv.mult ** 2).contains(2)
    with mpmath.workprec(64):
        assert abs(float(hv.mult.mid) - float(mpmath.sqrt(2))) < 1e-15
    assert hv.mult.rad < F(1, 10 ** 20)
    assert hv.exact is None


def test_height_two_i():
    # roots +-2i: H = (1 * 2 * 2)^(1/2) = 2
    a = AlgebraicNumber.create(IntPoly([4, 0, 1]))
    hv = height_algebraic(a, prec=80)
    assert hv.mult.contains(2)
    assert hv.mult.rad < F(1, 10 ** 15)


def test_reducible_min_poly_rejected():
    with pytest.raises(DomainError):
        AlgebraicNumber.create(IntPoly([-1, 0, 1]))  # X^2 - 1


def test_weil_examples():
    assert weil_height_tuple([F(2), F(3)]).exact == 3
    assert weil_height_tuple([F(1, 2)]).exact == 2
    hv = weil_height_tuple([F(1)])
    assert hv.exact == 1 and hv.log.mid == 0 and hv.log.rad == 0
    # mixed: (1/2, 3) -> arch max 3, 2-adic max 2 -> H = 6
    assert weil_height_tuple([F(1, 2), F(3)]).exact == 6


def test_weil_closed_form_matches_the_product_over_places():
    rng = random.Random(6)
    for _ in range(300):
        ts = [F(rng.randint(-40, 40), rng.randint(1, 60)) for _ in range(rng.randint(1, 4))]
        total = max([F(1)] + [abs(t) for t in ts])
        for p in prime_divisors(math.prod(t.denominator for t in ts)):
            total *= F(p) ** max(0, max(-valuation(t, p) for t in ts if t != 0))
        assert weil_height_tuple(ts).exact == total


def test_weil_single_matches_rational_height():
    for q in (F(2), F(-5, 3), F(7, 11), F(1), F(0)):
        assert weil_height_tuple([q]).exact == height_rational(q).exact
    # zeros in a tuple contribute nothing at any place
    assert weil_height_tuple([F(0), F(1, 2)]).exact == 2


def test_modulus_lower_bound_rational_tight():
    a = AlgebraicNumber.create(IntPoly([-1, 2]))  # 1/2
    mb = modulus_lower_bound(a, 1)
    assert mb.exact == F(1, 2)  # equality case


def test_modulus_lower_bound_sqrt2():
    # H(sqrt 2) = sqrt 2, so the certified lower bound is H^(-2) = 1/2 <= sqrt 2
    ball = ComplexBall(F(141421356237, 10 ** 11), 0, F(1, 10 ** 9))
    a = AlgebraicNumber.create(IntPoly([-2, 0, 1]), root_selector=ball)
    mb = modulus_lower_bound(a, 2, prec=96)
    assert mb.lower.contains(F(1, 2))
    assert mb.lower.rad < F(1, 10 ** 15)
    assert mb.selector_consistent is True


def test_modulus_lower_bound_overshoot_degree():
    a = AlgebraicNumber.create(IntPoly([-1, 3]))  # 1/3
    mb = modulus_lower_bound(a, 2)
    assert mb.exact == F(1, 9)
    assert mb.exact <= F(1, 3)


def test_modulus_lower_bound_rejects_zero():
    zero = AlgebraicNumber.create(IntPoly([0, 1]))
    with pytest.raises(DomainError):
        modulus_lower_bound(zero, 1)


def test_alpha_radius_cap_examples():
    e = ball_e(128)
    cap = alpha_radius_cap(e ** 3, e, 2, e)
    assert cap.contains(F(11, 12))
    assert cap.rad < F(1, 10 ** 20)
    cap2 = alpha_radius_cap(e ** 3, e, 2, e * e)
    assert cap2.contains(F(23, 24))
    with pytest.raises(DomainError):
        alpha_radius_cap(e, e, 2, e)  # a >= b^e fails


def test_alpha_radius_cap_domain_gates():
    e = ball_e(96)
    with pytest.raises(DomainError):
        alpha_radius_cap(F(2), e, 2, e)  # a < e
    with pytest.raises(DomainError):
        alpha_radius_cap(e ** 3, e, 1, e)  # d < 2
    with pytest.raises(DomainError):
        alpha_radius_cap(e ** 3, e, 2, F(1))  # H < e


def test_precision_monotonicity():
    a = AlgebraicNumber.create(IntPoly([-2, 0, 1]))
    r64 = height_algebraic(a, prec=64).mult.rad
    r160 = height_algebraic(a, prec=160).mult.rad
    assert r160 <= r64
