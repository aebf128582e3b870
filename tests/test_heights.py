import math
import random
from fractions import Fraction as F

import mpmath
import pytest

from arithdyn.errors import DomainError
from arithdyn.exactnum import IntPoly
from arithdyn.heights import AlgebraicNumber, height_algebraic, height_rational, weil_height_tuple
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
    assert hv.exact == 2 and hv.mult.rad == 0
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


def test_precision_monotonicity():
    a = AlgebraicNumber.create(IntPoly([-2, 0, 1]))
    r64 = height_algebraic(a, prec=64).mult.rad
    r160 = height_algebraic(a, prec=160).mult.rad
    assert r160 <= r64
