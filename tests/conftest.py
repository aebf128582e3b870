import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from arithdyn import dynamics
from arithdyn.exactnum import RatPoly
from arithdyn.polymap import DEFAULT_DEGREE_CAP, PolyMap
from oracles import tower_identity


def random_monic_map(rng: random.Random, max_degree: int = 3) -> PolyMap:
    """Monic map with rational coefficients in [-3, 3] (denominators <= 4)."""
    D = rng.choice(range(2, max_degree + 1))
    coeffs = []
    for _ in range(D):
        num = rng.randint(-12, 12)
        den = rng.choice((1, 2, 3, 4))
        c = Fraction(num, den)
        coeffs.append(max(Fraction(-3), min(Fraction(3), c)))
    return PolyMap(RatPoly(coeffs + [Fraction(1)]))


@pytest.fixture
def rng():
    return random.Random(20260809)


def pytest_runtest_logreport(report):
    # the acceptance suite prints one pass/fail line per criterion; PASS
    # lines come from the tests themselves, FAIL lines from this hook
    if report.when == "call" and report.failed and "test_acceptance" in report.nodeid:
        import re

        m = re.search(r"criterion_(\d+)", report.nodeid)
        if m:
            print(f"\nACCEPTANCE {m.group(1)}: FAIL")


# Every snap_degree_multiset report made in process is checked against the
# expanded tower (oracles.tower_identity).  The CLI, irreducible_count,
# low_degree_proportion and padic_degree_bound look the function up at call
# time, and the test modules import it after this conftest has replaced it,
# so all of them go through the recording wrapper.  The check runs after the
# test's own teardown: no timed region pays for the expansion, and the test's
# monkeypatches are undone before the oracle runs.
_snap = dynamics.snap_degree_multiset
_towers: list[tuple] = []  # (P, alpha, n, report, degree_cap) of the running test
_checked = 0


def _recording_snap(P, alpha, n, degree_cap=DEFAULT_DEGREE_CAP, seed=0):
    report = _snap(P, alpha, n, degree_cap, seed)
    _towers.append((P, alpha, n, report, degree_cap))
    return report


def pytest_configure(config):
    dynamics.snap_degree_multiset = _recording_snap


def pytest_unconfigure(config):
    dynamics.snap_degree_multiset = _snap


@pytest.hookimpl(trylast=True)
def pytest_runtest_teardown(item):
    global _checked
    towers = list(_towers)
    _towers.clear()
    for tower in towers:
        tower_identity(*tower)
    _checked += len(towers)


def pytest_terminal_summary(terminalreporter):
    if _checked:
        terminalreporter.write_line(f"tower identity checked on {_checked} snap reports")
