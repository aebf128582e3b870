"""Regenerate ``reference.json``, the reference outputs the checks compare with.

Run from the root of a checkout (sympy is needed; 1.14 made the checked-in file):

    PYTHONPATH=src python3 perfbench/make_reference.py

- ``tower``: (degree, multiplicity) of each irreducible factor of
  P^n(X) - P^n(alpha), from sympy ``factor_list``.
- ``boettcher``: the coefficients b_k of phi(z) = z + b_0 + b_1/z + ..., from
  the product formula phi(z)/z = prod_k Q(u_k)^(1/D^(k+1)), where
  u_k = 1/P^k(z) and Q(u) = u^D P(1/u), expanded with sympy ring series.
- ``census_verdicts``: verdict counts of each census job, taken
  from the program after every enclosure was checked against mpmath.  There
  is no independent oracle for a verdict: this part guards against change.
- ``map_coeffs``: integer coefficients (highest first) of maps the mpmath
  oracles evaluate.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import sympy as sp
from sympy.polys.ring_series import rs_exp, rs_log, rs_mul, rs_pow, rs_series_inversion

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checkers import encloses, oracle_for  # noqa: E402
from jobs import WORKLOADS, full_argv, job_key, option  # noqa: E402

X = sp.Symbol("X")


def parse_map(text: str) -> sp.Poly:
    return sp.Poly(sp.sympify(text.replace("^", "**"), locals={"X": X}), X)


def tower_reference(argv) -> list[list[int]]:
    P = parse_map(option(argv, "--map"))
    alpha = sp.Rational(option(argv, "--alpha"))
    Pn = sp.Poly(X, X)
    for _ in range(int(option(argv, "--n"))):
        Pn = P.compose(Pn)
    _, factors = (Pn - Pn.eval(alpha)).factor_list()
    return sorted([g.degree(), m] for g, m in factors)


def boettcher_reference(argv) -> dict[str, str]:
    P = parse_map(option(argv, "--map"))
    N = int(option(argv, "--order"))
    D = P.degree()
    a = [sp.Rational(c) for c in reversed(P.all_coeffs())]  # a_0 .. a_D = 1
    R, w = sp.ring("w", sp.QQ)
    prec = N + 2

    def Q(u):
        return sum((a[i] * rs_pow(u, D - i, w, prec) for i in range(D)), R(1))

    u, log_phi_over_z, k = w, R(0), 0
    while D ** k <= N + 1:  # Q(u_k) = 1 + O(w^(D^k)) contributes below w^(N+2)
        q = Q(u)
        log_phi_over_z += rs_log(q, w, prec) * sp.Rational(1, D ** (k + 1))
        u = rs_mul(rs_pow(u, D, w, prec), rs_series_inversion(q, w, prec), w, prec)
        k += 1
    phi_over_z = rs_exp(log_phi_over_z, w, prec)
    coeffs = {}
    for j in range(N + 1):
        c = Fraction(str(phi_over_z.coeff(w ** (j + 1))))
        coeffs[f"b{j}"] = f"{c.numerator}/{c.denominator}"
    return coeffs


def census_verdicts(argv, reference) -> dict[str, int]:
    from arithdyn.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if main(full_argv(argv)) != 0:
            raise SystemExit(f"{job_key(argv)} failed")
    result = json.loads(buf.getvalue())["result"]
    oracle = oracle_for(argv, reference)
    for rec in result["records"]:
        q = Fraction(rec["q"])
        if not encloses(Fraction(rec["mid"]), Fraction(rec["rad"]), oracle(q)):
            raise SystemExit(f"{job_key(argv)}: enclosure at q={rec['q']} misses mpmath")
    return result["verdicts"]


def main() -> int:
    all_jobs = [argv for jobs in WORKLOADS.values() for argv in jobs]
    reference = {"map_coeffs": {}, "tower": {}, "boettcher": {}, "census_verdicts": {}}
    for argv in all_jobs:
        if argv[0] == "census" and "--map" in argv:
            text = option(argv, "--map")
            reference["map_coeffs"][text] = [int(c) for c in parse_map(text).all_coeffs()]
    for argv in all_jobs:
        print(job_key(argv), file=sys.stderr)
        if argv[0] == "snap":
            reference["tower"][job_key(argv)] = tower_reference(argv)
        elif argv[0] == "boettcher-series":
            reference["boettcher"][job_key(argv)] = boettcher_reference(argv)
        elif argv[0] == "census":
            reference["census_verdicts"][job_key(argv)] = census_verdicts(argv, reference)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
