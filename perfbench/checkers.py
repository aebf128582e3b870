"""Output checks: every job's output against an oracle, a reference or an invariant.

The checks run after the timed passes.  ``check_workload`` returns one entry
per job: ``None`` when the output passes, else a one-line reason.  Jobs that
produced no output (they raised or exited non-zero) are passed in as ``None``
and are not checked here; the caller counts them as failed.

Oracles and references:
- ``snap``: irreducible-factor degrees and multiplicities equal the
  reference made with sympy ``factor_list`` (``make_reference.py``).
- ``census``: verdict counts equal the reference, and every enclosure
  contains the value computed by mpmath at 200 digits: lambda(2i/(1-q)) from
  ``jtheta``, the discriminant at 2i/(1-q) from ``qp``, and f*(i(1+q)/(1-q))
  as 1/psi(w) with psi the inverse, found by ``findroot``, of the Boettcher
  map phi = lim (P^n)^(1/D^n).
- ``canonical-height``: the radius is at most eps, and enclosures for the
  same map and alpha overlap pairwise.
- ``boettcher-series``: the exact coefficients equal the reference, which
  sympy computes from the product formula for phi, not from the functional
  equation the program solves.
- ``fstar`` at the default tau = i/24: f*(tau) = 1/psi(phi(alpha)) = 1/alpha,
  so the enclosure must contain 1/alpha.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import combinations

import mpmath

from jobs import job_key, option

_DPS = 200
# decimal digits the CLI renders; the imaginary part's rounding is not folded
# into the rendered radius, so a complex enclosure gets this much slack
_RENDER_ULP = Fraction(1, 10 ** 30)


def _exact(x: mpmath.mpf) -> Fraction:
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


def _mp(q: Fraction) -> mpmath.mpf:
    return mpmath.mpf(q.numerator) / q.denominator


def encloses(mid: Fraction, rad: Fraction, value: mpmath.mpf) -> bool:
    """True if [mid - rad, mid + rad] holds a value known to ~``_DPS`` digits."""
    v = _exact(value)
    slack = abs(v) / 10 ** (_DPS - 20) + Fraction(1, 10 ** (_DPS - 20))
    return abs(v - mid) <= rad + slack


def lambda_at(q: Fraction) -> mpmath.mpf:
    """lambda(2i/(1-q)) = (theta2/theta3)^4 at the nome exp(-2 pi/(1-q))."""
    with mpmath.workdps(_DPS):
        nome = mpmath.exp(-mpmath.pi * 2 / _mp(1 - q))
        return +(mpmath.jtheta(2, 0, nome) / mpmath.jtheta(3, 0, nome)) ** 4


def delta_at(q: Fraction) -> mpmath.mpf:
    """Discriminant (2 pi)^12 x prod (1-x^n)^24 at x = exp(2 pi i tau), tau = 2i/(1-q)."""
    with mpmath.workdps(_DPS):
        x = mpmath.exp(-4 * mpmath.pi / _mp(1 - q))
        return +((2 * mpmath.pi) ** 12 * x * mpmath.qp(x) ** 24)


def _boettcher_phi(coeffs: list[int], z: mpmath.mpf) -> mpmath.mpf:
    """phi(z) = z prod_k (P(z_k)/z_k^D)^(1/D^(k+1)), z_(k+1) = P(z_k), P monic."""
    D = len(coeffs) - 1
    out, zk, k = z, z, 0
    while True:
        pz = mpmath.polyval(coeffs, zk)
        ratio = pz / zk ** D
        if abs(ratio - 1) < mpmath.mpf(10) ** (-_DPS - 10):
            return out
        out *= ratio ** (mpmath.mpf(1) / D ** (k + 1))
        zk, k = pz, k + 1


def fstar_census_at(coeffs: list[int], alpha: Fraction, q: Fraction) -> mpmath.mpf:
    """f*(i t) = 1/psi(phi(alpha) exp(2 pi (t - 1/24))) with t = (1+q)/(1-q)."""
    with mpmath.workdps(_DPS):
        t = _mp((1 + q) / (1 - q))
        w = _boettcher_phi(coeffs, _mp(alpha)) * mpmath.exp(2 * mpmath.pi * (t - mpmath.mpf(1) / 24))
        z = mpmath.findroot(lambda z: _boettcher_phi(coeffs, z) - w, w)
        return +(1 / z)


def _check_snap(argv, result, reference):
    got = sorted([len(f["coeffs"]) - 1, f["mult"]] for f in result["factors"]["factors"])
    want = reference["tower"][job_key(argv)]
    if got != want:
        return f"factor (degree, multiplicity) multiset {got} != sympy reference {want}"
    roots = sorted(d for d, m in got for _ in range(d * m))
    if result["multiset"] != roots:
        return "root-degree multiset disagrees with the printed factors"
    return None


def oracle_for(argv, reference):
    function = option(argv, "--function")
    if function == "lambda":
        return lambda_at
    if function == "delta":
        return delta_at
    coeffs = reference["map_coeffs"][option(argv, "--map")]
    alpha = Fraction(option(argv, "--alpha"))
    return lambda q: fstar_census_at(coeffs, alpha, q)


def _check_census(argv, result, reference):
    want = reference["census_verdicts"][job_key(argv)]
    if result["verdicts"] != want:
        return f"verdict counts {result['verdicts']} != reference {want}"
    oracle = oracle_for(argv, reference)
    for rec in result["records"]:
        q = Fraction(rec["q"])
        if not encloses(Fraction(rec["mid"]), Fraction(rec["rad"]), oracle(q)):
            return f"enclosure at q={rec['q']} misses the mpmath value"
    return None


def _check_canonical_height(argv, result, reference):
    eps = Fraction(option(argv, "--eps"))
    rad = Fraction(result["canonical"]["rad"])
    if rad > eps:
        return f"radius {rad} exceeds eps {eps}"
    return None


def _check_boettcher_series(argv, result, reference):
    want = reference["boettcher"][job_key(argv)]
    if result["coefficients"] != want:
        bad = sorted(k for k in want if result["coefficients"].get(k) != want[k])
        return f"coefficients {bad} differ from the reference"
    return None


_COMPLEX_MID = re.compile(r"^(-?\d+\.\d+)([+-]\d+\.\d+)i$")


def _check_fstar(argv, result, reference):
    # valid for the default tau = i/24 only, which every fstar job uses
    m = _COMPLEX_MID.match(result["value"]["mid"])
    if m is None:
        return f"cannot parse complex midpoint {result['value']['mid']!r}"
    re_part, im_part = Fraction(m.group(1)), Fraction(m.group(2))
    rad = Fraction(result["value"]["rad"]) + _RENDER_ULP
    target = 1 / Fraction(option(argv, "--alpha"))
    if (re_part - target) ** 2 + im_part ** 2 > rad * rad:
        return f"enclosure misses 1/alpha = {target}"
    return None


_CHECKS = {
    "snap": _check_snap,
    "census": _check_census,
    "canonical-height": _check_canonical_height,
    "boettcher-series": _check_boettcher_series,
    "fstar": _check_fstar,
}


def _overlap_failures(job_list, results) -> dict[int, str]:
    """Canonical-height enclosures of one (map, alpha) must overlap pairwise."""
    groups: dict[tuple[str, str], list[int]] = {}
    for i, argv in enumerate(job_list):
        if argv[0] == "canonical-height" and results[i] is not None:
            groups.setdefault((option(argv, "--map"), option(argv, "--alpha")), []).append(i)
    bad = {}
    for members in groups.values():
        for i, j in combinations(members, 2):
            a, b = results[i]["canonical"], results[j]["canonical"]
            ma, ra, mb, rb = (Fraction(a["mid"]), Fraction(a["rad"]),
                              Fraction(b["mid"]), Fraction(b["rad"]))
            if abs(ma - mb) > ra + rb:
                bad[i] = bad[j] = "canonical-height enclosures of one map and alpha are disjoint"
    return bad


def check_workload(job_list, outputs, reference) -> list[str | None]:
    """Check each job's output text (``None`` for jobs that produced none)."""
    results = [None if text is None else json.loads(text)["result"] for text in outputs]
    verdicts = []
    for argv, result in zip(job_list, results):
        verdicts.append(None if result is None else _CHECKS[argv[0]](argv, result, reference))
    for i, reason in _overlap_failures(job_list, results).items():
        verdicts[i] = verdicts[i] or reason
    return verdicts
