"""Command-line front end: one verb per operation, batch sweeps, config
files, and machine-readable (JSON/CSV) output.

Every run embeds its full job specification (verb, parameters, precision,
seed) and the artifact version in the output, and identical job specs
produce byte-identical outputs.  Numeric cells are exact rational strings
"p/q" or certified enclosures rendered as mid/rad decimal pairs; bare
floats never appear.  This module alone renders: the library returns
numbers, and the helpers below, ``_fr`` to ``_factors_json``, give them
their printed form.

Exit codes: 0 success, 1 unknown verb or malformed parameters, 2 domain
errors, 3 resource-guard trips.  A rational or polynomial input, or a
result, with an integer of more than 100,000 decimal digits is a
resource-guard trip.

Options are parsed straight from the verb table below, the one place an
option is declared.  Each is written in full as ``--name value`` or
``--name=value``; the value is the next token whatever it looks like, so
``--alpha -1/2`` and ``--poly "-X^2+4"`` read signed values.  A flag takes no
value.  ``--help`` or ``-h`` (alone or after a verb) and ``--version`` print
a listing built from the table.

Config files are key=value lines ('#' comments allowed); keys are the long
option names with dashes replaced by underscores, and a key the verb does
not declare is a usage error.  Values merge in one order: built-in
defaults, then config lines, then the command line, a later value winning;
a repeatable option collects the values of both.
"""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import __version__
from .errors import DomainError, ResourceGuardError
from .exactnum import ComplexBall, RealBall, ball_decimal, ball_e, parse_poly
from .polymap import DEFAULT_DEGREE_CAP, PolyMap

_DIGITS = 30  # decimal digits in rendered enclosures
# the most decimal digits of an integer read or printed: ``main`` raises
# Python's int<->str limit (4300) to this and reports a conversion past it as
# a resource-guard trip.  Both conversions are quadratic in the digits; at
# this size each takes about 0.2 s (CPython 3.11).
_MAX_INT_DIGITS = 100_000


class _CliError(Exception):
    pass


class _Listing(Exception):
    """``--help`` or ``--version``: the text to print, with exit code 0."""


def _shown(text) -> str:
    """A value as a message echoes it: its repr, cut to the first 40
    characters (and its length given) when longer."""
    text = str(text)
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


def _too_many_digits(exc: Exception) -> bool:
    """Whether exc is Python's int<->str limit, set to ``_MAX_INT_DIGITS``."""
    return isinstance(exc, ValueError) and "integer string conversion" in str(exc)


def _rational(text, what: str) -> Fraction:
    """Exact rational from a command-line value ("3/4", "2.5", "-7"); a
    malformed one is a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        if _too_many_digits(exc):
            raise
        raise _CliError(f"{what}: cannot parse rational {_shown(text)}") from exc


# the exact ball e^k grows with |k|; e^1000 already takes most of a second
_MAX_E_POWER = 1000


def parse_number(text, what: str = "number"):
    """Exact rational ("3/4", "2.5", "-7") or e-power ("e", "e^3") values."""
    text = text.strip()
    if text == "e" or text.startswith("e^"):
        k = _rational(text[2:], f"{what}: exponent of e") if text.startswith("e^") else Fraction(1)
        if k.denominator != 1:
            raise _CliError(f"{what}: only integer powers of e are supported: {_shown(text)}")
        if abs(k) > _MAX_E_POWER:
            raise ResourceGuardError(f"{what}: |exponent of e| above {_MAX_E_POWER}: {_shown(text)}")
        out = ball_e(192) ** abs(k.numerator)
        return out.inverse() if k < 0 else out
    return _rational(text, what)


# ---------------------------------------------------------------------------
# the verb table: every verb and parameter is declared once, below


class Param(NamedTuple):
    """One ``--name`` option.  ``kind`` is how its value is parsed: "int",
    "rational", "number" (``parse_number``), "text", "flag" or "list"
    (repeatable text).  A ``positive`` int below 1 is a domain error."""

    name: str
    kind: str = "text"
    default: object = None
    required: bool = False
    dest: str | None = None
    choices: tuple[str, ...] | None = None
    positive: bool = False

    @property
    def key(self) -> str:
        """Namespace attribute, jobspec key and config key."""
        return self.dest or self.name.replace("-", "_")

    @property
    def usage(self) -> str:
        """Its ``--help`` line: the name, the kind (or choices), and "required" or the default."""
        default = "" if self.default in (None, [], "") else f" (default {self.default})"
        kind = "|".join(self.choices or [self.kind])
        return f"  --{self.name:<16} {kind}" + (" (required)" if self.required else default)


class Verb(NamedTuple):
    name: str
    help: str
    params: tuple[Param, ...]
    run: Callable  # typed namespace -> (result_for_json, rows_for_csv)


VERBS: dict[str, Verb] = {}

COMMON = (
    Param("output"),
    Param("format", default="json", choices=("json", "csv")),
    Param("precision", "int", 128, positive=True),
    Param("seed", "int", 0),
    Param("jobs", "int", 1),
    Param("degree-cap", "int", DEFAULT_DEGREE_CAP),
    Param("config"),
)


_req = partial(Param, required=True)
_MAP, _ALPHA, _N = _req("map"), _req("alpha", "rational"), _req("n", "int")


def _verb(name: str, help: str, *params: Param):
    def register(run):
        VERBS[name] = Verb(name, help, params, run)
        return run
    return register


def _value(p: Param, raw):
    """The typed value of a parameter, parsed once from its text (an int or
    flag the option parser already typed passes through unchanged)."""
    if raw is None or p.kind == "list":
        return raw
    if p.kind == "int":
        try:
            value = int(raw)
        except ValueError as exc:
            raise _CliError(f"--{p.name}: cannot parse integer {_shown(raw)}") from exc
        if p.positive and value < 1:
            raise DomainError(f"--{p.name} must be positive, got {value}")
        return value
    if p.kind == "rational":
        return _rational(raw, f"--{p.name}")
    if p.kind == "number":
        return parse_number(raw, f"--{p.name}")
    if p.kind == "flag":
        return raw if isinstance(raw, bool) else str(raw).lower() in ("1", "true", "yes")
    if p.choices and raw not in p.choices:
        raise _CliError(f"--{p.name}: invalid choice {_shown(raw)} (one of {', '.join(p.choices)})")
    return str(raw)


def _typed(values: dict, params) -> SimpleNamespace:
    return SimpleNamespace(**(values | {p.key: _value(p, values.get(p.key)) for p in params}))


def _check_required(verb: Verb, values: dict) -> None:
    for p in verb.params:
        if p.required and values.get(p.key) is None:
            raise _CliError(f"{verb.name} requires --{p.name}")


def _fr(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _q(x) -> str:
    """``_fr`` without a "/1": "4", "3/2"; the form of rationals inside text fields."""
    return _fr(x).removesuffix("/1")


def _threshold(dv) -> str:
    """An escape threshold delta_v: "arch:R", "p=2:4" or "p=3:(243)^(1/2)"."""
    where = "arch" if dv.prime is None else f"p={dv.prime}"
    if dv.power_exponent == 1:
        return f"{where}:{_q(dv.power)}"
    return f"{where}:({_q(dv.power)})^(1/{dv.power_exponent})"


def _place(rep) -> str:
    """A place where |alpha|_v exceeds its threshold."""
    where = "arch" if rep.prime is None else f"p={rep.prime}"
    return f"{where} |alpha|_v={_q(rep.abs_value)} > {_threshold(rep.delta)}"


def _bivar_text(poly) -> str:
    """An integer polynomial in X and Y as "c*X^i*Y^j" terms, in the order of
    ``poly.terms``."""
    parts = []
    for (i, j), c in poly.terms:
        mono = (("X" if i == 1 else f"X^{i}" if i else "")
                + ("Y" if j == 1 else f"Y^{j}" if j else ""))
        parts.append(f"{c}*{mono}" if mono else f"{c}")
    return " + ".join(parts).replace("+ -", "- ") or "0"


def _coeffs(poly) -> list[str]:
    return [_fr(c) for c in poly.coeffs]


def _mid_rad(b: RealBall) -> dict:
    mid, rad = ball_decimal(b.mid, b.rad, _DIGITS)
    return {"mid": mid, "rad": rad}


def _ball_json(b, prec: int) -> dict:
    if isinstance(b, RealBall):
        return _mid_rad(b) | {"precision": prec}
    mid_re, rad = ball_decimal(b.re, b.rad, _DIGITS)
    mid_im, _ = ball_decimal(b.im, Fraction(0), _DIGITS)
    return {"mid": f"{mid_re}{'+' if not mid_im.startswith('-') else ''}{mid_im}i",
            "rad": rad, "precision": prec}


def _ball_cell(b, prec: int) -> str:
    return "{mid}+/-{rad}".format(**_ball_json(b, prec))


def _height_json(hv) -> dict:
    out = {"height_mult": _mid_rad(hv.mult), "height_log": _mid_rad(hv.log)}
    return out if hv.exact is None else out | {"exact": _fr(hv.exact)}


def _factors_json(rep) -> dict:
    return {"content": rep.content, "unit": rep.unit,
            "factors": [{"coeffs": _coeffs(f), "mult": m} for f, m in rep.factors]}


# ---------------------------------------------------------------------------
# verb handlers: each takes the typed namespace and returns
# (result_for_json, rows_for_csv)


@_verb("height", "multiplicative/log height of a rational or algebraic number",
       Param("rational", "rational"), Param("min-poly"))
def _run_height(a):
    from .heights import AlgebraicNumber, height_algebraic, height_rational

    if a.rational is not None:
        hv = height_rational(a.rational, a.precision)
        source = _fr(a.rational)
    elif a.min_poly is not None:
        _, prim = parse_poly(a.min_poly).to_int_primitive()
        hv = height_algebraic(AlgebraicNumber.create(prim), a.precision)
        source = a.min_poly
    else:
        raise _CliError("height needs --rational or --min-poly")
    res = _height_json(hv)
    return res, [res | {"input": source}]


@_verb("weil-height", "exact Weil height of a rational tuple", _req("tuple"))
def _run_weil_height(a):
    from .heights import weil_height_tuple

    ts = [_rational(t, "--tuple") for t in a.tuple.split(",") if t.strip()]
    res = _height_json(weil_height_tuple(ts, a.precision))
    return res, [res]


@_verb("iterate", "exact expanded n-th iterate", _MAP, _N)
def _run_iterate(a):
    out = PolyMap.from_text(a.map).iterate_poly(a.n, a.degree_cap)
    res = {"degree": out.degree, "coeffs": _coeffs(out)}
    return res, [{"degree": out.degree, "coeffs": " ".join(res["coeffs"])}]


@_verb("canonical-height", "canonical height enclosure with certified tail",
       _MAP, _ALPHA, Param("eps", "rational", "1/1000000"))
def _run_canonical_height(a):
    from .dynamics import canonical_height_stats

    stats = canonical_height_stats(PolyMap.from_text(a.map), a.alpha, a.eps, a.precision)
    row = {"alpha": _fr(stats.alpha), "n_used": stats.n,
           "canonical": _ball_cell(stats.canonical, a.precision)}
    res = row | {"canonical": _ball_json(stats.canonical, a.precision),
                 "gap_constant": _ball_json(stats.gap_constant, a.precision),
                 "places": [{"place": pl.place, "steps": pl.steps, "escaped": pl.escaped,
                             "enclosure": _ball_json(pl.value, a.precision)}
                            for pl in stats.places]}
    return res, [row]


@_verb("snap", "root-degree multiset of the n-th iterate difference",
       _MAP, _ALPHA, _N, Param("delta", "rational", "1/2"), Param("eps-shape", "rational", "1/8"))
def _run_snap(a):
    from .countkit.shapes import bound_shape
    from .dynamics import snap_degree_multiset

    P = PolyMap.from_text(a.map)
    rep = snap_degree_multiset(P, a.alpha, a.n, a.degree_cap, a.seed)
    shape = bound_shape("degree_lower", D=P.degree, n=a.n, eps=a.eps_shape, prec=a.precision)
    row = {
        "alpha": _fr(a.alpha),
        "n": a.n,
        "D": P.degree,
        "r": rep.distinct_factors,
        "r_with_multiplicity": rep.with_multiplicity,
        "max_degree": rep.max_degree,
        "proportion": _fr(rep.low_degree_share(a.delta)),
        "bound_shape_value": _ball_cell(shape, a.precision),
        "squarefree": rep.squarefree,
    }
    res = {"multiset": list(rep.multiset), "squarefree": rep.squarefree,
           "value": _fr(rep.value), "factors": _factors_json(rep.factor_report)}
    return res | {k: row[k] for k in ("alpha", "n", "D", "r", "max_degree")}, [row]


@_verb("irreducible-count", "irreducible-factor counts of the iterate difference",
       _MAP, _ALPHA, _N)
def _run_irreducible_count(a):
    from .dynamics import irreducible_count

    r, rm = irreducible_count(PolyMap.from_text(a.map), a.alpha, a.n, a.degree_cap, a.seed)
    res = {"r": r, "with_multiplicity": rm}
    return res, [res]


@_verb("proportion", "share of roots of degree <= D^(delta n)",
       _MAP, _ALPHA, _N, _req("delta", "rational"))
def _run_proportion(a):
    from .dynamics import low_degree_proportion

    prop = low_degree_proportion(PolyMap.from_text(a.map), a.alpha, a.n, a.delta,
                                 a.degree_cap, a.seed)
    res = {"proportion": _fr(prop), "delta": _fr(a.delta)}
    return res, [res]


@_verb("factor", "complete factorization over Z", _req("poly"))
def _run_factor(a):
    from .factorint.zassenhaus import factor_over_Q

    scale, rep = factor_over_Q(parse_poly(a.poly), a.seed)
    rj = _factors_json(rep)
    return {"scale": _fr(scale)} | rj, [
        {"degree": len(f["coeffs"]) - 1, "mult": f["mult"], "coeffs": " ".join(f["coeffs"])}
        for f in rj["factors"]]


@_verb("boettcher-series", "conjugacy-at-infinity series coefficients (exact)",
       _MAP, Param("order", "int", 10))
def _run_boettcher_series(a):
    from .boettcher import boettcher_series

    B = boettcher_series(PolyMap.from_text(a.map), a.order)
    coeffs = {f"b{k}": _fr(B.b(k)) for k in range(a.order + 1)}
    return {"order": a.order, "coefficients": coeffs}, [
        {"k": k, "b_k": _fr(B.b(k))} for k in range(a.order + 1)
    ]


@_verb("delta-v", "nonarchimedean escape threshold at a prime", _MAP, _req("prime", "int"))
def _run_delta_v(a):
    from .boettcher import delta_v

    P = PolyMap.from_text(a.map)
    dv = delta_v(P, a.prime)
    p_divides_D = P.degree % a.prime == 0
    res = {"prime": a.prime, "exact": _fr(dv.exact) if dv.exact is not None else None,
           "power": _fr(dv.power) if p_divides_D else None,
           "power_exponent": dv.power_exponent if p_divides_D else None,
           "value": _ball_cell(dv.value_ball(a.precision), a.precision)}
    return res, [res]


@_verb("good-place", "first place with |alpha|_v above the threshold", _MAP, _ALPHA)
def _run_good_place(a):
    from .boettcher import good_place

    rep = good_place(PolyMap.from_text(a.map), a.alpha)
    if rep is None:
        res = {"found": False}
    else:
        res = {"found": True, "place": "arch" if rep.prime is None else rep.prime,
               "abs_value": _fr(rep.abs_value), "threshold": _threshold(rep.delta),
               "margin": _ball_cell(rep.margin, a.precision)}
    return res, [res]


@_verb("escape-radius", "archimedean escape radius 1 + sum|a_i|", _MAP)
def _run_escape_radius(a):
    R = PolyMap.from_text(a.map).escape_radius
    res = {"radius": _fr(R), "safe": _fr(2 * R)}
    return res, [res]


@_verb("fstar", "escape-parametrized root function, certified",
       _MAP, _ALPHA, Param("tau-re", "rational", "0"), Param("tau-im", "rational", "1/24"),
       Param("order", "int", 16))
def _run_fstar(a):
    from .boettcher import fstar_eval

    # psi_tail prints in full: a tail denominator 2^e with e above this has more
    # than _MAX_INT_DIGITS digits (log2 10 < 10/3), so it is refused up front
    out = fstar_eval(PolyMap.from_text(a.map), a.alpha, ComplexBall(a.tau_re, a.tau_im),
                     N=a.order, prec=a.precision, tail_bits_cap=_MAX_INT_DIGITS * 10 // 3)
    res = {"value": _ball_json(out.value, a.precision), "rho": _fr(out.rho),
           "distortion": _fr(out.distortion), "phi_tail": _fr(out.phi_tail),
           "psi_tail": _fr(out.psi_tail)}
    return res, [{"value": _ball_cell(out.value, a.precision)}]


@_verb("order", "multiplicative order of a modulo n", _req("a", "int"), _req("n", "int"))
def _run_order(a):
    from .galois import mult_order

    res = {"order": mult_order(a.a, a.n)}
    return res, [res | {"a": a.a, "n": a.n}]


@_verb("lifting-exponent", "(e, m) data governing orders modulo prime powers",
       _req("a", "int"), _req("q", "int"))
def _run_lifting_exponent(a):
    from .galois import lifting_exponent

    le = lifting_exponent(a.a, a.q)
    res = {"a": le.a, "q": le.q, "e": le.e, "m": le.m}
    return res, [res]


@_verb("cyclotomic-degree", "exact degree of the b-th cyclotomic extension of Q_p",
       _req("p", "int"), _req("b", "int"))
def _run_cyclotomic_degree(a):
    from .galois import cyclotomic_degree_qp

    res = {"degree": cyclotomic_degree_qp(a.p, a.b)}
    return res, [res | {"p": a.p, "b": a.b}]


@_verb("galcor", "cyclotomic degree lower bound b * D^-m",
       _req("p", "int"), _req("b", "int"), _req("D", "int"))
def _run_galcor(a):
    from .galois import galcor_lower_bound

    g = galcor_lower_bound(a.p, a.b, a.D, a.precision)
    res = {"degree": g.degree, "m": g.m, "bound": _fr(g.bound),
           "m_cap": _ball_cell(g.m_cap, a.precision)}
    return res, [res]


@_verb("padic-bound", "degree lower bound for iterate roots at a good prime",
       _MAP, _ALPHA, _N)
def _run_padic_bound(a):
    from .galois import padic_degree_bound

    rep = padic_degree_bound(PolyMap.from_text(a.map), a.alpha, a.n, a.precision,
                             a.degree_cap, a.seed)
    res = {"place": _place(rep.place), "bound": rep.bound, "cap_form": _fr(rep.cap_form),
           "m_uniform": rep.m_uniform, "m_height_cap": _ball_cell(rep.m_height_cap, a.precision),
           "count_coefficient": rep.count_coefficient, "snap_max_degree": rep.snap_max_degree}
    return res, [res]


@_verb("bounded-region", "height test against the product of escape thresholds",
       _MAP, _ALPHA)
def _run_bounded_region(a):
    from .dynamics import bounded_height_region_check

    rep = bounded_height_region_check(PolyMap.from_text(a.map), a.alpha, a.precision)
    row = {"height": _fr(rep.height),
           "threshold_product": _ball_cell(rep.threshold_product, a.precision),
           "exceeds": rep.exceeds,
           "witness": _place(rep.witness_place) if rep.witness_place else None}
    return row | {"places": [_threshold(dv) for dv in rep.nontrivial_places]}, [row]


@_verb("cover", "grid cover of a disk by smaller disks",
       _req("R", "rational"), _req("r", "rational"))
def _run_cover(a):
    from .countkit.cover import cover_count_bound_holds, disk_cover

    centers = disk_cover(a.R, a.r)
    res = {"count": len(centers),
           "bound_holds": cover_count_bound_holds(len(centers), a.R, a.r),
           "centers": [[_fr(x), _fr(y)] for x, y in centers]}
    return res, [{"cx": _fr(x), "cy": _fr(y)} for x, y in centers]


@_verb("jensen", "zero-count bound on nested disks", _req("M", "rational"),
       _req("g0", "rational"), _req("r", "rational"), _req("R", "rational"))
def _run_jensen(a):
    from .countkit.jensen import jensen_zero_bound

    res = {"zero_bound": jensen_zero_bound(a.M, a.g0, a.r, a.R, a.precision)}
    return res, [res]


@_verb("masser-t", "minimal interpolation degree satisfying the threshold inequality",
       _req("AZ", "number"), Param("M", "number", "1"), Param("H", "number", "1"),
       _req("d", "int"))
def _run_masser_t(a):
    from .countkit.masser import masser_T_threshold

    T = masser_T_threshold(a.AZ, a.M, a.H, a.d, a.precision)
    mid, rad = ball_decimal(T, Fraction(0), 12)
    res = {"T": _fr(T), "T_decimal": {"mid": mid, "rad": rad}}
    return res, [{"T": _fr(T), "T_decimal": f"{mid}+/-{rad}"}]


@_verb("vanish", "integer polynomial vanishing at given rational points",
       Param("points", default=""), _req("t-max", "int"))
def _run_vanish(a):
    from .countkit.masser import vanishing_polynomial

    points = []
    if a.points.strip():
        for pair in a.points.split(";"):
            xy = pair.split(",")
            if len(xy) != 2:
                raise _CliError(f"--points: need x,y pairs separated by ';', got {_shown(pair)}")
            points.append((_rational(xy[0], "--points"), _rational(xy[1], "--points")))
    poly = vanishing_polynomial(points, a.t_max)
    terms = [{"i": i, "j": j, "c": str(c)} for (i, j), c in poly.terms]
    return {"terms": terms, "total_degree": poly.total_degree, "text": _bivar_text(poly)}, terms


@_verb("power-lemma", "extremal partition combinatorics (construction or oracle)",
       Param("theta", "rational", "2"), Param("c", "rational", "1"),
       Param("oracle", "flag", False), Param("X", "int"), Param("M", "int"))
def _run_power_lemma(a):
    from .countkit.powerlemma import power_lemma_min_X, power_lemma_oracle

    if a.oracle:
        if a.X is None:
            raise _CliError("--oracle needs --X")
        out = power_lemma_oracle(a.X, a.c, a.theta)
        res = {"max_M": out.max_M, "witness": list(out.witness)}
    else:
        if a.M is None:
            raise _CliError("construction mode needs --M")
        con = power_lemma_min_X(a.M, a.c, a.theta)
        res = {"X_min": con.X_min, "counts": list(con.counts), "witness": list(con.witness)}
    return res, [res]


@_verb("bound-shape", "evaluate a bound shape with a caller-supplied constant",
       _req("tag", choices=("decay_unit_disk", "decay_profile", "growth_rational_count",
                            "growth_profile", "compact_refinement", "interpolation_degree",
                            "degree_lower", "factor_count")),
       Param("c", "number", "1"), Param("d", "int"), Param("H", "number"),
       Param("l", "number"), Param("D", "int"), Param("n", "int"), Param("eps", "rational"))
def _run_bound_shape(a):
    from .countkit.shapes import bound_shape

    kwargs = {k: getattr(a, k) for k in ("d", "H", "l", "D", "n", "eps")
              if getattr(a, k) is not None}
    val = bound_shape(a.tag, c=a.c, prec=a.precision, **kwargs)
    res = {"tag": a.tag, "value": _ball_json(val, a.precision)}
    return res, [{"tag": a.tag, "value": _ball_cell(val, a.precision)}]


def _map_jobs(fn, payloads: list, jobs: int) -> list:
    """``fn`` over ``payloads``, in a process pool of at most one worker per
    payload and per CPU when more than one job is asked for.  The pool starts
    all its workers at once, so ``--jobs`` alone never sizes it."""
    workers = min(jobs, len(payloads), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(p) for p in payloads]
    from concurrent.futures import ProcessPoolExecutor  # lazy: only --jobs > 1 needs it

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, payloads))


def _census_chunk(payload):
    fname, params, qs, H, precision, escalations = payload
    from .countkit.census import census_records, make_evaluator

    evaluator = make_evaluator(fname, precision=precision, **params)
    return census_records(evaluator, qs, H, precision, escalations)


@_verb("census", "bounded-height rational census with certified verdicts",
       _req("function", choices=("square", "const", "lambda", "delta", "fstar")),
       _req("height", "rational"), Param("value", "rational", "1/2"),
       Param("order", "int", 16), Param("map"), Param("alpha", "rational"),
       Param("escalations", "int", 1))
def _run_census(a):
    from .countkit.census import CensusResult, enumerate_rationals

    params = {"value": a.value, "N": a.order, "map_text": a.map or "X^2",
              "alpha": a.alpha if a.alpha is not None else Fraction(4)}
    qs = enumerate_rationals(a.height)
    jobs = max(1, a.jobs) if len(qs) >= 4 else 1
    # at least one chunk, so the evaluator is built (and checked) even for no q
    payloads = [(a.function, params, qs[i::jobs], a.height, a.precision, a.escalations)
                for i in range(min(jobs, len(qs)) or 1)]
    by_q = {rec.q: rec for part in _map_jobs(_census_chunk, payloads, jobs) for rec in part}
    result = CensusResult(a.height, a.precision, tuple(by_q[q] for q in qs))
    cells = [{"q": _fr(r.q), **_mid_rad(r.value), "verdict": r.verdict,
              "candidate": _fr(r.candidate) if r.candidate is not None else None,
              "excluded_zero": r.excluded_zero} for r in result.records]
    res = {"count": result.count, "verdicts": result.verdict_counts(), "records": cells}
    return res, [{k: v for k, v in c.items() if k != "excluded_zero"} for c in cells]


@_verb("modular", "rigorous modular value on the upper half-plane",
       _req("which", choices=("lambda", "delta")), Param("tau-re", "rational", "0"),
       _req("tau-im", "rational"), Param("order", "int"))
def _run_modular(a):
    from .countkit.modular import modular_eval

    mv = modular_eval(a.which, ComplexBall(a.tau_re, a.tau_im), a.order, a.precision)
    res = {"which": a.which, "value": _ball_json(mv.value, a.precision), "terms": mv.terms,
           # rounded outward: the radius slot of ball_decimal rounds up
           "tail_bound": ball_decimal(Fraction(0), Fraction(mv.tail_bound), _DIGITS)[1]}
    return res, [{"which": a.which, "value": _ball_cell(mv.value, a.precision)}]


def _sweep_worker(payload):
    verb, values = payload
    return VERBS[verb].run(SimpleNamespace(**values))[1]


def _vary_values(spec: str) -> tuple[str, list | range]:
    """The swept name and its values: a list of texts, or a range of ints
    (not materialized, so its size is checked first)."""
    if "=" not in spec:
        raise _CliError(f"malformed --vary {_shown(spec)} (need name=a:b or name=v1,v2,...)")
    name, body = spec.split("=", 1)
    if ":" not in body:
        return name, [v for v in body.split(",") if v != ""]
    parts = body.split(":")
    if len(parts) not in (2, 3):
        raise _CliError(f"malformed range in --vary {_shown(spec)}")
    try:
        a, b = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
        return name, range(a, b + 1 if step > 0 else b - 1, step)  # b is included
    except ValueError as exc:
        raise _CliError(f"malformed range in --vary {_shown(spec)}") from exc


@_verb("sweep", "run a verb over parameter ranges, one CSV row per tuple",
       Param("verb", required=True, dest="sweep_verb"), Param("vary", "list", []),
       Param("job-cap", "int", 10000))
def _run_sweep(a):
    """Runs the target verb once per tuple of ``--vary`` values; every other
    parameter of the target verb comes from its own flags and defaults."""
    verb = VERBS[a.sweep_verb]
    declared = {p.key: p for p in COMMON + verb.params}
    ranges = []
    for spec in a.vary:
        name, values = _vary_values(spec)
        p = declared.get(name.replace("-", "_"))
        if p is None:
            raise _CliError(f"--vary: {verb.name} has no parameter {_shown(name)}")
        if any(q.key == p.key for q, _ in ranges):
            raise _CliError(f"--vary: {_shown(name)} is swept twice")
        ranges.append((p, values))
    # checked before any tuple is built; len() refuses a range past sys.maxsize,
    # so a range's size is taken as ceil((stop - start) / step)
    count = math.prod(max(0, -((v.start - v.stop) // v.step)) if isinstance(v, range) else len(v)
                      for _, v in ranges)
    if count > a.job_cap:
        raise ResourceGuardError(f"sweep of {count} jobs exceeds cap {a.job_cap}")
    tuples = [[]]
    for p, values in ranges:
        tuples = [t + [(p, v)] for t in tuples for v in values]
    payloads = []
    for t in tuples:
        values = vars(a) | {p.key: _value(p, str(v)) for p, v in t}  # a range gives ints
        _check_required(verb, values)
        payloads.append((verb.name, values))
    rows = [{p.key: v for p, v in t} | row
            for t, rr in zip(tuples, _map_jobs(_sweep_worker, payloads, a.jobs)) for row in rr]
    return {"verb": verb.name, "jobs": len(payloads), "rows": rows}, rows


# ---------------------------------------------------------------------------
# parsing: the table above is the parser's only input


def _load_config(path: str) -> list[tuple[str, str]]:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"cannot read config {_shown(path)}: {exc}") from exc
    out = []
    for line in filter(None, (line.split("#", 1)[0].strip() for line in lines)):
        k, eq, v = line.partition("=")
        if not eq:
            raise _CliError(f"malformed config line {_shown(line)}")
        out.append((k.strip().replace("-", "_"), v.strip()))
    return out


def _listing(verb: Verb | None) -> str:
    """The ``--help`` text, off the table: the verbs, or one verb's options."""
    if verb is None:
        rows = [__doc__, "verbs:", *(f"  {v.name:<20} {v.help}" for v in VERBS.values())]
    else:
        rows = [verb.help, "", "options:", *(p.usage for p in verb.params + COMMON)]
    usage = f"usage: arithdyn {verb.name if verb else 'VERB'} [--name value | --name=value] ..."
    return "\n".join([usage, "", *rows]) + "\n"


def _parse(argv: list[str]) -> tuple[SimpleNamespace, tuple[Param, ...]]:
    """The raw namespace (what the jobspec prints) and the declared params.

    Values merge in one loop: the table's defaults, then the config file's
    lines, then the command line; a later value wins, and a list option
    collects them all.  Int and flag values are typed as they are merged;
    every other value stays as written until the verb runs."""
    if argv[:1] in (["--help"], ["-h"], ["--version"]):
        raise _Listing(__version__ + "\n" if argv[0] == "--version" else _listing(None))
    if not argv or argv[0] not in VERBS:
        got = f"unknown verb {_shown(argv[0])}" if argv else "no verb given"
        raise _CliError(f"{got} (see --help)")
    verb = VERBS[argv[0]]
    flags = {f"--{p.name}" for v in VERBS.values() for p in COMMON + v.params if p.kind == "flag"}
    given, tokens = [], iter(argv[1:])
    for token in tokens:
        if token in ("--help", "-h"):
            raise _Listing(_listing(verb))
        if not token.startswith("--"):
            raise _CliError(f"unexpected argument {_shown(token)}")
        name, eq, value = token.partition("=")
        if name in flags and eq:
            raise _CliError(f"{_shown(name)} is a flag and takes no value")
        value = value if eq else True if name in flags else next(tokens, None)
        if value is None:
            raise _CliError(f"{_shown(name)} needs a value")
        given.append((name, value))
    cmd = dict(given)
    cfg = _load_config(cmd["--config"]) if cmd.get("--config") else []
    target = cmd.get("--verb", dict(cfg).get("sweep_verb")) if verb.name == "sweep" else None
    if target is not None and (target not in VERBS or target == "sweep"):
        raise _CliError(f"unknown sweep verb {_shown(target)}")
    params = COMMON + verb.params + (VERBS[target].params if target else ())
    values = {p.key: p.default for p in params} | {"verb": verb.name}
    by_key, by_name = {p.key: p for p in params}, {f"--{p.name}": p for p in params}
    for pairs, declared, what in ((cfg, by_key, "config key "), (given, by_name, "")):
        for k, v in pairs:
            if k not in declared:
                raise _CliError(f"{what}{_shown(k)} is not a parameter of {verb.name}")
            p = declared[k]
            values[p.key] = ([*values[p.key], v] if p.kind == "list"
                             else _value(p, v) if p.kind in ("int", "flag") else v)
    _check_required(verb, values)
    return SimpleNamespace(**values), params


def _jobspec(args) -> dict:
    spec = {}
    for k, v in sorted(vars(args).items()):
        if k in ("output", "config") or v is None or k == "vary" and not v:
            continue
        spec[k] = v if isinstance(v, (int, list)) else str(v)  # list: vary's texts
    return spec


def _emit(args, result, rows):
    spec = _jobspec(args)
    if args.format == "json":
        doc = {"artifact_version": __version__, "jobspec": spec, "result": result}
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        lines = ["# jobspec: " + " ".join(f"{k}={v}" for k, v in sorted(spec.items()))]
        if rows:
            header = list(rows[0].keys())
            lines.append(",".join(header))
            for row in rows:
                lines.append(",".join(_csv_cell(row.get(h)) for h in header))
        else:
            lines.append("")
        text = "\n".join(lines) + "\n"
    if args.output:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise _CliError(f"cannot write output {args.output!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _csv_cell(v) -> str:
    if v is None:
        return ""
    s = str(v)
    if "," in s or '"' in s:
        s = '"' + s.replace('"', '""') + '"'
    return s


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(_MAX_INT_DIGITS)
    try:
        args, params = _parse(argv)
        result, rows = VERBS[args.verb].run(_typed(vars(args), params))
        _emit(args, result, rows)
        return 0
    except ValueError as exc:
        if not _too_many_digits(exc):
            raise
        print(f"resource guard: an integer of more than {_MAX_INT_DIGITS} digits", file=sys.stderr)
        return 3
    except _Listing as exc:
        sys.stdout.write(str(exc))
        return 0
    except _CliError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
