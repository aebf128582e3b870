"""Command-line front end: one verb per operation, batch sweeps, config
files, and machine-readable (JSON/CSV) output.

Every run embeds its full job specification (verb, parameters, precision,
seed) and the artifact version in the output, and identical job specs
produce byte-identical outputs.  Numeric cells are exact rational strings
"p/q" or certified enclosures rendered as mid/rad decimal pairs; bare
floats never appear.

Exit codes: 0 success, 1 unknown verb or malformed parameters, 2 domain
errors, 3 resource-guard trips.

Config files are key=value lines ('#' comments allowed); keys are the long
option names with dashes replaced by underscores.  Explicit command-line
flags override config values, which override built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from . import __version__
from .errors import DomainError, ResourceGuardError
from .exactnum import ComplexBall, RealBall, ball_decimal, ball_e, parse_poly
from .polymap import DEFAULT_DEGREE_CAP, PolyMap

_DIGITS = 30  # decimal digits in rendered enclosures


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


def _rational(text, what: str) -> Fraction:
    """Exact rational from a command-line value ("3/4", "2.5", "-7"); a
    malformed one is a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _CliError(f"{what}: cannot parse rational {text!r}") from exc


def parse_number(text):
    """Exact rational ("3/4", "2.5", "-7") or e-power ("e", "e^3") values."""
    if isinstance(text, (int, Fraction)):
        return Fraction(text)
    if isinstance(text, RealBall):
        return text
    text = text.strip()
    if text == "e" or text.startswith("e^"):
        k = _rational(text[2:], "exponent of e") if text.startswith("e^") else Fraction(1)
        b = ball_e(192)
        if k.denominator != 1:
            raise _CliError(f"only integer powers of e are supported: {text!r}")
        out = RealBall.exact(1)
        for _ in range(abs(k.numerator)):
            out = out * b
        return out.inverse() if k < 0 else out
    return _rational(text, "number")


def _fr(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _ball_json(b, prec: int) -> dict:
    if isinstance(b, RealBall):
        mid, rad = ball_decimal(b.mid, b.rad, _DIGITS)
        return {"mid": mid, "rad": rad, "precision": prec}
    mid_re, rad = ball_decimal(b.re, b.rad, _DIGITS)
    mid_im, _ = ball_decimal(b.im, Fraction(0), _DIGITS)
    return {"mid": f"{mid_re}{'+' if not mid_im.startswith('-') else ''}{mid_im}i",
            "rad": rad, "precision": prec}


def _ball_cell(b, prec: int) -> str:
    j = _ball_json(b, prec)
    return f"{j['mid']}+/-{j['rad']}"


def _maybe_map(args) -> PolyMap:
    if not getattr(args, "map", None):
        raise _CliError("--map is required for this verb")
    return PolyMap.from_text(args.map)


def _alpha(args) -> Fraction:
    if getattr(args, "alpha", None) is None:
        raise _CliError("--alpha is required for this verb")
    return _rational(args.alpha, "--alpha")


# ---------------------------------------------------------------------------
# verb handlers: each returns (result_for_json, rows_for_csv)


def _run_height(args):
    from .heights import AlgebraicNumber, height_algebraic, height_rational

    prec = args.precision
    if args.rational is not None:
        hv = height_rational(_rational(args.rational, "--rational"), prec)
    elif args.min_poly is not None:
        _, prim = parse_poly(args.min_poly).to_int_primitive()
        hv = height_algebraic(AlgebraicNumber.create(prim), prec)
    else:
        raise _CliError("height needs --rational or --min-poly")
    res = hv.to_json(_DIGITS)
    return res, [res | {"input": args.rational or args.min_poly}]


def _run_weil_height(args):
    from .heights import weil_height_tuple

    ts = [Fraction(t) for t in args.tuple.split(",") if t.strip()]
    hv = weil_height_tuple(ts, args.precision)
    res = hv.to_json(_DIGITS)
    return res, [res]


def _run_iterate(args):
    P = _maybe_map(args)
    out = P.iterate_poly(args.n, args.degree_cap)
    res = {"degree": out.degree, "coeffs": out.to_json()}
    return res, [{"degree": out.degree, "coeffs": " ".join(out.to_json())}]


def _run_canonical_height(args):
    from .dynamics import canonical_height_stats

    P = _maybe_map(args)
    stats = canonical_height_stats(P, _alpha(args), Fraction(args.eps), args.precision)
    res = {
        "alpha": _fr(stats.alpha),
        "n_used": stats.n,
        "canonical": _ball_json(stats.canonical, args.precision),
        "gap_constant": _ball_json(stats.gap_constant, args.precision),
        "orbit_height_mults": [_fr(h) for h in stats.heights],
    }
    row = {
        "alpha": _fr(stats.alpha),
        "n_used": stats.n,
        "canonical": _ball_cell(stats.canonical, args.precision),
    }
    return res, [row]


def _snap_row(P, alpha, n, args):
    from .countkit import bound_shape
    from .dynamics import snap_degree_multiset

    rep = snap_degree_multiset(P, alpha, n, args.degree_cap, args.seed)
    delta = Fraction(args.delta)
    p, q = delta.numerator, delta.denominator
    thr_rhs = P.degree ** (p * n)
    count = sum(1 for d in rep.multiset if d ** q <= thr_rhs)
    prop = Fraction(count, P.degree ** n)
    shape = bound_shape("degree_lower", D=P.degree, n=n, eps=Fraction(args.eps_shape),
                        prec=args.precision)
    return rep, {
        "alpha": _fr(alpha),
        "n": n,
        "D": P.degree,
        "r": rep.distinct_factors,
        "r_with_multiplicity": rep.with_multiplicity,
        "max_degree": rep.max_degree,
        "proportion": _fr(prop),
        "bound_shape_value": _ball_cell(shape, args.precision),
        "squarefree": rep.squarefree,
    }


def _run_snap(args):
    P = _maybe_map(args)
    rep, row = _snap_row(P, _alpha(args), args.n, args)
    res = {
        "multiset": list(rep.multiset),
        "squarefree": rep.squarefree,
        "value": _fr(rep.value),
        "factors": rep.factor_report.to_json(),
    } | {k: row[k] for k in ("alpha", "n", "D", "r", "max_degree")}
    return res, [row]


def _run_irreducible_count(args):
    from .dynamics import irreducible_count

    P = _maybe_map(args)
    r, rm = irreducible_count(P, _alpha(args), args.n, args.degree_cap, args.seed)
    res = {"r": r, "with_multiplicity": rm}
    return res, [res]


def _run_proportion(args):
    from .dynamics import low_degree_proportion

    P = _maybe_map(args)
    prop = low_degree_proportion(P, _alpha(args), args.n, Fraction(args.delta),
                                 args.degree_cap, args.seed)
    res = {"proportion": _fr(prop), "delta": _fr(Fraction(args.delta))}
    return res, [res]


def _run_factor(args):
    from .factorint import factor_over_Q

    poly = parse_poly(args.poly)
    scale, rep = factor_over_Q(poly, args.seed)
    rj = rep.to_json()
    res = {"scale": _fr(scale)} | rj
    rows = [
        {"degree": len(f["coeffs"]) - 1, "mult": f["mult"], "coeffs": " ".join(f["coeffs"])}
        for f in rj["factors"]
    ]
    return res, rows


def _run_boettcher_series(args):
    from .boettcher import boettcher_series

    P = _maybe_map(args)
    B = boettcher_series(P, args.order)
    coeffs = {f"b{k}": _fr(B.b(k)) for k in range(args.order + 1)}
    return {"order": args.order, "coefficients": coeffs}, [
        {"k": k, "b_k": _fr(B.b(k))} for k in range(args.order + 1)
    ]


def _run_delta_v(args):
    from .boettcher import delta_v

    P = _maybe_map(args)
    dv = delta_v(P, args.prime)
    res = {
        "prime": args.prime,
        "exact": _fr(dv.exact) if dv.exact is not None else None,
        "power": _fr(dv.power) if dv.power is not None else None,
        "power_exponent": dv.power_exponent,
        "value": _ball_cell(dv.value_ball(args.precision), args.precision),
    }
    return res, [res]


def _run_good_place(args):
    from .boettcher import good_place

    P = _maybe_map(args)
    rep = good_place(P, _alpha(args))
    if rep is None:
        res = {"found": False}
    else:
        res = {
            "found": True,
            "place": "arch" if rep.prime is None else rep.prime,
            "abs_value": _fr(rep.abs_value),
            "threshold": rep.delta.describe(),
            "margin": _ball_cell(rep.margin, args.precision),
        }
    return res, [res]


def _run_escape_radius(args):
    from .boettcher import escape_domain_radius

    er = escape_domain_radius(_maybe_map(args))
    res = {"radius": _fr(er.radius), "safe": _fr(er.safe)}
    return res, [res]


def _run_fstar(args):
    from .boettcher import fstar_eval

    P = _maybe_map(args)
    tau = ComplexBall(Fraction(args.tau_re), Fraction(args.tau_im))
    out = fstar_eval(P, _alpha(args), tau, N=args.order, prec=args.precision)
    res = {
        "value": _ball_json(out.value, args.precision),
        "rho": _fr(out.rho),
        "distortion": _fr(out.distortion),
        "phi_tail": _fr(out.phi_tail),
        "psi_tail": _fr(out.psi_tail),
    }
    return res, [{"value": _ball_cell(out.value, args.precision)}]


def _run_order(args):
    from .galois import mult_order

    res = {"order": mult_order(args.a, args.n)}
    return res, [res | {"a": args.a, "n": args.n}]


def _run_lifting_exponent(args):
    from .galois import lifting_exponent

    le = lifting_exponent(args.a, args.q)
    res = {"a": le.a, "q": le.q, "e": le.e, "m": le.m}
    return res, [res]


def _run_cyclotomic_degree(args):
    from .galois import cyclotomic_degree_qp

    res = {"degree": cyclotomic_degree_qp(args.p, args.b)}
    return res, [res | {"p": args.p, "b": args.b}]


def _run_galcor(args):
    from .galois import galcor_lower_bound

    g = galcor_lower_bound(args.p, args.b, args.D, args.precision)
    res = {
        "degree": g.degree,
        "m": g.m,
        "bound": _fr(g.bound),
        "m_cap": _ball_cell(g.m_cap, args.precision),
    }
    return res, [res]


def _run_padic_bound(args):
    from .galois import padic_degree_bound

    P = _maybe_map(args)
    rep = padic_degree_bound(P, _alpha(args), args.n, args.precision,
                             args.degree_cap, not args.no_cross_check, args.seed)
    res = {
        "place": rep.place.describe(),
        "bound": rep.bound,
        "cap_form": _fr(rep.cap_form),
        "m_uniform": rep.m_uniform,
        "m_height_cap": _ball_cell(rep.m_height_cap, args.precision),
        "count_coefficient": rep.count_coefficient,
        "snap_max_degree": rep.snap_max_degree,
    }
    return res, [res]


def _run_bounded_region(args):
    from .dynamics import bounded_height_region_check

    P = _maybe_map(args)
    rep = bounded_height_region_check(P, _alpha(args), args.precision)
    res = {
        "height": _fr(rep.height),
        "threshold_product": _ball_cell(rep.threshold_product, args.precision),
        "exceeds": rep.exceeds,
        "witness": rep.witness_place.describe() if rep.witness_place else None,
        "places": [dv.describe() for dv in rep.nontrivial_places],
    }
    return res, [
        {k: res[k] for k in ("height", "threshold_product", "exceeds", "witness")}
    ]


def _run_cover(args):
    from .countkit import cover_count_bound_holds, disk_cover

    centers = disk_cover(Fraction(args.R), Fraction(args.r))
    res = {
        "count": len(centers),
        "bound_holds": cover_count_bound_holds(len(centers), Fraction(args.R), Fraction(args.r)),
        "centers": [[_fr(x), _fr(y)] for x, y in centers],
    }
    rows = [{"cx": _fr(x), "cy": _fr(y)} for x, y in centers]
    return res, rows


def _run_jensen(args):
    from .countkit import jensen_zero_bound

    res = {"zero_bound": jensen_zero_bound(Fraction(args.M), Fraction(args.g0),
                                           Fraction(args.r), Fraction(args.R),
                                           args.precision)}
    return res, [res]


def _run_masser_t(args):
    from .countkit import masser_T_threshold

    T = masser_T_threshold(parse_number(args.AZ), parse_number(args.M),
                           parse_number(args.H), args.d, args.precision)
    mid, rad = ball_decimal(T, Fraction(0), 12)
    res = {"T": _fr(T), "T_decimal": {"mid": mid, "rad": rad}}
    return res, [{"T": _fr(T), "T_decimal": f"{mid}+/-{rad}"}]


def _run_vanish(args):
    from .countkit import vanishing_polynomial

    points = []
    if args.points.strip():
        for pair in args.points.split(";"):
            xy = pair.split(",")
            if len(xy) != 2:
                raise _CliError(f"--points: need x,y pairs separated by ';', got {pair!r}")
            points.append((_rational(xy[0], "--points"), _rational(xy[1], "--points")))
    poly = vanishing_polynomial(points, args.t_max)
    res = poly.to_json() | {"total_degree": poly.total_degree, "text": str(poly)}
    rows = [{"i": i, "j": j, "c": str(c)} for (i, j), c in poly.terms]
    return res, rows


def _run_power_lemma(args):
    from .countkit import power_lemma_min_X, power_lemma_oracle

    if args.oracle:
        if args.X is None:
            raise _CliError("--oracle needs --X")
        out = power_lemma_oracle(args.X, Fraction(args.c), Fraction(args.theta))
        res = {"max_M": out.max_M, "witness": list(out.witness)}
    else:
        if args.M is None:
            raise _CliError("construction mode needs --M")
        con = power_lemma_min_X(args.M, Fraction(args.c), Fraction(args.theta))
        res = {"X_min": con.X_min, "counts": list(con.counts), "witness": list(con.witness)}
    return res, [res]


def _run_bound_shape(args):
    from .countkit import bound_shape

    kwargs = {}
    if args.d is not None:
        kwargs["d"] = args.d
    if args.H is not None:
        kwargs["H"] = parse_number(args.H)
    if args.l is not None:
        kwargs["l"] = parse_number(args.l)
    if args.D is not None:
        kwargs["D"] = args.D
    if args.n is not None:
        kwargs["n"] = args.n
    if args.eps is not None:
        kwargs["eps"] = Fraction(args.eps)
    val = bound_shape(args.tag, c=parse_number(args.c), prec=args.precision, **kwargs)
    res = {"tag": args.tag, "value": _ball_json(val, args.precision)}
    return res, [{"tag": args.tag, "value": _ball_cell(val, args.precision)}]


def _census_chunk(payload):
    fname, params, qs, H, precision, escalations = payload
    from .countkit import EVALUATORS, census_records

    evaluator = EVALUATORS[fname](**params)
    return census_records(evaluator, [Fraction(q) for q in qs], Fraction(H),
                          precision, escalations)


def _run_census(args):
    from .countkit import EVALUATORS, CensusResult, enumerate_rationals

    if args.function not in EVALUATORS:
        raise _CliError(f"unknown census function {args.function!r}")
    params = {}
    if args.function == "const":
        params["value"] = Fraction(args.value)
    if args.function in ("lambda", "delta", "fstar"):
        params["N"] = args.order
    if args.function == "fstar":
        params["map_text"] = args.map or "X^2"
        params["alpha"] = Fraction(args.alpha if args.alpha is not None else 4)
    H = Fraction(args.height)
    qs = enumerate_rationals(H)
    jobs = max(1, args.jobs)
    if jobs == 1 or len(qs) < 4:
        records = _census_chunk((args.function, params, [str(q) for q in qs], str(H),
                                 args.precision, args.escalations))
    else:
        chunks = [qs[i::jobs] for i in range(jobs)]
        payloads = [
            (args.function, params, [str(q) for q in chunk], str(H),
             args.precision, args.escalations)
            for chunk in chunks if chunk
        ]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_census_chunk, payloads))
        by_q = {}
        for part in parts:
            for rec in part:
                by_q[rec.q] = rec
        records = [by_q[q] for q in qs]
    count = sum(1 for r in records
                if r.verdict == "candidate-rational" and not r.excluded_zero)
    result = CensusResult(H, args.precision, count, tuple(records))
    res = {
        "count": result.count,
        "verdicts": result.verdict_counts(),
        "records": [
            {
                "q": _fr(r.q),
                "mid": ball_decimal(r.value.mid, r.value.rad, _DIGITS)[0],
                "rad": ball_decimal(r.value.mid, r.value.rad, _DIGITS)[1],
                "verdict": r.verdict,
                "candidate": _fr(r.candidate) if r.candidate is not None else None,
                "excluded_zero": r.excluded_zero,
            }
            for r in result.records
        ],
    }
    rows = [
        {
            "q": _fr(r.q),
            "mid": ball_decimal(r.value.mid, r.value.rad, _DIGITS)[0],
            "rad": ball_decimal(r.value.mid, r.value.rad, _DIGITS)[1],
            "verdict": r.verdict,
            "candidate": _fr(r.candidate) if r.candidate is not None else "",
        }
        for r in result.records
    ]
    return res, rows


def _run_modular(args):
    from .countkit import modular_eval

    tau = ComplexBall(Fraction(args.tau_re), Fraction(args.tau_im))
    mv = modular_eval(args.which, tau, args.order, args.precision)
    res = {
        "which": args.which,
        "value": _ball_json(mv.value, args.precision),
        "terms": mv.terms,
        # rounded outward: the radius slot of ball_decimal rounds up
        "tail_bound": ball_decimal(Fraction(0), Fraction(mv.tail_bound), _DIGITS)[1],
    }
    return res, [{"which": args.which, "value": _ball_cell(mv.value, args.precision)}]


_HANDLERS = {
    "height": _run_height,
    "weil-height": _run_weil_height,
    "iterate": _run_iterate,
    "canonical-height": _run_canonical_height,
    "snap": _run_snap,
    "irreducible-count": _run_irreducible_count,
    "proportion": _run_proportion,
    "factor": _run_factor,
    "boettcher-series": _run_boettcher_series,
    "delta-v": _run_delta_v,
    "good-place": _run_good_place,
    "escape-radius": _run_escape_radius,
    "fstar": _run_fstar,
    "order": _run_order,
    "lifting-exponent": _run_lifting_exponent,
    "cyclotomic-degree": _run_cyclotomic_degree,
    "galcor": _run_galcor,
    "padic-bound": _run_padic_bound,
    "bounded-region": _run_bounded_region,
    "cover": _run_cover,
    "jensen": _run_jensen,
    "masser-t": _run_masser_t,
    "vanish": _run_vanish,
    "power-lemma": _run_power_lemma,
    "bound-shape": _run_bound_shape,
    "census": _run_census,
    "modular": _run_modular,
}


def _sweep_worker(payload):
    verb, argd = payload
    ns = argparse.Namespace(**argd)
    _, rows = _HANDLERS[verb](ns)
    return rows


def _run_sweep(args, verb_parsers):
    if args.sweep_verb not in _HANDLERS:
        raise _CliError(f"unknown sweep verb {args.sweep_verb!r}")
    vary = [args.vary] if isinstance(args.vary, str) else args.vary
    ranges = []
    for spec in vary:
        if "=" not in spec:
            raise _CliError(f"malformed --vary {spec!r} (need name=a:b or name=v1,v2,...)")
        name, body = spec.split("=", 1)
        name = name.replace("-", "_")
        if ":" in body:
            parts = body.split(":")
            if len(parts) not in (2, 3):
                raise _CliError(f"malformed range in --vary {spec!r}")
            try:
                a, b = int(parts[0]), int(parts[1])
                step = int(parts[2]) if len(parts) == 3 else 1
                values = list(range(a, b + 1, step))
            except ValueError as exc:
                raise _CliError(f"malformed range in --vary {spec!r}") from exc
        else:
            values = [v for v in body.split(",") if v != ""]
        ranges.append((name, values))
    tuples = [[]]
    for name, values in ranges:
        tuples = [t + [(name, v)] for t in tuples for v in values]
    if len(tuples) > args.job_cap:
        raise ResourceGuardError(f"sweep of {len(tuples)} jobs exceeds cap {args.job_cap}")
    base = vars(args).copy()
    # options the swept verb has and sweep leaves unset take the verb's own defaults
    verb_defaults = vars(verb_parsers[args.sweep_verb].parse_args([]))
    for k, v in verb_defaults.items():
        if base.get(k) is None:
            base[k] = v
    payloads = []
    for t in tuples:
        d = base.copy()
        for name, v in t:
            if name in _INT_KEYS or (name in _SOFT_INT and str(v).lstrip("-").isdigit()):
                d[name] = int(v)
            else:
                d[name] = v
        payloads.append((args.sweep_verb, d))
    jobs = max(1, args.jobs)
    if jobs == 1 or len(payloads) <= 1:
        all_rows = [_sweep_worker(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            all_rows = list(pool.map(_sweep_worker, payloads))
    rows = []
    for t, rr in zip(tuples, all_rows):
        for row in rr:
            rows.append({name: v for name, v in t} | row)
    res = {"verb": args.sweep_verb, "jobs": len(payloads), "rows": rows}
    return res, rows


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="arithdyn", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb")
    parser._verb_parsers = {}

    def add(name, *specs, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--output", default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--precision", type=int, default=128)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--config", default=None)
        p.add_argument("--degree-cap", dest="degree_cap", type=int, default=DEFAULT_DEGREE_CAP)
        for spec in specs:
            flags, skw = spec
            p.add_argument(*flags, **skw)
        parser._verb_parsers[name] = p
        return p

    A = lambda *flags, **kw: (flags, kw)  # noqa: E731

    add("height", A("--rational"), A("--min-poly", dest="min_poly"),
        help="multiplicative/log height of a rational or algebraic number")
    add("weil-height", A("--tuple"), help="exact Weil height of a rational tuple")
    add("iterate", A("--map"), A("--n", type=int), help="exact expanded n-th iterate")
    add("canonical-height", A("--map"), A("--alpha"),
        A("--eps", default="1/1000000"),
        help="canonical height enclosure with certified tail")
    add("snap", A("--map"), A("--alpha"),
        A("--n", type=int), A("--delta", default="1/2"),
        A("--eps-shape", dest="eps_shape", default="1/8"),
        help="root-degree multiset of the n-th iterate difference")
    add("irreducible-count", A("--map"), A("--alpha"), A("--n", type=int),
        help="irreducible-factor counts of the iterate difference")
    add("proportion", A("--map"), A("--alpha"),
        A("--n", type=int), A("--delta"),
        help="share of roots of degree <= D^(delta n)")
    add("factor", A("--poly"), help="complete factorization over Z")
    add("boettcher-series", A("--map"), A("--order", type=int, default=10),
        help="conjugacy-at-infinity series coefficients (exact)")
    add("delta-v", A("--map"), A("--prime", type=int),
        help="nonarchimedean escape threshold at a prime")
    add("good-place", A("--map"), A("--alpha"),
        help="first place with |alpha|_v above the threshold")
    add("escape-radius", A("--map"), help="archimedean escape radius 1 + sum|a_i|")
    add("fstar", A("--map"), A("--alpha"),
        A("--tau-re", dest="tau_re", default="0"), A("--tau-im", dest="tau_im", default="1/24"),
        A("--order", type=int, default=16),
        help="escape-parametrized root function, certified")
    add("order", A("--a", type=int), A("--n", type=int),
        help="multiplicative order of a modulo n")
    add("lifting-exponent", A("--a", type=int), A("--q", type=int),
        help="(e, m) data governing orders modulo prime powers")
    add("cyclotomic-degree", A("--p", type=int), A("--b", type=int),
        help="exact degree of the b-th cyclotomic extension of Q_p")
    add("galcor", A("--p", type=int), A("--b", type=int), A("--D", type=int),
        help="cyclotomic degree lower bound b * D^-m")
    add("padic-bound", A("--map"), A("--alpha"),
        A("--n", type=int), A("--no-cross-check", action="store_true"),
        help="degree lower bound for iterate roots at a good prime")
    add("bounded-region", A("--map"), A("--alpha"),
        help="height test against the product of escape thresholds")
    add("cover", A("--R"), A("--r"), help="grid cover of a disk by smaller disks")
    add("jensen", A("--M"), A("--g0"), A("--r"), A("--R"),
        help="zero-count bound on nested disks")
    add("masser-t", A("--AZ"), A("--M", default="1"),
        A("--H", default="1"), A("--d", type=int),
        help="minimal interpolation degree satisfying the threshold inequality")
    add("vanish", A("--points", default=""), A("--t-max", dest="t_max", type=int),
        help="integer polynomial vanishing at given rational points")
    add("power-lemma", A("--theta", default="2"), A("--c", default="1"),
        A("--oracle", action="store_true"), A("--X", type=int), A("--M", type=int),
        help="extremal partition combinatorics (construction or oracle)")
    add("bound-shape", A("--tag"), A("--c", default="1"),
        A("--d", type=int), A("--H"), A("--l"), A("--D", type=int),
        A("--n", type=int), A("--eps"),
        help="evaluate a bound shape with a caller-supplied constant")
    add("census", A("--function"), A("--height"),
        A("--value", default="1/2"), A("--order", type=int, default=16),
        A("--map"), A("--alpha"), A("--escalations", type=int, default=1),
        help="bounded-height rational census with certified verdicts")
    add("modular", A("--which"),
        A("--tau-re", dest="tau_re", default="0"), A("--tau-im", dest="tau_im"),
        A("--order", type=int, default=None),
        help="rigorous modular value on the upper half-plane")
    add("sweep", A("--verb", dest="sweep_verb"), A("--vary", action="append", default=[]),
        A("--job-cap", dest="job_cap", type=int, default=10000),
        # passthrough parameters for the swept verb
        A("--map"), A("--alpha"), A("--n", type=int), A("--delta", default="1/2"),
        A("--eps", default="1/1000000"), A("--eps-shape", dest="eps_shape", default="1/8"),
        A("--prime", type=int), A("--p", type=int), A("--b", type=int),
        A("--D", type=int), A("--a", type=int), A("--q", type=int),
        A("--theta", default="2"), A("--c", default="1"), A("--oracle", action="store_true"),
        A("--X", type=int), A("--M", type=int), A("--rational"), A("--tuple"),
        A("--poly"), A("--order", type=int, default=10), A("--tag"), A("--H"), A("--l"),
        A("--function"), A("--height"), A("--value", default="1/2"),
        A("--escalations", type=int, default=1), A("--no-cross-check", action="store_true"),
        A("--R"), A("--r"), A("--g0"), A("--AZ"), A("--d", type=int),
        A("--points", default=""), A("--t-max", dest="t_max", type=int),
        A("--tau-re", dest="tau_re", default="0"), A("--tau-im", dest="tau_im", default="1/24"),
        A("--min-poly", dest="min_poly"), A("--which"),
        help="run a verb over parameter ranges, one CSV row per tuple")
    return parser


def _load_config(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _CliError(f"malformed config line {line!r}")
            k, v = line.split("=", 1)
            out[k.strip().replace("-", "_")] = v.strip()
    return out


_INT_KEYS = {"n", "precision", "seed", "jobs", "degree_cap", "order", "prime", "p",
             "b", "D", "a", "q", "X", "t_max", "job_cap", "escalations"}

_REQUIRED = {
    "weil-height": ("tuple",),
    "iterate": ("map", "n"),
    "canonical-height": ("map", "alpha"),
    "snap": ("map", "alpha", "n"),
    "irreducible-count": ("map", "alpha", "n"),
    "proportion": ("map", "alpha", "n", "delta"),
    "factor": ("poly",),
    "boettcher-series": ("map",),
    "delta-v": ("map", "prime"),
    "good-place": ("map", "alpha"),
    "escape-radius": ("map",),
    "fstar": ("map", "alpha"),
    "order": ("a", "n"),
    "lifting-exponent": ("a", "q"),
    "cyclotomic-degree": ("p", "b"),
    "galcor": ("p", "b", "D"),
    "padic-bound": ("map", "alpha", "n"),
    "bounded-region": ("map", "alpha"),
    "cover": ("R", "r"),
    "jensen": ("M", "g0", "r", "R"),
    "masser-t": ("AZ", "d"),
    "vanish": ("t_max",),
    "bound-shape": ("tag",),
    "census": ("function", "height"),
    "modular": ("which", "tau_im"),
    "sweep": ("verb",),
}


def _jobspec(args) -> dict:
    skip = {"output", "config"}
    spec = {}
    for k, v in sorted(vars(args).items()):
        if k in skip or v is None or k == "vary" and not v:
            continue
        if isinstance(v, (list, tuple)):
            spec[k] = [str(x) for x in v]
        else:
            spec[k] = v if isinstance(v, (int, bool)) else str(v)
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
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_cell(v) -> str:
    if v is None:
        return ""
    s = str(v)
    if "," in s or '"' in s:
        s = '"' + s.replace('"', '""') + '"'
    return s


_BOOL_KEYS = {"oracle", "no_cross_check"}
_SOFT_INT = {"M", "d"}  # int for some verbs, free-form number for others


def _config_defaults(parser, argv):
    if "--config" not in argv:
        return
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise _CliError("--config needs a path")
    cfg = _load_config(argv[i + 1])
    conv = {}
    for k, v in cfg.items():
        if k == "verb":
            # the subcommand itself cannot come from a config file; the
            # sweep target verb uses the key sweep_verb
            raise _CliError("config key 'verb' is not allowed; use sweep_verb")
        if k in _INT_KEYS:
            conv[k] = int(v)
        elif k in _BOOL_KEYS:
            conv[k] = v.lower() in ("1", "true", "yes")
        elif k in _SOFT_INT and v.lstrip("-").isdigit():
            conv[k] = int(v)
        else:
            conv[k] = v
    for p in parser._verb_parsers.values():
        p.set_defaults(**conv)


def main(argv=None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        _config_defaults(parser, argv)
        args = parser.parse_args(argv)
        if not getattr(args, "verb", None):
            raise _CliError("no verb given (see --help)")
        for key in _REQUIRED.get(args.verb, ()):
            if getattr(args, key, None) is None:
                raise _CliError(f"{args.verb} requires --{key.replace('_', '-')}")
        if args.verb == "sweep":
            result, rows = _run_sweep(args, parser._verb_parsers)
        else:
            result, rows = _HANDLERS[args.verb](args)
        _emit(args, result, rows)
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


if __name__ == "__main__":
    sys.exit(main())
