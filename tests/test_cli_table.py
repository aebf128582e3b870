"""CLI behaviour generated from the verb table: sweep against the direct verb,
malformed values for every typed parameter, random argv, config keys, and
the README's CLI block and the benchmark's jobs, pinned by stdout digest."""

import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import os
import re
import shlex
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arithdyn.cli import COMMON, VERBS, Param, main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
DIGESTS = Path(__file__).with_name("cli_digests.json")

# (verb, minimal other args, swept parameter, its value): cheap jobs, one or
# more per verb.  The fstar census and the delta modular case are chosen so
# that the series order shows in the rows; the bound-shape case without --eps
# is a domain error either way; the masser-t and growth_profile rows sweep a
# "number" parameter.  The last six reach, in order: ball_sin and ball_cos
# (an off-axis tau, twice), the power-lemma construction, good-place with no
# good place, a threshold in root form, and Yun's squarefree decomposition.
EXAMPLES = [
    ("height", [], "rational", "7/3"),
    ("weil-height", [], "tuple", "1/2"),
    ("iterate", ["--map", "X^2+1"], "n", "2"),
    ("canonical-height", ["--map", "X^2+1", "--alpha", "1"], "eps", "1/1000"),
    ("snap", ["--map", "X^2", "--alpha", "2"], "n", "3"),
    ("irreducible-count", ["--map", "X^2", "--alpha", "2"], "n", "3"),
    ("proportion", ["--map", "X^2", "--alpha", "2", "--n", "3"], "delta", "1/2"),
    ("factor", [], "poly", "X^8-256"),
    ("boettcher-series", ["--map", "X^2+1"], "order", "4"),
    ("delta-v", ["--map", "X^2+1"], "prime", "3"),
    ("good-place", ["--map", "X^2"], "alpha", "1/8"),
    ("escape-radius", [], "map", "X^2-3"),
    ("fstar", ["--map", "X^2", "--alpha", "4"], "order", "8"),
    ("order", ["--a", "2"], "n", "5"),
    ("lifting-exponent", ["--a", "3"], "q", "7"),
    ("cyclotomic-degree", ["--p", "2"], "b", "8"),
    ("galcor", ["--p", "7", "--b", "4"], "D", "2"),
    ("padic-bound", ["--map", "X^2", "--alpha", "1/8"], "n", "3"),
    ("bounded-region", ["--map", "X^2"], "alpha", "3"),
    ("cover", ["--R", "2"], "r", "1"),
    ("jensen", ["--M", "5/4", "--g0", "1/4", "--r", "1/2"], "R", "1"),
    ("masser-t", ["--AZ", "2"], "d", "2"),
    ("vanish", ["--points", "1,1;2,4;3,9"], "t-max", "2"),
    ("power-lemma", ["--oracle"], "X", "9"),
    ("bound-shape", ["--tag", "degree_lower", "--D", "2", "--eps", "1/8"], "n", "8"),
    ("bound-shape", ["--tag", "degree_lower", "--D", "2"], "n", "8"),
    ("census", ["--function", "lambda"], "height", "4"),
    ("census", ["--function", "fstar", "--map", "X^2+1", "--alpha", "64"], "height", "3"),
    ("modular", ["--which", "delta"], "tau-im", "1"),
    ("masser-t", ["--AZ", "e^3", "--d", "2"], "M", "3"),
    ("bound-shape", ["--tag", "growth_profile", "--d", "4", "--l", "3"], "H", "3"),
    ("modular", ["--which", "lambda", "--tau-re", "1/3"], "tau-im", "3/2"),
    ("fstar", ["--map", "X^2+1", "--alpha", "64", "--tau-re", "1/5"], "tau-im", "1/3"),
    ("power-lemma", [], "M", "6"),
    ("good-place", ["--map", "X^2+1"], "alpha", "1"),
    ("bounded-region", ["--map", "X^3+1/2"], "alpha", "7/4"),
    ("factor", [], "poly", "X^6-2*X^4+X^2"),
]


def run(argv, capsys):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def csv_rows(text):
    lines = text.splitlines()
    assert lines[0].startswith("# jobspec:")
    return list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


def test_examples_cover_every_verb():
    assert {e[0] for e in EXAMPLES} == set(VERBS) - {"sweep"}


@pytest.mark.parametrize("verb,args,name,value", EXAMPLES)
def test_sweep_rows_equal_the_direct_verb(verb, args, name, value, capsys):
    rc_d, out_d, _ = run([verb, *args, f"--{name}", value, "--format", "csv"], capsys)
    # an integer is also swept as a one-point range, whose values are ints
    for vary in [value] + [f"{value}:{value}"] * value.isdigit():
        rc_s, out_s, _ = run(["sweep", "--verb", verb, *args, "--vary", f"{name}={vary}",
                              "--format", "csv"], capsys)
        assert rc_s == rc_d
        if rc_d != 0:
            continue
        spec = out_s.splitlines()[0][len("# jobspec: "):]
        declared = {p.key for p in COMMON + VERBS[verb].params + VERBS["sweep"].params}
        assert {item.split("=", 1)[0] for item in spec.split(" ")} <= declared | {"verb"}
        direct, swept = csv_rows(out_d), csv_rows(out_s)
        key = name.replace("-", "_")
        if direct and key not in direct[0]:
            for row in swept:
                assert row.pop(key) == value
        assert swept == direct


# a valid argv per verb, and every typed param it takes (a sweep takes snap's)
_MINIMAL = {"sweep": ["--verb", "snap", "--map", "X^2", "--alpha", "2", "--vary", "n=1:2"]}
for _verb, _args, _name, _value in EXAMPLES:
    _MINIMAL.setdefault(_verb, [*_args, f"--{_name}", _value])


def _typed_params(verb):
    params = COMMON + VERBS[verb].params + (VERBS["snap"].params if verb == "sweep" else ())
    return [p.name for p in params if p.kind in ("int", "rational", "number")]


_MALFORMED = [(verb, args, name) for verb, args in _MINIMAL.items() for name in _typed_params(verb)]


@pytest.mark.parametrize("verb,args,flag", _MALFORMED)
def test_malformed_typed_values_are_usage_errors(verb, args, flag, capsys):
    for junk in ("abc", "1/0", ""):
        rc, out, err = run([verb, *args, f"--{flag}", junk], capsys)
        assert rc == 1, (verb, flag, junk)
        assert err.startswith("usage error: ") and "Traceback" not in err
        assert out == ""


@pytest.mark.parametrize("argv", [
    ["cover", "--R", "x", "--r", "1"],
    ["jensen", "--M", "x", "--g0", "1/4", "--r", "1/2", "--R", "1"],
    ["canonical-height", "--map", "X^2+1", "--alpha", "1", "--eps", "abc"],
    ["proportion", "--map", "X^2", "--alpha", "2", "--n", "3", "--delta", "x"],
    ["snap", "--map", "X^2", "--alpha", "2", "--n", "3", "--delta", "x"],
    ["fstar", "--map", "X^2", "--alpha", "4", "--tau-re", "x"],
    ["modular", "--which", "lambda", "--tau-im", "x"],
    ["census", "--function", "lambda", "--height", "x"],
    ["census", "--function", "const", "--height", "3", "--value", "x"],
    ["bound-shape", "--tag", "degree_lower", "--D", "2", "--n", "8", "--eps", "x"],
    ["power-lemma", "--theta", "x", "--M", "3"],
    ["weil-height", "--tuple", "abc"],
    ["weil-height", "--tuple", "1/0"],
    ["masser-t", "--AZ", "2", "--d", "2", "--H", "e^x"],
    ["masser-t", "--AZ", "2", "--d", "2", "--H", "e^1/2"],
    ["sweep", "--verb", "snap", "--map", "X^2", "--alpha", "2", "--vary", "nn=1:3"],
    ["sweep", "--verb", "snap", "--map", "X^2", "--alpha", "2", "--vary", "delta=x"],
    ["sweep", "--verb", "snap", "--map", "X^2", "--alpha", "2", "--vary", "n=1,x"],
    ["sweep", "--verb", "snap", "--alpha", "2", "--vary", "n=1:2"],
    ["sweep", "--verb", "snap", "--map", "X^2", "--alpha", "2", "--vary", "n=1:2", "--vary", "n=3"],
    ["sweep", "--verb", "sweep", "--vary", "n=1:2"],
    ["sweep", "--vary", "n=1:2"],
    ["snap", "--config", "no-such-file.cfg"],
    ["cover", "--R", "2", "--r", "1", "--format", "xml"],
    ["census", "--function", "zeta", "--height", "3"],
    ["modular", "--which", "zeta", "--tau-im", "1"],
    ["bound-shape", "--tag", "zeta", "--d", "2", "--H", "3"],
])
def test_malformed_inputs_exit_1_without_a_traceback(argv, capsys):
    rc, out, err = run(argv, capsys)
    assert rc == 1
    assert err.startswith("usage error: ") and "Traceback" not in err


def test_declared_choices_are_the_library_names():
    """The table spells the allowed values out, so that a CLI run need not
    import the modules that define them."""
    from arithdyn.countkit.census import CENSUS_FUNCTIONS
    from arithdyn.countkit.shapes import SHAPE_TAGS

    choices = {(v.name, p.name): p.choices for v in VERBS.values() for p in v.params}
    assert choices["census", "function"] == CENSUS_FUNCTIONS
    assert choices["bound-shape", "tag"] == SHAPE_TAGS
    assert choices["modular", "which"] == ("lambda", "delta")


def test_config_values_are_parsed_by_the_verbs_types(tmp_path, capsys):
    bad_int = tmp_path / "bad.cfg"
    bad_int.write_text("map=X^2\nalpha=2\nn=abc\n")
    rc, _, err = run(["snap", "--config", str(bad_int)], capsys)
    assert rc == 1 and err.startswith("usage error: ")
    undeclared = tmp_path / "undeclared.cfg"
    undeclared.write_text("map=X^2\nalpha=2\nn=2\nprime=3\n")
    rc, _, err = run(["snap", "--config", str(undeclared)], capsys)
    assert rc == 1 and "prime" in err
    flag = tmp_path / "flag.cfg"
    flag.write_text("oracle=yes\nX=9\n")
    rc, out, _ = run(["power-lemma", "--config", str(flag)], capsys)
    assert rc == 0 and json.loads(out)["result"]["max_M"] == 4


def test_sweep_takes_its_target_verb_and_ranges_from_a_config(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("sweep_verb=snap\nmap=X^2\nalpha=2\nvary=n=1:2\nformat=csv\n")
    rc, out, _ = run(["sweep", "--config", str(cfg)], capsys)
    assert rc == 0 and [r["n"] for r in csv_rows(out)] == ["1", "2"]
    # command-line ranges add to the config's; a name is swept once
    rc, out, _ = run(["sweep", "--config", str(cfg), "--vary", "precision=64,96"], capsys)
    assert rc == 0 and len(csv_rows(out)) == 4
    rc, _, err = run(["sweep", "--config", str(cfg), "--vary", "n=3"], capsys)
    assert rc == 1 and "swept twice" in err


def test_canonical_height_reports_places(capsys):
    rc, out, err = run(["canonical-height", "--map", "X^2+1", "--alpha", "1/3",
                        "--eps", "1/100000"], capsys)
    assert rc == 0, err
    res = json.loads(out)["result"]
    places = res["places"]
    assert [(p["place"], p["escaped"]) for p in places] == [("inf", True), ("good", True)]
    assert places[0]["steps"] >= 1 and places[1]["steps"] == 0
    assert res["n_used"] == max(p["steps"] for p in places)
    # the good places sum to log 3, the denominator of alpha
    good = places[1]["enclosure"]
    assert abs(Fraction(good["mid"]) - Fraction("1.098612288668109691396")) <= Fraction(good["rad"])
    total = sum(Fraction(p["enclosure"]["mid"]) for p in places)
    radii = sum(Fraction(p["enclosure"]["rad"]) for p in places)
    canonical = res["canonical"]
    assert abs(total - Fraction(canonical["mid"])) <= radii + Fraction(canonical["rad"])
    assert Fraction(canonical["rad"]) <= Fraction(1, 100000)
    assert len(out) < 4300  # no orbit value is carried into the output


_GOOD = {"int": ["1", "2", "3", "0", "-1"], "rational": ["1/2", "1", "2", "3", "0", "-1/3"],
         "number": ["1/2", "2", "e", "e^-1"], "flag": ["1", "no"],
         "text": ["lambda", "delta", "square", "const", "degree_lower", "json", "csv",
                  "1,1;2,4", "1/2,3", "X^2-1"],
         # X^2+1/2 sends canonical-height through a prime of the coefficients
         "map": ["X^2", "X^3", "X", "2*X^2", "X^2+1", "X^2+1/2"]}
_JUNK = ["abc", "1/0", "", "-", "e^x", "--n"]
_FOREIGN = Param("prime", "int")  # declared by delta-v only


def _vary(draw, target: str) -> str:
    """A ``--vary`` spec over one of the target verb's int, rational or number
    params: an a:b range (int and number) or a comma list of good values.  A
    target without such params gets an undeclared name."""
    typed = [p for p in VERBS[target].params if p.kind in ("int", "rational", "number")]
    if not typed:
        return "nope=1"
    p = draw(st.sampled_from(typed))
    if p.kind != "rational" and draw(st.booleans()):
        a = draw(st.integers(0, 3))
        return f"{p.name}={a}:{a + draw(st.integers(-1, 1))}"
    return f"{p.name}=" + ",".join(draw(st.lists(st.sampled_from(_GOOD[p.kind]),
                                                  min_size=1, max_size=2)))


@st.composite
def _argv(draw):
    """A verb with its required options (and a sweep's ``--vary``), then
    random options, mostly the verb's own; any option may be dropped, and
    any value may be junk."""
    verb = draw(st.sampled_from(sorted(VERBS)))
    params = COMMON + VERBS[verb].params
    argv = [verb]
    if verb == "sweep":
        target = draw(st.sampled_from(sorted(VERBS)))
        argv += ["--verb", target]
        params += VERBS[target].params
    chosen = [p for p in params if p.required and p.name != "verb" or p.kind == "list"]
    chosen += draw(st.lists(st.sampled_from(params + (_FOREIGN,)), max_size=4))
    for p in chosen:
        if draw(st.integers(0, 19)) == 0:
            continue
        argv.append(f"--{p.name}")
        if p.kind != "flag" or draw(st.integers(0, 9)) == 0:
            good = ([_vary(draw, target)] if p.kind == "list"
                    else _GOOD["map" if p.name == "map" else p.kind])
            argv.append(draw(st.sampled_from(good + _JUNK if draw(st.integers(0, 9)) == 0
                                             else good)))
    return argv


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
def test_random_argv_never_raises(argv, capsys):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # --output junk lands here
        try:
            rc = main(argv)
        finally:
            os.chdir(cwd)
    assert rc in (0, 1, 2, 3)
    capsys.readouterr()


def _readme_cli_lines():
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("arithdyn ")]


def test_readme_cli_block_names_exactly_the_verbs():
    assert {argv[0] for argv in _readme_cli_lines()} == set(VERBS)


def _perfbench_jobs():
    """The benchmark's job argvs, as ``perfbench/run.py`` issues them."""
    spec = importlib.util.spec_from_file_location("perfbench_jobs", ROOT / "perfbench" / "jobs.py")
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    return {f"{name}-{i}": jobs.full_argv(argv)
            for name, argvs in jobs.WORKLOADS.items() for i, argv in enumerate(argvs)}


_PINNED = {**{argv[0]: argv for argv in _readme_cli_lines()}, **_perfbench_jobs()}


def _exit_and_digest(argv):
    """Exit code and sha256 of stdout of one run of ``main``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return [rc, hashlib.sha256(out.getvalue().encode()).hexdigest()]


@pytest.mark.parametrize("argv", list(_PINNED.values()), ids=list(_PINNED))
def test_readme_cli_lines_run(argv, capsys):
    """Every README CLI line and every benchmark job prints exactly the pinned
    stdout (by sha256) with the pinned exit code.  After an intended output
    change, regenerate the pins with
    ``PYTHONPATH=src python tests/test_cli_table.py > tests/cli_digests.json``."""
    rc, digest = _exit_and_digest(argv)
    err = capsys.readouterr().err
    assert rc == 0, err
    assert [rc, digest] == json.loads(DIGESTS.read_text())[shlex.join(argv)]


def test_readme_global_flags_are_the_common_options():
    text = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```")[0]
    assert set(re.findall(r"`--([a-z-]+)", text)) == {p.name for p in COMMON}


if __name__ == "__main__":
    pins = sorted((shlex.join(argv), _exit_and_digest(argv)) for argv in _PINNED.values())
    print("{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in pins) + "\n}")
