import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from arithdyn import __version__
from arithdyn.cli import COMMON, VERBS, main, parse_number
from arithdyn.exactnum import RealBall, ball_e

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_cli(args, capsys):
    rc = main(args)
    out = capsys.readouterr().out
    return rc, out


def test_snap_csv(capsys):
    rc, out = run_cli(["snap", "--map", "X^2", "--alpha", "2", "--n", "3",
                       "--format", "csv"], capsys)
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# jobspec:")
    header = lines[1].split(",")
    row = dict(zip(header, lines[2].split(",")))
    assert row["r"] == "4" and row["max_degree"] == "4" and row["D"] == "2"


def test_snap_json_multiset(capsys):
    rc, out = run_cli(["snap", "--map", "X^2", "--alpha", "2", "--n", "3"], capsys)
    doc = json.loads(out)
    assert doc["result"]["multiset"] == [1, 1, 2, 2, 4, 4, 4, 4]
    assert doc["artifact_version"]
    assert doc["jobspec"]["verb"] == "snap"


def test_cyclotomic_degree(capsys):
    rc, out = run_cli(["cyclotomic-degree", "--p", "2", "--b", "8"], capsys)
    assert rc == 0
    assert json.loads(out)["result"]["degree"] == 4


def test_power_lemma_oracle(capsys):
    rc, out = run_cli(["power-lemma", "--theta", "2", "--c", "1", "--oracle",
                       "--X", "9"], capsys)
    assert rc == 0
    assert json.loads(out)["result"]["max_M"] == 4


@pytest.mark.parametrize("c", ["0", "-1"])
def test_power_lemma_oracle_needs_a_positive_c(c, capsys):
    assert main(["power-lemma", "--oracle", "--X", "5", "--c", c]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("domain error: ") and "Traceback" not in err


def test_sweep_r_column(capsys):
    rc, out = run_cli(["sweep", "--verb", "snap", "--map", "X^2", "--alpha", "2",
                       "--vary", "n=1:6", "--format", "csv"], capsys)
    assert rc == 0
    lines = out.strip().splitlines()
    header = lines[1].split(",")
    r_idx = header.index("r")
    rs = [line.split(",")[r_idx] for line in lines[2:]]
    assert rs == ["2", "3", "4", "5", "6", "7"]


def test_sweep_delta_v(capsys):
    rc, out = run_cli(["sweep", "--verb", "delta-v", "--map", "X^2+1",
                       "--vary", "prime=2,3,5", "--format", "csv"], capsys)
    lines = out.strip().splitlines()
    header = lines[1].split(",")
    e_idx = header.index("exact")
    assert [line.split(",")[e_idx] for line in lines[2:]] == ["4/1", "1/1", "1/1"]


def test_sweep_empty_range_header_only(capsys):
    rc, out = run_cli(["sweep", "--verb", "snap", "--map", "X^2", "--alpha", "2",
                       "--vary", "n=5:4", "--format", "csv"], capsys)
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# jobspec:")
    assert len(lines) <= 2  # no data rows


def test_determinism_byte_identical(capsys):
    args = ["canonical-height", "--map", "X^2+1", "--alpha", "1", "--eps", "1/1000"]
    _, out1 = run_cli(args, capsys)
    _, out2 = run_cli(args, capsys)
    assert out1 == out2
    args_csv = ["census", "--function", "square", "--height", "4", "--format", "csv"]
    _, c1 = run_cli(args_csv, capsys)
    _, c2 = run_cli(args_csv, capsys)
    assert c1 == c2


def test_exit_codes(capsys):
    assert main(["no-such-verb"]) == 1
    assert main([]) == 1
    assert main(["snap", "--map", "X^2", "--alpha", "2"]) == 1  # missing --n
    # domain error: non-monic map
    assert main(["snap", "--map", "2*X^2", "--alpha", "2", "--n", "1"]) == 2
    # domain error: a dangling or doubled "+" in a polynomial
    for poly in ("X^2+", "X^2++X"):
        assert main(["factor", "--poly", poly]) == 2
    # resource guard: degree cap
    assert main(["iterate", "--map", "X^2", "--n", "13"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["census", "--function", "lambda", "--height", "3", "--precision", "0"],
    ["census", "--function", "lambda", "--height", "3", "--precision", "-5"],
    ["canonical-height", "--map", "X^2+1", "--alpha", "1/3", "--precision", "0"],
    ["canonical-height", "--map", "X^2+1", "--alpha", "1/3", "--precision", "-5"],
    ["sweep", "--verb", "canonical-height", "--map", "X^2+1", "--alpha", "1/3",
     "--vary", "precision=0:1"],
])
def test_nonpositive_precision_is_a_domain_error(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("domain error: --precision must be positive")


_HUGE_N = "100000000000000000000"


@pytest.mark.parametrize("argv", [
    ["snap", "--map", "X^2+1", "--alpha", "1", "--n", _HUGE_N],
    ["irreducible-count", "--map", "X^2+1", "--alpha", "1", "--n", _HUGE_N],
    ["iterate", "--map", "X^2+1", "--n", _HUGE_N],
    ["proportion", "--map", "X^2+1", "--alpha", "1", "--n", _HUGE_N, "--delta", "1/2"],
    ["padic-bound", "--map", "X^2+1", "--alpha", "1/3", "--n", _HUGE_N],
    # D^n would print with more than Python's 4300-digit int-to-str limit
    ["padic-bound", "--map", "X^2+1", "--alpha", "1/3", "--n", "20000"],
])
def test_a_huge_n_trips_the_resource_guard_at_once(argv, capsys):
    t0 = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - t0 < 1
    assert capsys.readouterr().err.startswith("resource guard: ")


_C = str(10 ** 300 + 7)  # P^5 of X^2 + C has coefficients of about 4,800 digits
_LONG = "7" * 4400
_TOO_LONG = "7" * 100_001


@pytest.mark.parametrize("argv", [
    ["iterate", "--map", f"X^2+{_C}", "--n", "5"],
    ["snap", "--map", f"X^2+{_C}", "--alpha", "1", "--n", "5"],
    ["factor", "--poly", f"X^2+{_LONG}"],
    ["height", "--rational", f"1/{_LONG}"],
])
def test_integers_past_pythons_4300_digits_are_read_and_printed(argv, capsys):
    limit = sys.get_int_max_str_digits()
    rc, out = run_cli(argv, capsys)
    assert rc == 0
    assert sys.get_int_max_str_digits() == limit
    longest = max(len(s) for s in json.dumps(json.loads(out)["result"]).split('"'))
    assert longest > 4400


@pytest.mark.parametrize("argv", [
    ["factor", "--poly", f"X^2+{_TOO_LONG}"],
    ["height", "--rational", _TOO_LONG],
    ["iterate", "--map", f"X^2+{_TOO_LONG}", "--n", "1"],
    ["snap", "--map", "X^2+1", "--alpha", f"1/{_TOO_LONG}", "--n", "1"],
    ["sweep", "--verb", "snap", "--map", "X^2+1", "--n", "1", "--vary", f"alpha={_TOO_LONG}"],
    # read in, but P^3 has a coefficient of about 120,000 digits
    ["iterate", "--map", f"X^2+{'7' * 30000}", "--n", "3"],
])
def test_integers_past_the_digit_guard_trip_it(argv, capsys):
    t0 = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - t0 < 2
    assert capsys.readouterr().err.startswith("resource guard: ")


def test_an_integer_option_past_the_digit_guard_is_malformed(capsys):
    assert main(["order", "--a", _TOO_LONG, "--n", "7"]) == 1
    assert capsys.readouterr().err.startswith("usage error: ")


def test_a_tiny_delta_forms_no_huge_power(capsys):
    # delta = p/q compares d^q with (D^n)^p; q = 10^10 would need gigabytes
    t0 = time.perf_counter()
    rc, out = run_cli(["proportion", "--map", "X^2", "--alpha", "2", "--n", "3",
                       "--delta", "1/10000000000"], capsys)
    assert rc == 0 and time.perf_counter() - t0 < 1
    assert json.loads(out)["result"]["proportion"] == "1/4"  # the two roots of degree 1


@pytest.mark.parametrize("argv", [
    ["snap", "--map", "X^2+1", "--alpha", "1/0", "--n", "2"],
    ["snap", "--map", "X^2+1", "--alpha", "abc", "--n", "2"],
    ["height", "--rational", "1/0"],
    ["height", "--rational", "1/x"],
])
def test_malformed_rationals_are_usage_errors(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("usage error: ")


@pytest.mark.parametrize("argv", [
    ["vanish", "--points", "1,1;1", "--t-max", "2"],
    ["vanish", "--points", "1,1;x,2", "--t-max", "2"],
    ["sweep", "--verb", "snap", "--map", "X^2+1", "--alpha", "1", "--vary", "n=a:b"],
    ["sweep", "--verb", "snap", "--map", "X^2+1", "--alpha", "1", "--vary", "n=1:3:0"],
])
def test_malformed_points_and_ranges_are_usage_errors(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("usage error: ")


def test_sweep_passes_the_verbs_own_defaults(capsys):
    rc, out = run_cli(["sweep", "--verb", "masser-t", "--AZ", "2", "--vary", "d=1,2",
                       "--format", "csv"], capsys)
    assert rc == 0
    swept = [line.split(",", 1)[1] for line in out.strip().splitlines()[2:]]
    direct = []
    for d in ("1", "2"):
        rc, out = run_cli(["masser-t", "--AZ", "2", "--d", d, "--format", "csv"], capsys)
        assert rc == 0
        direct.append(out.strip().splitlines()[2])
    assert swept == direct


@pytest.mark.parametrize("argv", [
    ["census", "--function", "lambda", "--height", "6", "--format", "csv"],
    ["sweep", "--verb", "snap", "--map", "X^2", "--alpha", "2", "--vary", "n=1:4",
     "--format", "csv"],
])
def test_two_workers_print_what_one_does(argv, capsys, monkeypatch):
    import concurrent.futures

    pools = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    outs = []
    for jobs in ("1", "2"):
        rc, out = run_cli(argv + ["--jobs", jobs], capsys)
        assert rc == 0
        outs.append(out.splitlines())
    assert pools == [2]
    assert outs[0][0].startswith("# jobspec:") and len(outs[0]) > 3
    assert outs[0][1:] == outs[1][1:]


@pytest.mark.parametrize("cpus, sizes", [(4, [4, 3]), (None, [])])
def test_the_pool_has_at_most_one_worker_per_payload_and_cpu(cpus, sizes, capsys, monkeypatch):
    # a stand-in pool that runs inline: the test starts no process
    import concurrent.futures
    import os

    pools = []

    class Pool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    for argv in (["census", "--function", "square", "--height", "10"],
                 ["sweep", "--verb", "factor", "--vary", "poly=X^2-1,X^3-8,X^4+4"]):
        outs = [run_cli(argv + ["--format", "csv", "--jobs", jobs], capsys)
                for jobs in ("1", "100000")]
        assert outs[0][0] == outs[1][0] == 0
        assert outs[0][1].splitlines()[1:] == outs[1][1].splitlines()[1:]
    assert pools == sizes


@pytest.mark.parametrize("argv", [
    ["power-lemma", "--M", "1000000000"],
    ["boettcher-series", "--map", "X^2+1", "--order", "100000"],
    ["fstar", "--map", "X^2+1", "--alpha", "64", "--order", "257"],
], ids=["power-lemma", "boettcher-series", "fstar"])
def test_unbounded_sizes_are_resource_guard_trips(argv, capsys):
    t0 = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - t0 < 1
    assert "resource guard" in capsys.readouterr().err


def test_weil_height_with_a_large_prime_denominator(capsys):
    rc, out = run_cli(["weil-height", "--tuple", "1/2305843009213693951"], capsys)
    assert rc == 0
    assert json.loads(out)["result"]["exact"] == "2305843009213693951/1"


def test_delta_v_rejects_a_composite_prime(capsys):
    assert main(["delta-v", "--map", "X^2+1", "--prime", "4"]) == 2
    assert capsys.readouterr().err.startswith("domain error: ")


def test_census_verdicts_csv(capsys):
    rc, out = run_cli(["census", "--function", "square", "--height", "4",
                       "--format", "csv"], capsys)
    lines = out.strip().splitlines()
    header = lines[1].split(",")
    v_idx = header.index("verdict")
    verdicts = [line.split(",")[v_idx] for line in lines[2:]]
    assert verdicts.count("candidate-rational") == 1
    assert len(verdicts) == 5


def test_factor_json(capsys):
    rc, out = run_cli(["factor", "--poly", "X^8-256"], capsys)
    doc = json.loads(out)["result"]
    assert doc["content"] == 1
    degs = sorted(len(f["coeffs"]) - 1 for f in doc["factors"])
    assert degs == [1, 1, 2, 4]


def test_height_verbs(capsys):
    rc, out = run_cli(["height", "--rational", "7/3"], capsys)
    assert json.loads(out)["result"]["exact"] == "7/1"
    rc, out = run_cli(["height", "--min-poly", "X^2-2"], capsys)
    res = json.loads(out)["result"]
    assert res["height_mult"]["mid"].startswith("1.4142135")
    rc, out = run_cli(["weil-height", "--tuple", "1/2,3"], capsys)
    assert json.loads(out)["result"]["exact"] == "6/1"


def test_boettcher_series_verb(capsys):
    rc, out = run_cli(["boettcher-series", "--map", "X^2+1", "--order", "4"], capsys)
    res = json.loads(out)["result"]
    assert res["coefficients"]["b1"] == "1/2"
    assert res["coefficients"]["b3"] == "1/8"


def test_masser_verb_with_e(capsys):
    rc, out = run_cli(["masser-t", "--AZ", "2", "--M", "1", "--H", "e", "--d", "2"], capsys)
    res = json.loads(out)["result"]
    assert 100 < float(res["T_decimal"]["mid"]) < 1000


def test_fstar_verb(capsys):
    rc, out = run_cli(["fstar", "--map", "X^2", "--alpha", "4",
                       "--tau-im", "1/24", "--order", "8"], capsys)
    assert rc == 0
    res = json.loads(out)["result"]
    assert res["value"]["mid"].startswith("0.25")
    assert res["distortion"] == "0/1"


def test_bound_shape_verb(capsys):
    rc, out = run_cli(["bound-shape", "--tag", "degree_lower", "--D", "2",
                       "--n", "8", "--eps", "1/8"], capsys)
    res = json.loads(out)["result"]
    assert res["value"]["mid"].startswith("2.0000")


def test_config_merge(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("map=X^2\nalpha=2\nn=3\nformat=csv\n# comment\n")
    rc, out = run_cli(["snap", "--config", str(cfg)], capsys)
    assert rc == 0
    assert out.splitlines()[0].startswith("# jobspec:")
    # explicit flag wins over config
    rc, out2 = run_cli(["snap", "--config", str(cfg), "--n", "2", "--format", "json"], capsys)
    doc = json.loads(out2)
    assert doc["result"]["n"] == 2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    rc = main(["cover", "--R", "2", "--r", "1", "--output", str(target)])
    assert rc == 0
    doc = json.loads(target.read_text())
    assert doc["result"]["count"] <= 23
    capsys.readouterr()


def test_console_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "arithdyn.cli", "order", "--a", "2", "--n", "5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["order"] == 4


def test_importing_the_cli_leaves_the_process_pool_out():
    # only --jobs > 1 needs concurrent.futures; every other run skips its import
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, arithdyn.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _loaded_after(argv: list[str]) -> list[list[str]]:
    """The arithdyn modules a fresh process has loaded after one CLI run, and
    which of mpmath, argparse and dataclasses it has loaded."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import contextlib, io, json, sys, arithdyn.cli as c\n"
         "with contextlib.redirect_stdout(io.StringIO()):\n"
         f"    assert c.main({argv!r}) == 0\n"
         "print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] == 'arithdyn'),\n"
         "                  sorted({'mpmath', 'argparse', 'dataclasses'} & set(sys.modules))]))\n"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_a_cli_run_imports_neither_mpmath_nor_argparse():
    # mpmath is imported on first use of a transcendental kernel or of root
    # polishing; the option parser is the CLI's own; and a verb loads only the
    # modules it runs
    modules, others = _loaded_after(["escape-radius", "--map", "X^2+1"])
    assert modules == ["arithdyn", "arithdyn.cli", "arithdyn.errors", "arithdyn.exactnum",
                       "arithdyn.exactnum.ball", "arithdyn.exactnum.poly", "arithdyn.polymap"]
    assert others == []
    modules, others = _loaded_after(["census", "--function", "lambda", "--height", "3"])
    assert [m for m in modules if m.startswith("arithdyn.countkit.")] == [
        "arithdyn.countkit.census", "arithdyn.countkit.modular"]
    assert "arithdyn.boettcher" not in modules and "arithdyn.exactnum.series" not in modules
    assert others == ["mpmath"]
    # the height of a rational point is read off its numerator and denominator
    _, others = _loaded_after(["bounded-region", "--map", "X^2+1", "--alpha", "5/3"])
    assert others == []
    # the orbit of a canonical height factors nothing and isolates no roots
    modules, _ = _loaded_after(["canonical-height", "--map", "X^2-2", "--alpha", "1/3"])
    assert "arithdyn.dynamics" in modules
    assert not [m for m in modules if m.startswith("arithdyn.factorint")]
    assert "arithdyn.heights" not in modules and "arithdyn.exactnum.roots" not in modules
    # factoring loads Zassenhaus, not the Capelli chains that only snap runs
    for argv in (["factor", "--poly", "X^4-1"], ["height", "--min-poly", "X^2-2"]):
        modules, _ = _loaded_after(argv)
        assert "arithdyn.factorint.zassenhaus" in modules, argv
        assert "arithdyn.factorint.capelli" not in modules, argv


@pytest.mark.parametrize("args, option, value", [
    (["snap", "--map", "X^2-1", "--n", "2"], "--alpha", "-1/2"),
    (["height"], "--rational", "-3/4"),
    (["factor"], "--poly", "-X^2+4"),
    (["order", "--n", "7"], "--a", "-3"),
])
def test_a_value_may_begin_with_a_minus_sign(args, option, value, capsys):
    rc, spaced = run_cli([*args, option, value], capsys)
    assert rc == 0
    rc, joined = run_cli([*args, f"{option}={value}"], capsys)
    assert rc == 0 and spaced == joined


def test_option_names_are_written_in_full(tmp_path, capsys):
    cfg = tmp_path / "eps.cfg"
    cfg.write_text("eps=1/10\n")
    base = ["canonical-height", "--map", "X^2+1", "--alpha", "1"]
    for short in (["--conf", str(cfg)], ["--prec", "64"]):
        assert main(base + short) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and short[0] in err
    rc, out = run_cli(base + ["--config", str(cfg)], capsys)
    assert rc == 0 and json.loads(out)["jobspec"]["eps"] == "1/10"


def test_help_and_version_are_read_off_the_verb_table(capsys):
    rc, out = run_cli(["--version"], capsys)
    assert rc == 0 and out == __version__ + "\n"
    for flag in ("--help", "-h"):
        rc, out = run_cli([flag], capsys)
        assert rc == 0 and all(f"  {v} " in out for v in VERBS)
        for verb in VERBS.values():
            rc, out = run_cli([verb.name, "--map", "X^2", flag], capsys)
            assert rc == 0 and out.startswith(f"usage: arithdyn {verb.name} ")
            assert all(f"  --{p.name} " in out for p in COMMON + verb.params)


def test_a_flag_takes_no_value(capsys):
    rc, out = run_cli(["power-lemma", "--oracle", "--X", "9"], capsys)
    assert rc == 0 and json.loads(out)["result"]["max_M"] == 4
    assert main(["power-lemma", "--oracle", "yes", "--X", "9"]) == 1
    assert main(["power-lemma", "--oracle=yes", "--X", "9"]) == 1
    assert main(["snap", "--map", "X^2", "--alpha", "2", "--n"]) == 1
    assert "'--n' needs a value" in capsys.readouterr().err


_JUNK = "x" * 200_000


@pytest.mark.parametrize("argv", [
    ["order", "--a", _TOO_LONG, "--n", "7"],
    ["height", "--rational", _JUNK],
    ["masser-t", "--AZ", "2", "--d", "2", "--H", "e^" + _JUNK],
    [_JUNK],
    ["height", _JUNK],
    ["height", f"--{_JUNK}", "1"],
    ["cover", "--R", "2", "--r", "1", "--format", _JUNK],
    ["census", "--function", _JUNK, "--height", "3"],
    ["vanish", "--points", _JUNK, "--t-max", "2"],
    ["sweep", "--verb", _JUNK],
    ["sweep", "--verb", "snap", "--map", "X^2", "--alpha", "2", "--vary", _JUNK],
    ["sweep", "--verb", "snap", "--map", "X^2", "--alpha", "2", "--vary", f"n=1:{_JUNK}"],
    ["sweep", "--verb", "snap", "--map", "X^2", "--alpha", "2", "--vary", f"{_JUNK}=1"],
])
def test_usage_errors_echo_a_long_value_cut_short(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and len(err) < 300


@pytest.mark.parametrize("vary", [
    ["n=1:1000000000000"],
    ["n=1000000000000:1:-1"],
    ["n=1:100000000000000000000000000000"],  # past sys.maxsize, which len() refuses
    ["n=1:1000", "precision=1:1000"],
])
def test_sweep_checks_the_job_cap_before_building_any_range(vary, capsys):
    argv = ["sweep", "--verb", "snap", "--map", "X^2", "--alpha", "2"]
    t0 = time.perf_counter()
    assert main(argv + [x for v in vary for x in ("--vary", v)]) == 3
    assert time.perf_counter() - t0 < 1
    assert "exceeds cap 10000" in capsys.readouterr().err


@pytest.mark.parametrize("vary, jobs", [("n=1:4:2", 2), ("n=1:5:2", 3), ("n=4:1:-1", 4),
                                        ("n=4:3:-1", 2), ("n=2,3,", 2), ("n=1,2,3", 3),
                                        ("n=3:2", 0)])
def test_sweep_counts_its_jobs_exactly(vary, jobs, capsys):
    argv = ["sweep", "--verb", "snap", "--map", "X^2", "--alpha", "2", "--vary", vary]
    rc, out = run_cli(argv + ["--job-cap", "2"], capsys)
    assert rc == (0 if jobs <= 2 else 3)
    if rc == 0:
        assert json.loads(out)["result"]["jobs"] == jobs
    capsys.readouterr()


def test_a_descending_sweep_range_includes_its_end(capsys):
    argv = ["sweep", "--verb", "snap", "--map", "X^2", "--alpha", "2", "--vary", "n=5:1:-1"]
    rc, out = run_cli(argv + ["--format", "csv"], capsys)
    assert rc == 0
    assert [row.split(",")[0] for row in out.strip().splitlines()[2:]] == ["5", "4", "3", "2", "1"]
    assert main(argv + ["--job-cap", "4"]) == 3
    assert "sweep of 5 jobs exceeds cap 4" in capsys.readouterr().err


def test_a_cover_past_the_grid_guard_exits_3_at_once(capsys):
    t0 = time.perf_counter()
    assert main(["cover", "--R", "1000000", "--r", "1/1000000"]) == 3
    assert time.perf_counter() - t0 < 1
    assert "resource guard" in capsys.readouterr().err


def test_a_census_past_the_pair_guard_exits_3_at_once(capsys):
    t0 = time.perf_counter()
    assert main(["census", "--function", "square", "--height", "100000"]) == 3
    assert time.perf_counter() - t0 < 1
    assert "resource guard" in capsys.readouterr().err


def test_vanish_text_renders_the_terms(capsys):
    rc, out = run_cli(["vanish", "--t-max", "1"], capsys)
    assert rc == 0 and json.loads(out)["result"]["text"] == "1"
    rc, out = run_cli(["vanish", "--points", "1,1;2,4;3,9", "--t-max", "2"], capsys)
    assert json.loads(out)["result"]["text"] == "-36 - 25*Y + 60*X + 1*Y^2"


def test_an_fstar_past_the_tau_guard_exits_3_at_once(capsys):
    # unguarded, Im tau = 10^5 ran for minutes before failing to print
    t0 = time.perf_counter()
    assert main(["fstar", "--map", "X^2+1", "--alpha", "64", "--tau-im", "100000"]) == 3
    assert time.perf_counter() - t0 < 1
    assert "Im tau above" in capsys.readouterr().err


def test_padic_bound_checks_against_snap_only_within_the_degree_cap(capsys):
    argv = ["padic-bound", "--map", "X^2", "--alpha", "1/8", "--n", "3"]
    rc, out = run_cli(argv, capsys)
    checked = json.loads(out)["result"]
    rc_capped, out = run_cli(argv + ["--degree-cap", "4"], capsys)
    capped = json.loads(out)["result"]
    assert rc == rc_capped == 0
    assert checked["snap_max_degree"] == 4 and capped["snap_max_degree"] is None
    assert capped | {"snap_max_degree": 4} == checked
    assert main(argv + ["--no-cross-check"]) == 1


def test_census_refuses_negative_escalations(capsys):
    argv = ["census", "--function", "lambda", "--height", "3", "--escalations"]
    assert main(argv + ["-1"]) == 2
    assert "escalations must be >= 0" in capsys.readouterr().err
    rc, out = run_cli(argv + ["0"], capsys)
    assert rc == 0
    assert [r["verdict"] for r in json.loads(out)["result"]["records"]] == [
        "certified-no-rational"] * 3


def test_large_e_power_is_a_resource_guard_trip(capsys):
    t0 = time.perf_counter()
    rc = main(["masser-t", "--AZ", "2", "--d", "2", "--H", "e^3000"])
    assert rc == 3
    assert time.perf_counter() - t0 < 1.0
    assert "resource guard" in capsys.readouterr().err


def test_e_powers_equal_the_repeated_product():
    e = ball_e(192)
    out = RealBall.exact(1)
    for k in range(1, 61):
        out = out * e
        for sign, expected in ((1, out), (-1, out.inverse())):
            got = parse_number(f"e^{sign * k}")
            assert (got.mid, got.rad) == (expected.mid, expected.rad), sign * k


@pytest.mark.parametrize("verb, config, header", [
    ("sweep", "snap_x2.cfg", "n,alpha,D,r,r_with_multiplicity,max_degree,proportion,"
                             "bound_shape_value,squarefree"),
    ("census", "lambda_census.cfg", "q,mid,rad,verdict,candidate"),
], ids=["snap_x2.cfg", "lambda_census.cfg"])
def test_scripts_run_their_shipped_configs(verb, config, header, tmp_path):
    cfg = SCRIPTS / "configs" / config
    assert f"# run: arithdyn {verb} --config scripts/configs/{config}" in cfg.read_text()
    out = tmp_path / "out.csv"
    assert main([verb, "--config", str(cfg), "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# jobspec:")
    assert lines[1] == header
    assert len(lines) > 2
