"""The benchmark's workloads: fixed job lists run through ``arithdyn.cli.main``.

Every job gets ``--jobs 1`` and ``--seed 0``, the CLI default.  The job seed
drives Cantor-Zassenhaus splitting in ``tower``, and the cost of a snap job
depends on it heavily: ``snap X^2+1 --alpha 1 --n 7`` took 1.4 s at seed 101
and 4.5 s at seed 108, and the tower job list's time varied by a quarter of
its median across seeds 101-110.  A workload whose cost is a random draw
cannot be held to a regression bound, so the job seed is fixed; the
benchmark's own seed sets the order in which a run issues the jobs.
"""

from __future__ import annotations

JOB_SEED = 0

_TOWER = [("X^2+1", "1", 7), ("X^2+X", "1", 7), ("X^2-2", "3", 7), ("X^2", "2", 7),
          ("X^3+X+1", "1", 4), ("X^3-X", "2", 4)]

_HEIGHT_LADDER = [("X^2+1", "1/3", ("1/1000", "1/100000", "1/300000")),
                  ("X^3+X+1", "1/2", ("1/1000", "1/100000", "1/300000")),
                  ("X^2-1", "2/7", ("1/1000", "1/100000")),
                  ("X^2+1", "1", ("1/1000000",))]

WORKLOADS: dict[str, list[list[str]]] = {
    # factorint does nearly all the work (modp mul/divmod under Zassenhaus);
    # factor-rich power-map towers next to factor-poor ones, so lifting and
    # recombination changes both show.  The ball layer barely runs.
    "tower": [["snap", "--map", m, "--alpha", a, "--n", str(n)] for m, a, n in _TOWER],
    # exactnum.ball and countkit.modular do nearly all the work; two
    # precisions and two evaluators use the ball layer differently.
    # factorint and exactnum.series never run.
    "census": [
        ["census", "--function", "lambda", "--height", "10", "--precision", "128"],
        ["census", "--function", "lambda", "--height", "4", "--precision", "512"],
        ["census", "--function", "delta", "--height", "10", "--precision", "128"],
    ],
    # behaviour at infinity: orbit bignums (dynamics) next to the Boettcher
    # layer and exactnum.series; factorint never runs.
    "escape": [
        ["canonical-height", "--map", m, "--alpha", a, "--eps", eps]
        for m, a, ladder in _HEIGHT_LADDER for eps in ladder
    ] + [
        ["boettcher-series", "--map", "X^3+X+1", "--order", "24"],
        ["fstar", "--map", "X^2+1", "--alpha", "64", "--order", "32"],
        ["census", "--function", "fstar", "--map", "X^2+1", "--alpha", "64",
         "--height", "6", "--order", "16"],
    ],
}


def job_key(argv: list[str]) -> str:
    """Stable name of a job (its argv without seed and job count)."""
    return " ".join(argv)


def full_argv(argv: list[str]) -> list[str]:
    return [*argv, "--jobs", "1", "--seed", str(JOB_SEED)]


def option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]
