"""Workload process: runs one workload's job list in process, pass after pass.

Started by ``run.py`` in a fresh interpreter with ``src`` on ``sys.path``.
Each job is one ``arithdyn.cli.main(argv)`` call with its standard output
captured; a raised exception or a non-zero exit code is a failed job.  With
``--trace 1`` it runs one plain pass, then one pass with the layer tracer
installed, and writes the spans to ``--spans``.  The last line
of its standard output is one JSON object with the raw and the host-speed
scaled timings (``hostspeed.py``), each job's output from the first pass and
whether later passes repeated it byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hostspeed import probe, scale  # noqa: E402
from jobs import WORKLOADS, full_argv  # noqa: E402


def run_job(cli, argv: list[str]) -> dict:
    """Run one CLI job; the timed region is the ``main`` call alone."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        error = None
    except Exception as exc:  # a traceback from main is a failed job, not a crash here
        rc, error = None, traceback.format_exception_only(type(exc), exc)[-1].strip()
    seconds = perf_counter() - t0
    return {"seconds": seconds, "rc": rc, "error": error,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_pass(cli, job_list: list[list[str]], order: list[int]) -> tuple[list[dict], list[float]]:
    """Run the jobs in the given order, a host-speed probe before each and after the last.

    Each job's ``scaled`` time is its wall time at the reference host speed,
    from the median probe time of the pass (``hostspeed.py``).  Returns the
    results in job-list order and the pass's probe times.
    """
    probes = [probe()]
    results = {}
    for i in order:
        results[i] = run_job(cli, full_argv(job_list[i]))
        probes.append(probe())
    jobs = [results[i] for i in range(len(job_list))]
    for job, scaled in zip(jobs, scale([j["seconds"] for j in jobs], probes)):
        job["scaled"] = scaled
    return jobs, probes


def _output(job: dict) -> tuple:
    return job["rc"], job["error"], job["stdout"], job["stderr"]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", required=True, help="where a traced run writes its spans")
    args = ap.parse_args()

    import arithdyn.cli as cli
    import mpmath

    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"arithdyn was imported from {cli.__file__}, not from {src}")

    job_list = WORKLOADS[args.workload]
    order = list(range(len(job_list)))
    random.Random(args.seed).shuffle(order)
    passes: list[list[dict]] = []
    probes: list[float] = []
    layers = None
    if args.trace:
        from tracer import Tracer

        jobs, probes = run_pass(cli, job_list, order)
        passes.append(jobs)
        tracer = Tracer()
        try:
            tracer.install()
            passes.append(run_pass(cli, job_list, order)[0])
        finally:
            tracer.uninstall()
        tracer.write_spans(args.spans)
        layers = tracer.layer_metrics()
    else:
        start = perf_counter()
        while True:
            jobs, pass_probes = run_pass(cli, job_list, order)
            passes.append(jobs)
            probes += pass_probes
            elapsed = perf_counter() - start
            longest = max(sum(j["seconds"] for j in p) for p in passes) + sum(pass_probes)
            if elapsed + longest > args.seconds:
                break

    first = passes[0]
    result = {
        "pass_seconds": [[j["seconds"] for j in p] for p in passes],
        "pass_scaled": [[j["scaled"] for j in p] for p in passes],
        "probe_s": probes,
        "jobs": [{k: first[i][k] for k in ("rc", "error", "stdout", "stderr")}
                 for i in range(len(job_list))],
        "repeated": [all(_output(p[i]) == _output(first[i]) for p in passes)
                     for i in range(len(job_list))],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": layers,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
