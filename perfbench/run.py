"""arithdyn benchmark: timed CLI workloads with checked outputs, plus a layer trace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tower --seed 1 --seconds 40 --trace 0

Workloads (job lists in ``jobs.py``): ``tower`` (snap: factorint),
``census`` (lambda/delta census: exactnum.ball, countkit.modular) and
``escape`` (canonical heights, Boettcher series, fstar).  The load is a closed
loop with one client: one fresh workload process runs the jobs one after
another through ``arithdyn.cli.main(argv)``, every job with ``--jobs 1`` and
``--seed 0``.  ``--seed`` sets the order in which the jobs are issued.

``--trace 0`` first times ``setup_s`` (several fresh processes that import
``arithdyn.cli`` and run one trivial verb; the median is reported), then runs
the job list pass after pass for about ``--seconds`` and reports the
end-to-end metrics named in ``BENCHMARK.json``.  Every end-to-end time is a
wall time scaled to a reference host speed by a probe timed between the jobs
(``hostspeed.py``), so that the host's drift between runs drops out; the
unscaled wall time is printed beside it.  ``--trace 1`` runs one plain
pass and one pass with the outside-in layer tracer (``tracer.py``) and
reports the per-layer metrics; the spans go to ``.perfbench/``.

Every job's output is checked after the timed passes (``checkers.py``), and
must be byte-identical across the passes of one invocation.  A job that
raises, exits non-zero or fails a check is a failed operation.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it give per-job status, every
metric with its unit, and the run record (seed, nproc, CPU, Python, mpmath
backend).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import REFERENCE_PROBE_S, probe, scale  # noqa: E402
from jobs import WORKLOADS, job_key  # noqa: E402

SETUP_RUNS = 21
TRIVIAL_JOB = ["escape-radius", "--map", "X^2+1"]
SETUP_SNIPPET = (
    "import contextlib, io, sys\n"
    "import arithdyn.cli as cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    f"    rc = cli.main({TRIVIAL_JOB!r})\n"
    "sys.exit(rc)\n"
)
# a run may overrun --seconds by at most one slow pass, or by the two passes of --trace 1
WORKER_MARGIN_S = 100


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def time_setup(runs: int) -> list[float]:
    """Scaled wall times of fresh processes that import arithdyn.cli and run a trivial verb."""
    times, probes = [], [probe()]
    for _ in range(runs):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=60)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up job failed (exit {proc.returncode}): {proc.stderr.strip()}")
        probes.append(probe())
    return scale(times, probes)


def run_worker(args, spans_path: Path) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spans", str(spans_path)]
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=args.seconds + WORKER_MARGIN_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"workload process failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def job_statuses(job_list, data, reference) -> list[tuple[bool, bool, str]]:
    """Per job: (failed, wrong, reason).  ``wrong`` marks an output that is incorrect."""
    from checkers import check_workload

    jobs = data["jobs"]
    completed = [j["error"] is None and j["rc"] == 0 for j in jobs]
    reasons = check_workload(job_list, [j["stdout"] if ok else None
                                        for j, ok in zip(jobs, completed)], reference)
    out = []
    for job, ok, reason, repeated in zip(jobs, completed, reasons, data["repeated"]):
        if not repeated:
            out.append((True, True, "output differs between passes"))
        elif not ok:
            why = job["error"] or f"exit code {job['rc']}: {job['stderr'].strip()[:200]}"
            out.append((True, False, why))
        elif reason is not None:
            out.append((True, True, reason))
        else:
            out.append((False, False, "ok"))
    return out


def end_to_end(data, setup_times) -> dict[str, float]:
    passes = data["pass_scaled"]
    per_job = [statistics.median(ts) for ts in zip(*passes)]
    return {
        "wall_s": statistics.median(sum(p) for p in passes),
        "job_s.p50": statistics.median(per_job),
        "job_s.max": max(per_job),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": data["peak_rss_mb"],
    }


def per_layer(data) -> dict[str, float]:
    untraced, traced = (sum(p) for p in data["pass_scaled"])
    return data["layers"] | {"trace.overhead_s": traced - untraced}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        if not (ROOT / "src" / "arithdyn" / "cli.py").is_file():
            raise BenchError(f"no arithdyn sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        job_list = WORKLOADS[args.workload]
        setup_times = [] if args.trace else time_setup(SETUP_RUNS)
        data = run_worker(args, out_dir / f"spans-{args.workload}-seed{args.seed}.tsv")
        statuses = job_statuses(job_list, data, reference)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    passes = len(data["pass_seconds"])
    n_failed = sum(failed for failed, _, _ in statuses)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={passes} jobs={len(job_list)}")
    for i, (argv_i, (failed, _, reason)) in enumerate(zip(job_list, statuses)):
        times = " ".join(f"{p[i]:.3f}" for p in data["pass_seconds"])
        print(f"  {'FAIL' if failed else 'ok  '} [{times}] s  {job_key(argv_i)}"
              + (f"  -- {reason}" if failed else ""))

    if args.trace:
        values, wanted = per_layer(data), spec["per_layer"]
    else:
        values, wanted = end_to_end(data, setup_times), spec["end_to_end"]
        print(f"  job_s.p50 and job_s.max are over {len(job_list)} jobs, each the median of "
              f"{passes} passes; setup_s is the median of {len(setup_times)} fresh processes")
        raw = statistics.median(sum(p) for p in data["pass_seconds"])
        probe_s = statistics.median(data["probe_s"])
        print(f"  times are scaled to a host where the probe takes {REFERENCE_PROBE_S} s; here it "
              f"took {probe_s:.4f} s (median), and the unscaled wall_s is {raw:.6g} s")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  fail_frac = {n_failed}/{len(job_list)} = {n_failed / len(job_list):.4f} ratio")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "passes": passes, "nproc": os.cpu_count(),
              "cpu": _cpu_model(), "python": platform.python_version(),
              "mpmath_backend": data["mpmath_backend"],
              "probe_s.p50": statistics.median(data["probe_s"])}
    print("run record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not any(wrong for _, wrong, _ in statuses),
        "attempted": passes * len(job_list),
        "failed": passes * n_failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
