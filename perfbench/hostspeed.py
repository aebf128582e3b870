"""Host-speed probe: a fixed pure-Python workload timed next to every measurement.

On a shared host the speed of one core drifts by a quarter or more over a few
minutes, as other tenants come and go; the process's CPU time drifts with it,
so it cannot be left out by timing CPU instead of wall time.  The probe runs
the same kinds of work as arithdyn's kernels (small-int list convolution mod a
prime, big-int products, ``Fraction`` sums), touches no arithdyn code and keeps
nothing alive, so a change to the program cannot change its time.  The
benchmark times a probe before every job and after the last one, and scales
each job's wall time in that pass to a reference host speed:

    scaled = measured * REFERENCE_PROBE_S / median(the pass's probe times)

The median over a whole pass is used rather than the probes next to a job:
the drift to be removed is slow, while a single probe is as jittery as a job.

``REFERENCE_PROBE_S`` is about the probe's time on the 2-vCPU Xeon host
(CPython 3.11) the benchmark was tuned on, so scaled figures read as seconds
on that host.  Its value only sets the unit: two commits measured with the
same benchmark code share it.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_PROBE_S = 0.025

_P = 1000003
_A = [(i * 7919 + 3) % _P for i in range(48)]
_B = [(i * 104729 + 5) % _P for i in range(48)]
_BIG = 3 ** 9000 + 1
_MOD = 7 ** 6000 + 3


def _work() -> int:
    acc = 0
    for _ in range(20):
        c = [0] * 95
        for i, x in enumerate(_A):
            for j, y in enumerate(_B):
                c[i + j] = (c[i + j] + x * y) % _P
        acc ^= c[47]
    big = _BIG
    for _ in range(20):
        big = big * big % _MOD
    f = Fraction(1, 3)
    for k in range(1, 600):
        f += Fraction(k, k * k + 1)
    return acc ^ (big & 0xFFFF) ^ (f.denominator & 0xFFFF)


def probe() -> float:
    """Wall time of one probe, with the cyclic collector held off so heap size does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _work()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(seconds: list[float], probes: list[float]) -> list[float]:
    """Wall times measured among ``probes``, at the reference host speed."""
    factor = REFERENCE_PROBE_S / statistics.median(probes)
    return [t * factor for t in seconds]
