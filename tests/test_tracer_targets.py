"""The benchmark's layer tracer still finds every layer it times.

``perfbench/tracer.py`` patches its targets by name from outside, so a
renamed or moved function would silently drop a layer from the per-layer
metrics.  This installs and uninstalls the tracer against the current
source and checks that every target resolves, is wrapped while installed,
records spans when the layer runs, and is restored afterwards.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracer import TARGETS, Tracer  # noqa: E402

from arithdyn import cli  # noqa: E402


def _owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _targets():
    return [(name, _owner(owner), attr) for name, owner, attrs, _, _ in TARGETS for attr in attrs]


def test_every_traced_name_resolves_and_is_restored():
    originals = {(name, attr): getattr(obj, attr) for name, obj, attr in _targets()}
    assert all(callable(fn) for fn in originals.values())
    tracer = Tracer()
    tracer.install()
    try:
        for name, obj, attr in _targets():
            assert getattr(obj, attr).__wrapped__ is originals[name, attr], name
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["fstar", "--map", "X^2+1", "--alpha", "64", "--order", "6"]) == 0
            assert cli.main(["snap", "--map", "X^3+1/2", "--alpha", "1", "--n", "2"]) == 0
        stats = tracer.span_stats()
    finally:
        tracer.uninstall()
    for name, obj, attr in _targets():
        assert getattr(obj, attr) is originals[name, attr], name
    ran = {name for name, st in stats.items() if st["calls"]}
    assert {"cli.main", "boettcher.boettcher_series", "exactnum.series_compose_poly",
            "exactnum.series_power", "exactnum.series_inverse", "exactnum.RatPoly.compose",
            "factorint.modp.mul"} <= ran
