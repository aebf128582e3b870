"""Outside-in layer tracer: wraps arithdyn's public functions at run time.

Nothing in ``src/`` is edited.  ``Tracer.install`` replaces each target
function in every ``arithdyn.*`` module namespace that binds it (several
modules import kernels by name) and each target method on its class,
including aliases such as ``__rmul__ = __mul__``.  ``uninstall`` restores
the originals.

Each call records a span (name, start, end, parent) in flat arrays kept in
memory; ``write_spans`` dumps them when the run ends.  ``span_stats`` turns
them into per-name call counts, inclusive time (outermost call of a
recursion only) and self time (inclusive time minus the time covered by
wrapped children).
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
from array import array
from fractions import Fraction
from time import perf_counter


def _exact_parts(x) -> list:
    """The exact numbers a value is made of: itself, or a ball's mid(s) and radius."""
    if isinstance(x, (int, Fraction)):
        return [x]
    return [getattr(x, slot) for slot in x.__slots__]


def _bits(q) -> int:
    q = Fraction(q)
    return q.numerator.bit_length() + q.denominator.bit_length()


def _count_mul_ops(tracer, args, kwargs):
    f, g = args[0], args[1]
    tracer.counters["factorint.modp.mul.ops"] += len(f) * len(g)
    return args, kwargs


def _count_divmod_ops(tracer, args, kwargs):
    f, g = args[0], args[1]
    tracer.counters["factorint.modp.divmod_general.ops"] += max(0, len(f) - len(g) + 1) * len(g)
    return args, kwargs


def _count_operand_bits(tracer, args, kwargs):
    for x in args[:2]:
        parts = _exact_parts(x)
        tracer.counters["exactnum.ComplexBall.mul.operand_bits_sum"] += sum(map(_bits, parts))
        tracer.counters["exactnum.ComplexBall.mul.operand_parts"] += len(parts)
    return args, kwargs


def _count_evaluations(tracer, args, kwargs):
    """Wrap the census evaluator so that every evaluation is counted."""
    evaluator, qs, *rest = args
    qs = list(qs)
    tracer.counters["countkit.points"] += len(qs)

    def counted(q, prec):
        tracer.counters["countkit.evaluations"] += 1
        return evaluator(q, prec)

    return (counted, qs, *rest), kwargs


def _orbit_bits(tracer, result):
    if isinstance(result, (int, Fraction)):
        bits = _bits(result)
        if bits > tracer.counters["dynamics.orbit_bits.max"]:
            tracer.counters["dynamics.orbit_bits.max"] = bits


COUNTERS = ("factorint.modp.mul.ops", "factorint.modp.divmod_general.ops",
            "exactnum.ComplexBall.mul.operand_bits_sum", "exactnum.ComplexBall.mul.operand_parts",
            "countkit.points", "countkit.evaluations", "dynamics.orbit_bits.max")

# (span name, "module" or "module:Class", attributes, pre hook, post hook)
TARGETS = [
    ("cli.main", "arithdyn.cli", ["main"], None, None),
    ("polymap.iterate_poly", "arithdyn.polymap:PolyMap", ["iterate_poly"], None, None),
    ("factorint.factor_over_Z", "arithdyn.factorint.zassenhaus", ["factor_over_Z"], None, None),
    ("factorint.modp.mul", "arithdyn.factorint.modp", ["mul"], _count_mul_ops, None),
    ("factorint.modp.divmod_general", "arithdyn.factorint.modp", ["divmod_general"],
     _count_divmod_ops, None),
    ("factorint.modp.pow_mod", "arithdyn.factorint.modp", ["pow_mod"], None, None),
    ("factorint.modp.gcd", "arithdyn.factorint.modp", ["gcd"], None, None),
    ("factorint.modp.factor_squarefree_monic", "arithdyn.factorint.modp",
     ["factor_squarefree_monic"], None, None),
    ("factorint.modp.is_squarefree", "arithdyn.factorint.modp", ["is_squarefree"], None, None),
    ("exactnum.RatPoly.gcd", "arithdyn.exactnum.poly:RatPoly", ["gcd"], None, None),
    ("exactnum.RatPoly.compose", "arithdyn.exactnum.poly:RatPoly", ["compose"], None, None),
    ("exactnum.RatPoly.eval", "arithdyn.exactnum.poly:RatPoly", ["eval"], None, _orbit_bits),
    ("exactnum.IntPoly.exact_div", "arithdyn.exactnum.poly:IntPoly", ["exact_div"], None, None),
    ("exactnum.ComplexBall.mul", "arithdyn.exactnum.ball:ComplexBall", ["__mul__"],
     _count_operand_bits, None),
    ("exactnum.ComplexBall.round_to", "arithdyn.exactnum.ball:ComplexBall", ["round_to"],
     None, None),
    ("exactnum.ComplexBall.inverse", "arithdyn.exactnum.ball:ComplexBall", ["inverse"],
     None, None),
    ("exactnum.RealBall.mul", "arithdyn.exactnum.ball:RealBall", ["__mul__"], None, None),
    ("exactnum.sqrt_up", "arithdyn.exactnum.ball", ["sqrt_up"], None, None),
    ("exactnum.transcendental", "arithdyn.exactnum.ball",
     ["ball_exp", "ball_log", "ball_sin", "ball_cos", "ball_pi"], None, None),
    ("exactnum.ball_decimal", "arithdyn.exactnum.ball", ["ball_decimal"], None, None),
    ("exactnum.series_compose_poly", "arithdyn.exactnum.series", ["series_compose_poly"],
     None, None),
    ("exactnum.series_power", "arithdyn.exactnum.series", ["series_power"], None, None),
    ("exactnum.series_inverse", "arithdyn.exactnum.series", ["series_inverse"], None, None),
    ("countkit.census_records", "arithdyn.countkit.census", ["census_records"],
     _count_evaluations, None),
    ("countkit.lambda_eval", "arithdyn.countkit.modular", ["lambda_eval"], None, None),
    ("countkit.delta_eval", "arithdyn.countkit.modular", ["delta_eval"], None, None),
    ("boettcher.boettcher_series", "arithdyn.boettcher", ["boettcher_series"], None, None),
    ("boettcher.boettcher_frame", "arithdyn.boettcher", ["boettcher_frame"], None, None),
    ("boettcher.fstar_eval", "arithdyn.boettcher", ["fstar_eval"], None, None),
    ("boettcher.distortion_bound", "arithdyn.boettcher", ["distortion_bound"], None, None),
    ("boettcher.phi_eval", "arithdyn.boettcher", ["phi_eval"], None, None),
    ("boettcher.psi_eval", "arithdyn.boettcher", ["psi_eval"], None, None),
    ("dynamics.canonical_height_stats", "arithdyn.dynamics", ["canonical_height_stats"],
     None, None),
    ("dynamics.height_gap_constant", "arithdyn.dynamics", ["height_gap_constant"], None, None),
]


def _import_all() -> None:
    """Import every arithdyn submodule, so that every by-name binding exists."""
    pkg = importlib.import_module("arithdyn")
    for info in pkgutil.walk_packages(pkg.__path__, "arithdyn."):
        importlib.import_module(info.name)


class Tracer:
    """Span recorder plus the patcher that routes arithdyn calls through it."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")  # 1 unless a span of the same name is open
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self._ids: dict[str, int] = {}
        self._open: list[int] = []
        self._depth: list[int] = []
        self._undo: list = []

    def wrap(self, name: str, fn, pre=None, post=None):
        """Return ``fn`` wrapped so that each call records a span named ``name``."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        nid = self._ids[name]
        clock, open_, depth = self.clock, self._open, self._depth

        def traced(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(self, args, kwargs)
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(open_[-1] if open_ else -1)
            self.outer.append(depth[nid] == 0)
            depth[nid] += 1
            open_.append(i)
            t0 = clock()
            self.start.append(t0)
            self.end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                open_.pop()
                depth[nid] -= 1
            if post is not None:
                post(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        _import_all()
        for name, owner, attrs, pre, post in TARGETS:
            module_name, _, class_name = owner.partition(":")
            module = importlib.import_module(module_name)
            for attr in attrs:
                if class_name:
                    self._patch_method(getattr(module, class_name), attr, name, pre, post)
                else:
                    self._patch_function(module, attr, name, pre, post)

    def _patch_function(self, module, attr, name, pre, post):
        original = getattr(module, attr)
        traced = self.wrap(name, original, pre, post)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if mod_name != "arithdyn" and not mod_name.startswith("arithdyn."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._undo.append((setattr, mod, key, original))

    def _patch_method(self, cls, attr, name, pre, post):
        original = getattr(cls, attr)
        traced = self.wrap(name, original, pre, post)
        aliases = [key for key, value in vars(cls).items() if value is original]
        if not aliases:  # inherited: shadow it on this class only
            setattr(cls, attr, traced)
            self._undo.append((delattr, cls, attr))
        for key in aliases:
            setattr(cls, key, traced)
            self._undo.append((setattr, cls, key, original))

    def uninstall(self) -> None:
        while self._undo:
            op, *args = self._undo.pop()
            op(*args)

    def span_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds ``s`` and self seconds ``self_s``."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        stats = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            st = stats[self.names[self.name_id[i]]]
            st["calls"] += 1
            st["self_s"] += dur[i] - covered[i]
            if self.outer[i]:
                st["s"] += dur[i]
        return stats

    def write_spans(self, path) -> None:
        """One tab-separated line per span: index, name, start, end, parent."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("i\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i] - t0:.9f}\t"
                         f"{self.end[i] - t0:.9f}\t{self.parent[i]}\n")

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer figure the trace yields, by metric name."""
        out: dict[str, float] = {}
        for name, st in self.span_stats().items():
            for key, value in st.items():
                out[f"{name}.{key}"] = value
        c = self.counters
        out["factorint.modp.mul.ops"] = c["factorint.modp.mul.ops"]
        out["factorint.modp.divmod_general.ops"] = c["factorint.modp.divmod_general.ops"]
        parts = c["exactnum.ComplexBall.mul.operand_parts"]
        out["exactnum.ComplexBall.mul.operand_bits"] = (
            c["exactnum.ComplexBall.mul.operand_bits_sum"] / parts if parts else 0.0)
        points = c["countkit.points"]
        out["countkit.evaluations_per_point"] = c["countkit.evaluations"] / points if points else 0.0
        out["dynamics.orbit_bits.max"] = c["dynamics.orbit_bits.max"]
        return out
