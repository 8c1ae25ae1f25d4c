"""Span tracing of elastrip's layers, installed from outside the package.

:func:`install` replaces the public functions and methods of the layer
modules (plus the few private callables the per-layer table needs) with
wrappers that record one span per call: name, start, end and the span that
was open when it started.  Names bound by ``from .x import y`` in other
elastrip modules are rebound too, so every call site sees the wrapper.
:func:`uninstall` puts every original back.  Nothing under ``src/`` changes.

Spans are kept in memory; :func:`layer_metrics` turns the spans of one
harness call into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import scipy.sparse.linalg

LAYERS = ("harness", "geometry", "mesh", "solver", "dtn")
# private callables that carry a per-layer metric
PRIVATE = {"solver": ("TransformCoefficients.__init__", "StripOperator._matvec")}
# The Krylov loop is scipy's; solver.solve_field calls it through this module
# attribute, so it is traced there and booked to the solver layer.
KRYLOV = (scipy.sparse.linalg, "gmres", "solver.gmres")

# per span name: facts taken from the return value, kept with the span
_OBSERVE = {
    "solver.assemble_flat_blocks": lambda out: {"bytes": out.nbytes},
    "solver.solve_field": lambda out: {"iterations": out[1].iterations,
                                       "method": out[1].method},
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1          # index into Tracer.spans, -1 for a root
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        observe = _OBSERVE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(),
                        parent=self._open[-1] if self._open else -1)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
                if observe is not None:
                    span.attrs = observe(out)
                return out
            finally:
                span.end = time.perf_counter()
                self._open.pop()

        traced.__traced__ = fn
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced callable; raises if already installed."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}                         # id(original function) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"elastrip.{layer}")
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._install_methods(layer, obj)
        for mod in [m for n, m in sys.modules.items()
                    if n == "elastrip" or n.startswith("elastrip.")]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._patch(mod, attr, wrapped[id(obj)])
        owner, attr, name = KRYLOV
        self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))

    def _install_methods(self, layer: str, cls) -> None:
        private = PRIVATE.get(layer, ())
        for attr, obj in list(vars(cls).items()):
            name = f"{cls.__name__}.{attr}"
            if attr.startswith("_") and name not in private:
                continue
            span = f"{layer}.{name}"
            if inspect.isfunction(obj):
                self._patch(cls, attr, self.wrap(span, obj))
            elif isinstance(obj, (classmethod, staticmethod)):
                self._patch(cls, attr, type(obj)(self.wrap(span, obj.__func__)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def installed_wrappers() -> list[str]:
    """Names of elastrip or Krylov attributes currently replaced by a wrapper."""
    found = []
    owners = [m for n, m in sys.modules.items() if n == "elastrip" or n.startswith("elastrip.")]
    owners += [c for m in list(owners) for c in vars(m).values() if inspect.isclass(c)]
    owners.append(KRYLOV[0])
    for owner in owners:
        for attr, obj in vars(owner).items():
            fn = obj.__func__ if isinstance(obj, (classmethod, staticmethod)) else obj
            if hasattr(fn, "__traced__"):
                found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return found


# ---------------------------------------------------------------------------
# per-layer metrics of one harness call
# ---------------------------------------------------------------------------

@dataclass
class SpanTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    attrs: list = field(default_factory=list)


def call_trees(spans: list[Span]) -> list[list[int]]:
    """Span indices grouped by root span, one group per harness call."""
    groups, root_of = [], {}
    for i, s in enumerate(spans):
        if s.parent < 0:
            root_of[i] = len(groups)
            groups.append([i])
        else:
            root_of[i] = root_of[s.parent]
            groups[root_of[i]].append(i)
    return groups


def totals(spans: list[Span], indices: list[int]) -> dict[str, SpanTotals]:
    """Calls, total and self time per span name.

    Self time is a span's duration minus the time its child spans cover;
    children of one single-threaded span never overlap, so that is the sum
    of their durations.
    """
    child_s = defaultdict(float)
    for i in indices:
        s = spans[i]
        if s.parent >= 0:
            child_s[s.parent] += s.end - s.start
    out = defaultdict(SpanTotals)
    for i in indices:
        s = spans[i]
        t = out[s.name]
        t.calls += 1
        t.total_s += s.end - s.start
        t.self_s += s.end - s.start - child_s[i]
        if s.attrs:
            t.attrs.append(s.attrs)
    return dict(out)


def _calls(name):
    return lambda t: t[name].calls if name in t else 0


def _total(name):
    return lambda t: t[name].total_s if name in t else 0.0


def _self(name):
    return lambda t: t[name].self_s if name in t else 0.0


def _blocks_bytes(t):
    return max((a["bytes"] for a in t["solver.assemble_flat_blocks"].attrs), default=0) \
        if "solver.assemble_flat_blocks" in t else 0


def _assembly_per_solve(t):
    solves = _calls("solver.solve_field")(t)
    return _calls("solver.assemble_flat_blocks")(t) / solves if solves else 0.0


def _gmres_iters(t):
    if "solver.solve_field" not in t:
        return 0
    return sum(a["iterations"] for a in t["solver.solve_field"].attrs if a["method"] == "gmres")


# (metric, unit, value from the span totals of one harness call)
LAYER_METRICS = (
    ("harness.build_setup_s", "s", _total("harness.build_setup")),
    ("harness.field_physical_norms_s", "s", _total("harness.field_physical_norms")),
    ("harness.source_norms_s", "s", _total("harness.source_norms")),
    ("geometry.sample_ensemble_s", "s", _total("geometry.sample_ensemble")),
    ("solver.transform_coeffs_s", "s", _total("solver.TransformCoefficients.__init__")),
    ("solver.assemble_rhs_s", "s", _total("solver.assemble_rhs")),
    ("solver.assemble_flat_blocks_s", "s", _total("solver.assemble_flat_blocks")),
    ("solver.assemble_flat_blocks_calls", "count", _calls("solver.assemble_flat_blocks")),
    ("solver.flat_blocks_bytes", "bytes", _blocks_bytes),
    ("solver.flat_assembly_per_solve", "ratio", _assembly_per_solve),
    ("solver.solve_field_self_s", "s", _self("solver.solve_field")),
    ("solver.solve_flat_self_s", "s", _self("solver.solve_flat")),
    ("solver.matvec_calls", "count", _calls("solver.StripOperator._matvec")),
    ("solver.matvec_s", "s", _total("solver.StripOperator._matvec")),
    ("solver.gmres_self_s", "s", _self("solver.gmres")),
    ("solver.gmres_iters", "count", _gmres_iters),
    ("solver.energy_balance_s", "s", _total("solver.energy_balance")),
    ("solver.poincare_slack_s", "s", _total("solver.poincare_slack")),
    ("mesh.to_physical_calls", "count", _calls("mesh.StripMesh.to_physical")),
    ("mesh.to_physical_s", "s", _total("mesh.StripMesh.to_physical")),
    ("mesh.to_modes_adjoint_s", "s", _total("mesh.StripMesh.to_modes_adjoint")),
    ("dtn.symbol_grid_calls", "count", _calls("dtn.dtn_symbol_grid")),
)


def layer_metrics(spans: list[Span], indices: list[int]) -> dict[str, float]:
    """Per-layer metrics of one harness call, plus the share of the call's
    root span that its child spans cover (``trace.span_coverage``)."""
    t = totals(spans, indices)
    out = {name: fn(t) for name, _unit, fn in LAYER_METRICS}
    root = spans[indices[0]]
    out["trace.span_coverage"] = 1.0 - t[root.name].self_s / (root.end - root.start)
    return out
