"""In-memory span tracer that wraps the curlflux modules from outside.

Every function defined at module level in a curlflux module is replaced by a
wrapper that records a span (name, start, end, parent, op id). Modules bind
copies of each other's functions with ``from .x import y``, so a wrapper is
rebound under every module attribute that held the original. Collar, field
and test-function callables live in dataclass fields; they are wrapped on the
objects that wrapped functions return.

Nothing is written while the tracer runs: spans sit in typed arrays until the
caller aggregates them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import time
from array import array
from collections import Counter

LAYERS = ("quadrature", "geometry", "fields", "testfns", "traces", "stokes",
          "sequences", "selection", "birkhoff_rott", "cli")

# dataclass fields holding callables, by class name; each wrapped callable is
# a span in the layer of the class's module
CALLABLE_FIELDS = {
    "TangentialCollar": ("layer", "grad_s", "layer_jacobian", "param_of_radius"),
    "PatchSlide": ("shift_point", "shifted_normal", "outward_field", "area_scale",
                   "slab_coordinate"),
    "VectorField": ("eval", "analytic_curl"),
    "CatalogEntry": ("trace_z_plane",),
    "CurlMeasure": ("lebesgue_density",),
    "SheetPart": ("density",),
    "LinePart": ("density",),
    "ScalarTestFunction": ("value", "gradient"),
    "VectorTestField": ("value", "curl"),
}
# dataclass fields holding further dataclasses to wrap
NESTED_FIELDS = {
    "TransversalCollar": ("slides",),
    "CatalogEntry": ("vector_field", "curl"),
    "CurlMeasure": ("sheet_parts", "line_parts"),
}
# callables whose first argument is an (n, 3) point array
POINT_CALLABLES = {"grad_s", "shift_point", "shifted_normal", "outward_field",
                   "slab_coordinate", "eval", "analytic_curl", "trace_z_plane",
                   "lebesgue_density", "density", "value", "gradient", "curl"}

_MARK = "__perfbench_span__"


def _n_points(args) -> int:
    if not args:
        return 0
    shape = getattr(args[0], "shape", None)
    if not shape:
        return 1
    return int(shape[0]) if len(shape) > 1 else 1


class Tracer:
    """Span recorder plus the counts measured at the same boundaries."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.op_id = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._stack: list[int] = []
        self.points: Counter = Counter()
        self.pairs = 0
        self.judged = 0
        self.converged = 0
        self._refusals: list[BaseException] = []
        self._refusal_type = None
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = self.clock()
        self._stack.pop()

    @property
    def n_spans(self) -> int:
        return len(self.span_name)

    @contextlib.contextmanager
    def span(self, name: str):
        """One span around a block of the benchmark's own code."""
        if not self.active:
            yield
            return
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn, name: str, count_points: bool = False):
        """Wrapper of `fn` that records a span while the tracer is active."""
        if getattr(fn, _MARK, None) is not None:
            return fn
        tracer = self
        nid = self.name_id(name)
        short = name.rsplit(".", 1)[-1]
        is_rule = name.startswith("quadrature.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if count_points:
                tracer.points[name] += _n_points(args)
            elif short == "br_velocity":
                tracer.pairs += _n_points(args[1:]) * args[0].n_markers
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._note_exception(exc)
                raise
            finally:
                tracer.close(idx)
            if is_rule:
                tracer.points[name] += len(result.weights)
            elif short == "judge_sequence":
                tracer.judged += 1
                tracer.converged += bool(result.converged)
            return tracer.wrap_result(result)

        setattr(wrapper, _MARK, name)
        return wrapper

    def _note_exception(self, exc: BaseException) -> None:
        if (self._refusal_type is not None and isinstance(exc, self._refusal_type)
                and not any(e is exc for e in self._refusals)):
            self._refusals.append(exc)

    @property
    def refusals(self) -> int:
        return len(self._refusals)

    def wrap_result(self, obj):
        """Wrap the callable dataclass fields of a returned object."""
        cls = type(obj)
        if cls is tuple and len(obj) <= 8:
            new = tuple(self.wrap_result(o) for o in obj)
            return new if any(a is not b for a, b in zip(new, obj)) else obj
        kind = cls.__name__
        if not dataclasses.is_dataclass(obj) or not cls.__module__.startswith("curlflux."):
            return obj
        if kind not in CALLABLE_FIELDS and kind not in NESTED_FIELDS:
            return obj
        layer = cls.__module__.split(".")[-1]
        changes = {}
        for fname in CALLABLE_FIELDS.get(kind, ()):
            fn = getattr(obj, fname)
            if fn is not None and callable(fn) and getattr(fn, _MARK, None) is None:
                changes[fname] = self.wrap(fn, f"{layer}.{kind}.{fname}",
                                           count_points=fname in POINT_CALLABLES)
        for fname in NESTED_FIELDS.get(kind, ()):
            val = getattr(obj, fname)
            new = self.wrap_result(val) if val is not None else None
            if new is not val:
                changes[fname] = new
        return dataclasses.replace(obj, **changes) if changes else obj

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every module-level function and rebind it wherever it is bound."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = [importlib.import_module(f"curlflux.{m}") for m in LAYERS]
        self._refusal_type = importlib.import_module("curlflux.stokes").StokesRefusal
        wrapped = {}
        for mod in mods:
            layer = mod.__name__.split(".")[-1]
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("__")):
                    wrapped[id(obj)] = (obj, self.wrap(obj, f"{layer}.{name}"))
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, hit[1])
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span duration minus the part covered by its direct children."""
        n = self.n_spans
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        return [dur[i] - child[i] for i in range(n)]

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        selfs = self.self_times()
        out: dict[str, dict] = {}
        for i in range(self.n_spans):
            name = self.names[self.span_name[i]]
            rec = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["incl_s"] += self.span_end[i] - self.span_start[i]
            rec["self_s"] += selfs[i]
        return out
