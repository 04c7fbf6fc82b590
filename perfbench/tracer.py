"""Outside-in layer trace of jetstress.

`Tracer` replaces, for the duration of a `with` block, every public function
of each jetstress module, and the per-point methods listed in `METHODS`, by a
wrapper that records calls, work counts and self time.  A function is rebound
in every module that imports it by name (`stress`, `forms`, `sections` and
`material` each bind `partial_derivative`), so no call escapes the trace and
no file of the program changes.

Self time is a span's duration minus the part its traced children cover.
`ScalarField.__call__` is the field evaluation protocol; its self time is
split by the module that defined the wrapped callable, which is where the
per-point closure code lives (`<module>.eval_self_s`).  Work counts are rows:
one per point under the current one-point protocol, N for an (N, d) array.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("chart", "fields", "sections", "stress", "forms", "material",
           "equilibrium", "forces", "scenarios", "cli")
# chart splits into three layers; its other public names are not traced
CHART_LAYERS = {
    "partial_derivative": "chart.fd",
    "integrate_volume": "chart.quad",
    "integrate_face": "chart.quad",
    "integrate_boundary": "chart.quad",
    "volume_nodes": "chart.quad",
    "face_nodes": "chart.quad",
    "stokes_residual": "chart.quad",
    "uniform_grid": "chart.grid",
    "face_grid": "chart.grid",
}
# per-point methods of value classes, traced as part of their module's layer
METHODS = (
    ("sections", "Configuration", "value"),
    ("sections", "VelocityField", "value"),
    ("sections", "JetSection", "__call__"),
    ("sections", "VelocityJet", "__call__"),
    ("forces", "BodyForceDensity", "value"),
    ("material", "LagrangianDensity", "__call__"),
)
LAYERS = ("chart.fd", "chart.quad", "chart.grid") + MODULES[1:]
EVAL_MODULES = ("fields", "sections", "stress", "forms", "material",
                "equilibrium", "forces", "scenarios")


def _rows(X) -> int:
    shape = getattr(X, "shape", None)
    return shape[0] if shape is not None and len(shape) == 2 else 1


# (qualified name) -> (counter, rows of work from (args, result))
COUNTERS = {
    "chart.integrate_volume": ("chart.quad.calls", lambda args, out: 1),
    "chart.integrate_face": ("chart.quad.calls", lambda args, out: 1),
    "chart.volume_nodes": ("chart.quad.nodes", lambda args, out: len(out[0])),
    "chart.face_nodes": ("chart.quad.nodes", lambda args, out: len(out[0])),
    "chart.uniform_grid": ("chart.grid.points", lambda args, out: len(out)),
    "chart.face_grid": ("chart.grid.points", lambda args, out: len(out)),
    "stress.stress_pairing": ("stress.pairings", lambda args, out: _rows(args[2])),
    "sections.JetSection.__call__": ("sections.jet_points", lambda args, out: _rows(args[1])),
    "sections.VelocityJet.__call__": ("sections.jet_points", lambda args, out: _rows(args[1])),
    "material.LagrangianDensity.__call__":
        ("material.lagrangian_evals", lambda args, out: _rows(args[1].X)),
}
COUNTS = ("chart.fd.calls", "chart.fd.points", "chart.fd.periodic", "chart.fd.interior",
          "chart.fd.onesided", "chart.fd.nested", "chart.quad.calls", "chart.quad.nodes",
          "chart.grid.points", "fields.calls", "fields.points", "stress.pairings",
          "sections.jet_points", "material.lagrangian_evals")


class Tracer:
    """Context manager that traces every jetstress layer while it is open.

    Not reentrant; the wrappers keep their state on this object, which
    `metrics()` reads after the block ends.
    """

    def __init__(self) -> None:
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.eval_self_s: dict[str, float] = defaultdict(float)
        # child-time accumulator per open span; the base frame absorbs top level
        self._stack = [0.0]
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        mods = {short: importlib.import_module(f"jetstress.{short}") for short in MODULES}
        wrappers: dict[int, object] = {}
        for short, mod in mods.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                layer = CHART_LAYERS.get(name) if short == "chart" else short
                if layer is None:
                    continue
                if name == "partial_derivative":
                    wrapper = self._wrap_fd(obj)
                else:
                    wrapper = self._wrap(obj, layer, COUNTERS.get(f"{short}.{name}"))
                wrappers[id(obj)] = wrapper
        bound = [m for n, m in sys.modules.items() if n == "jetstress" or n.startswith("jetstress.")]
        for mod in bound:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, name, wrappers[id(obj)])
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            counter = COUNTERS.get(f"{short}.{cls_name}.{meth}")
            self._patch(cls, meth, self._wrap(vars(cls)[meth], short, counter))
        field_cls = mods["chart"].ScalarField
        self._patch(field_cls, "__call__", self._wrap_field(vars(field_cls)["__call__"]))

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def _wrap(self, fn, layer: str, counter=None):
        stack, clock, self_s, counts = self._stack, time.perf_counter, self.self_s, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self_s[layer] += dur - stack.pop()
                stack[-1] += dur
            if counter is not None:
                counts[counter[0]] += counter[1](args, out)
            return out

        return traced

    def _wrap_fd(self, fn):
        stack, clock, self_s, counts = self._stack, time.perf_counter, self.self_s, self.counts
        default_scheme = inspect.signature(fn).parameters["scheme"].default
        depth = [0]

        @functools.wraps(fn)
        def traced(f, axis, p, dom, scheme=default_scheme):
            rows = _rows(p)
            counts["chart.fd.calls"] += 1
            counts["chart.fd.points"] += rows
            if dom.is_periodic(axis):
                counts["chart.fd.periodic"] += rows
            else:
                interior = _interior_rows(axis, p, dom, scheme)
                counts["chart.fd.interior"] += interior
                counts["chart.fd.onesided"] += rows - interior
            if depth[0]:
                counts["chart.fd.nested"] += rows
            depth[0] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(f, axis, p, dom, scheme)
            finally:
                dur = clock() - t0
                self_s["chart.fd"] += dur - stack.pop()
                stack[-1] += dur
                depth[0] -= 1

        return traced

    def _wrap_field(self, call):
        stack, clock, eval_self_s, counts = self._stack, time.perf_counter, self.eval_self_s, self.counts

        @functools.wraps(call)
        def traced(field, X):
            stack.append(0.0)
            t0 = clock()
            try:
                out = call(field, X)
            finally:
                dur = clock() - t0
                func = field.func
                module = getattr(func, "__module__", None) or type(func).__module__
                eval_self_s[module] += dur - stack.pop()
                stack[-1] += dur
            counts["fields.calls"] += 1
            counts["fields.points"] += _rows(X)
            return out

        return traced

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every traced count and self time, as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {name: (self.counts[name], "count") for name in COUNTS}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        for short in EVAL_MODULES:
            out[f"{short}.eval_self_s"] = (self.eval_self_s[f"jetstress.{short}"], "s")
        return out


def _interior_rows(axis: int, p, dom, scheme) -> int:
    """Rows of p at which `partial_derivative` uses the centred stencil: the
    reach test of `chart._stencil_offsets`, which shifts the stencil only
    when a probe would leave the box."""
    reach = (scheme.order // 2) * scheme.step
    lo, hi = dom.bounds[axis]
    if getattr(p, "ndim", 1) == 2:
        x = p[:, axis]
        return int(np.count_nonzero((x - reach >= lo - 1e-14) & (x + reach <= hi + 1e-14)))
    x = float(p[axis])
    return int(x - reach >= lo - 1e-14 and x + reach <= hi + 1e-14)
