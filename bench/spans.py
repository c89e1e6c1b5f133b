"""Timing from outside the solver: step clock, layer spans and their self times.

The benchmark never edits the program.  For the length of one workload
instance it replaces public functions of the ``biofilm_fv`` modules with
timing wrappers and restores the originals afterwards.  A function imported
by name into another module (``harness`` imports ``advance``,
``project_initial``, ``get_model`` and the mesh builders that way) is replaced
in that module too, because the caller looks the name up there.

Two levels exist:

* ``StepClock`` wraps ``scheme.advance`` only.  It is installed in every
  run, traced or not, and costs two clock reads per accepted step.  It gives
  ``solve_s``, the per-step wall times and the step reports.
* ``Tracer`` records one span per call at every layer boundary listed in
  ``traced_functions``.  Spans are kept in memory (four flat lists) and
  reduced to per-layer calls, total and self time when the instance ends.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# every span the traced run opens; each gives <name>.calls, <name>.s, <name>.self_s
SPAN_NAMES = (
    "entry",
    "mesh.build",
    "model.build",
    "scheme.project_initial",
    "scheme.advance",
    "scheme.newton_step",
    "scheme.residual",
    "scheme.jacobian",
    "scheme.dirichlet_fluxes",
    "scheme.linear.factor",
    "scheme.linear.solve",
    "diagnostics.discrete_entropy",
    "diagnostics.dissipation",
    "model.log_g_primitive",
    "model.g",
    "model.g_prime",
    "model.p",
    "model.p_prime",
    "harness.write",
    "bench.fill_count",
)

# span opened by no workload (biomass stays below the primitive's cap), so
# only its call count is reported: a time that is always 0 carries nothing
COUNT_ONLY_SPANS = ("model.log_g_primitive.quad",)

# (name, unit) of the counters the wrappers keep
COUNTERS = (
    ("mesh.cells", "count"),
    ("mesh.edges", "count"),
    ("scheme.linear.matrix_nnz", "count"),
    ("scheme.linear.lu_fill", "count"),
    ("scheme.linear.singular", "count"),
    ("scheme.newton_step.failures", "count"),
    ("harness.bytes_written", "B"),
)

# (name, unit) of the metrics computed from spans and counters
DERIVED_METRICS = (
    ("scheme.newton.iters", "count"),
    ("scheme.newton.useful_iter_ratio", "ratio"),
    ("scheme.newton.damping_trials_per_iter", "ratio"),
    ("scheme.advance.covered_ratio", "ratio"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def per_layer_metric_units():
    """Every per-layer metric the traced run reports, in order, with its unit."""
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.s", "s"), (f"{name}.self_s", "s")]
    out += [(f"{name}.calls", "count") for name in COUNT_ONLY_SPANS]
    return out + list(COUNTERS) + list(DERIVED_METRICS)


def self_times(parent, start, end):
    """Duration of each span minus the part its direct children cover.

    ``parent[k]`` is the index of the span that was open when span k began,
    or -1.  Spans come from one thread, so children nest inside their parent
    and never overlap each other.
    """
    parent = np.asarray(parent, dtype=np.intp)
    duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    covered = np.zeros_like(duration)
    nested = parent >= 0
    np.add.at(covered, parent[nested], duration[nested])
    return duration - covered


@contextmanager
def replaced(replacements):
    """Set ``module.attr = value`` for each triple and restore on exit."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    try:
        for module, attr, value in replacements:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


class StepClock:
    """Time spent inside ``scheme.advance`` and per accepted step.

    A step's time runs from the end of the previous accepted step (or the
    entry into ``advance``) to the moment ``advance`` reports the step, so it
    includes every rejected Newton attempt before it and the invariant checks,
    and excludes the caller's own observer.
    """

    def __init__(self):
        self.solve_s = 0.0
        self.step_s = []
        self.reports = []

    def wrap_advance(self, advance):
        def timed_advance(state, t_end, mesh, model, bdata, cfg, observer=None):
            last = perf_counter()
            entered = last

            def on_step(report, new_state):
                nonlocal last
                self.step_s.append(perf_counter() - last)
                self.reports.append(report)
                if observer is not None:
                    observer(report, new_state)
                last = perf_counter()

            try:
                return advance(state, t_end, mesh, model, bdata, cfg, observer=on_step)
            finally:
                self.solve_s += perf_counter() - entered

        return timed_advance

    def replacements(self, scheme, harness, advance=None):
        timed = advance or self.wrap_advance(scheme.advance)
        return [(scheme, "advance", timed), (harness, "advance", timed)]


class _TracedLU:
    """SuperLU stand-in whose ``solve`` is a span."""

    def __init__(self, solve):
        self.solve = solve


class _TracedPrimitive:
    """``model.log_g_primitive`` stand-in: calls and ``quad`` are spans."""

    def __init__(self, primitive, tracer):
        # the instance attribute shadows the method, so the beyond-cap path
        # of primitive.__call__ goes through the span as well
        primitive.quad = tracer.wrap("model.log_g_primitive.quad", primitive.quad)
        self.quad = primitive.quad
        self._call = tracer.wrap("model.log_g_primitive", primitive)

    def __call__(self, m):
        return self._call(m)


class Tracer:
    """In-memory spans and counters for one traced workload instance."""

    def __init__(self):
        self._name_ids = {}
        self.names = []
        self.span_name = []
        self.span_parent = []
        self.span_start = []
        self.span_end = []
        self._open = []
        self.counts = {}

    def add(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key, value):
        self.counts[key] = max(self.counts.get(key, 0), value)

    def wrap(self, name, fn):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, open_spans = self.span_start, self.span_end, self._open

        def span(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(open_spans[-1] if open_spans else -1)
            starts.append(0.0)
            ends.append(0.0)
            open_spans.append(index)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                starts[index] = t0
                open_spans.pop()

        return span

    def layers(self):
        """Per span name: (calls, total seconds, self seconds)."""
        ids = np.asarray(self.span_name, dtype=np.intp)
        start = np.asarray(self.span_start)
        end = np.asarray(self.span_end)
        own = self_times(self.span_parent, start, end)
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=end - start, minlength=n)
        self_s = np.bincount(ids, weights=own, minlength=n)
        return {name: (int(calls[k]), float(total[k]), float(self_s[k]))
                for k, name in enumerate(self.names)}

    def child_calls(self, child, parent):
        """Number of ``child`` spans opened directly inside a ``parent`` span."""
        if child not in self._name_ids or parent not in self._name_ids:
            return 0
        ids = np.asarray(self.span_name, dtype=np.intp)
        parents = np.asarray(self.span_parent, dtype=np.intp)
        is_child = (ids == self._name_ids[child]) & (parents >= 0)
        return int((ids[parents[is_child]] == self._name_ids[parent]).sum())

    def save(self, path):
        """Write the raw spans as a compressed NumPy archive."""
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.asarray(self.span_name, dtype=np.int32),
            parent=np.asarray(self.span_parent, dtype=np.int64),
            start=np.asarray(self.span_start),
            end=np.asarray(self.span_end),
        )

    # -- the layer boundaries -------------------------------------------------------

    def traced_functions(self, clock, scheme, harness, diagnostics):
        """Replacements that put a span around every public layer function."""
        wrap = self.wrap

        def mesh_builder(fn):
            build = wrap("mesh.build", fn)

            def traced(*args, **kwargs):
                mesh = build(*args, **kwargs)
                self.add("mesh.cells", mesh.n_cells)
                self.add("mesh.edges", mesh.n_edges)
                return mesh

            return traced

        build_model = wrap("model.build", harness.get_model)

        def get_model(*args, **kwargs):
            model = build_model(*args, **kwargs)
            for attr in ("g", "g_prime", "p", "p_prime"):
                setattr(model, attr, wrap(f"model.{attr}", getattr(model, attr)))
            model.log_g_primitive = _TracedPrimitive(model.log_g_primitive, self)
            return model

        factor = wrap("scheme.linear.factor", scheme.splu)
        # reading L and U copies both factors; keep that cost out of factor_s
        fill_count = wrap("bench.fill_count", lambda lu: lu.L.nnz + lu.U.nnz)

        def splu(matrix, *args, **kwargs):
            self.peak("scheme.linear.matrix_nnz", matrix.nnz)
            try:
                lu = factor(matrix, *args, **kwargs)
            except RuntimeError:
                self.add("scheme.linear.singular")
                raise
            self.peak("scheme.linear.lu_fill", fill_count(lu))
            return _TracedLU(wrap("scheme.linear.solve", lu.solve))

        step = wrap("scheme.newton_step", scheme.newton_step)

        def newton_step(*args, **kwargs):
            try:
                state, report = step(*args, **kwargs)
            except scheme.NewtonFailure:
                self.add("scheme.newton_step.failures")
                raise
            self.add("scheme.newton.useful_iters", report.newton_iters)
            return state, report

        def writer(fn):
            write = wrap("harness.write", fn)

            def traced(path, *args, **kwargs):
                out = write(path, *args, **kwargs)
                self.add("harness.bytes_written", os.path.getsize(path))
                return out

            return traced

        project = wrap("scheme.project_initial", scheme.project_initial)
        advance = wrap("scheme.advance", clock.wrap_advance(scheme.advance))
        return clock.replacements(scheme, harness, advance) + [
            (harness, "build_interval_mesh", mesh_builder(harness.build_interval_mesh)),
            (harness, "build_rectangle_mesh", mesh_builder(harness.build_rectangle_mesh)),
            (harness, "get_model", get_model),
            (harness, "project_initial", project),
            (scheme, "project_initial", project),
            (scheme, "newton_step", newton_step),
            (scheme, "residual", wrap("scheme.residual", scheme.residual)),
            (scheme, "jacobian", wrap("scheme.jacobian", scheme.jacobian)),
            (scheme, "dirichlet_fluxes",
             wrap("scheme.dirichlet_fluxes", scheme.dirichlet_fluxes)),
            (scheme, "splu", splu),
            (diagnostics, "discrete_entropy",
             wrap("diagnostics.discrete_entropy", diagnostics.discrete_entropy)),
            (diagnostics, "dissipation",
             wrap("diagnostics.dissipation", diagnostics.dissipation)),
            # _write_csv is the one writer behind every CSV file the harness emits
            (harness, "_write_csv", writer(harness._write_csv)),
            (harness, "write_run_metadata", writer(harness.write_run_metadata)),
            (harness, "write_snapshot_vtk", writer(harness.write_snapshot_vtk)),
        ]

    def metrics(self, traced_wall_s, untraced_wall_s):
        """Per-layer metrics of this instance, keyed as per_layer_metric_units()."""
        layers = self.layers()
        out = {}
        for name in SPAN_NAMES:
            calls, total, own = layers.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = total
            out[f"{name}.self_s"] = own
        for name in COUNT_ONLY_SPANS:
            out[f"{name}.calls"] = layers.get(name, (0, 0.0, 0.0))[0]
        for key, _ in COUNTERS:
            out[key] = self.counts.get(key, 0)
        jacobians = out["scheme.jacobian.calls"]
        trials = (self.child_calls("scheme.residual", "scheme.newton_step")
                  - out["scheme.newton_step.calls"])
        out["scheme.newton.iters"] = jacobians
        out["scheme.newton.useful_iter_ratio"] = (
            self.counts.get("scheme.newton.useful_iters", 0) / jacobians if jacobians else 0.0)
        out["scheme.newton.damping_trials_per_iter"] = trials / jacobians if jacobians else 0.0
        advance_s = out["scheme.advance.s"]
        out["scheme.advance.covered_ratio"] = (
            1.0 - out["scheme.advance.self_s"] / advance_s if advance_s else 0.0)
        out["trace.spans"] = len(self.span_start)
        out["trace.overhead_s"] = traced_wall_s - untraced_wall_s
        out["trace.overhead_ratio"] = traced_wall_s / untraced_wall_s - 1.0
        return out
