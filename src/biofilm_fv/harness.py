"""Experiment harness: convergence studies, evolution runs, steady-state decay.

All three studies go through ``_set_up``, the set-up of ``run_evolution``:
the steady-state study reads each step's distance to the contact state from
the run, and the convergence study sets up one run per N, at dt = 1/N^2,
before it makes its output dir.

Everything here is deterministic and serial: a given experiment
specification produces byte-identical CSV output.  CSV files use a header
row, '.' decimals and shortest round-trip float formatting.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__, model as modelmod, scheme
from .mesh import Mesh, build_interval_mesh, build_rectangle_mesh, load_triangle_mesh_file
from .model import ModelFunctions, get_model
from .scheme import BoundaryData, NewtonConfig, State, advance, project_initial


class ConfigurationError(Exception):
    """Invalid or inconsistent experiment description."""


# the most steps a config may imply; the reference of
# configs/convergence-case1-paper.cfg implies 26,214.4
MAX_STEPS = 10**7
# the most cells a generated mesh may have; the largest that a shipped config or
# benchmark builds has 96^2 = 9,216, and a 10^6-cell interval already holds
# 160 MB per two-species Newton band
MAX_CELLS = 10**6


# -- initial data ----------------------------------------------------------------------


@dataclass(frozen=True)
class IndicatorDatum:
    """Piecewise-constant initial datum: base_i + bump_i on an axis-aligned box.

    ``boxes`` holds one box per species, either None (no bump) or two closed
    bounds per mesh axis: (x0, x1) in 1D, (x0, x1, y0, y1) in 2D.
    """

    base: tuple[float, ...]
    bump: tuple[float, ...]
    boxes: tuple[tuple[float, ...] | None, ...]

    @property
    def n_species(self):
        return len(self.base)

    def cell_average(self, mesh: Mesh):
        """Cell averages, (n_species, n_cells); a box of another dimension is an error.

        Interval and rectangle cells take the exact overlap fraction of the box,
        triangle cells the midpoint rule.
        """
        dim = mesh.dimension
        for box in self.boxes:
            if box is not None and len(box) != 2 * dim:
                raise ConfigurationError(
                    f"a box on a {dim}D mesh has {2 * dim} bounds, got {len(box)}")
        out = np.tile(np.asarray(self.base, dtype=float)[:, None], (1, mesh.n_cells))
        triangles = dim == 2 and mesh.cell_nodes.shape[1] == 3
        if dim == 1:
            lo = mesh.cell_centers - mesh.cell_measures[:, None] / 2
            hi = mesh.cell_centers + mesh.cell_measures[:, None] / 2
        elif not triangles:
            corners = mesh.points[mesh.cell_nodes.T]  # (4, n_cells, 2): reduces fast over axis 0
            lo, hi = corners.min(axis=0), corners.max(axis=0)
        for i, box in enumerate(self.boxes):
            if box is None:
                continue
            bounds = np.asarray(box, dtype=float).reshape(dim, 2)
            if triangles:
                c = mesh.cell_centers
                out[i] += self.bump[i] * ((bounds[:, 0] <= c) & (c <= bounds[:, 1])).all(axis=1)
                continue
            overlap, width = self.bump[i], 1.0
            for d in range(dim):
                overlap = overlap * np.maximum(
                    0.0, np.minimum(hi[:, d], bounds[d, 1]) - np.maximum(lo[:, d], bounds[d, 0]))
                width = width * (hi[:, d] - lo[:, d])
            out[i] += overlap / width
        return out


def build_named_initial_datum(name, params) -> IndicatorDatum:
    """Initial-datum registry: bumps-1d, bumps-2d, constant, custom-indicator.

    The bumps data add one box-shaped excess of size u^D_i per species on
    staggered boxes; ``constant`` is the contact state everywhere.
    """
    params = dict(params)
    u_d = tuple(float(v) for v in params.get("u_d", ()))
    if name == "constant":
        if not u_d:
            raise ConfigurationError("constant datum requires u_d")
        return IndicatorDatum(base=u_d, bump=(0.0,) * len(u_d), boxes=(None,) * len(u_d))
    if name == "bumps-1d":
        if len(u_d) != 2:
            raise ConfigurationError("bumps-1d is a two-species datum")
        return IndicatorDatum(base=u_d, bump=u_d, boxes=((0.2, 0.5), (0.5, 0.8)))
    if name == "bumps-2d":
        if len(u_d) != 2:
            raise ConfigurationError("bumps-2d is a two-species datum")
        return IndicatorDatum(
            base=u_d, bump=u_d, boxes=((0.2, 0.5, 0.0, 0.4), (0.5, 0.8, 0.0, 0.4))
        )
    if name == "custom-indicator":
        try:
            base = tuple(float(v) for v in params["base"])
            bump = tuple(float(v) for v in params["bump"])
            boxes = tuple(None if b is None else tuple(float(v) for v in b)
                          for b in params["boxes"])
        except KeyError as exc:
            raise ConfigurationError(f"custom-indicator requires {exc}") from exc
        if not (len(base) == len(bump) == len(boxes)):
            raise ConfigurationError("custom-indicator fields must have equal length")
        return IndicatorDatum(base=base, bump=bump, boxes=boxes)
    raise ConfigurationError(f"unknown initial datum {name!r}")


# -- experiment description --------------------------------------------------------------


DIRICHLET_PREDICATES = {
    "all": lambda x, y: True,
    "y=1": lambda x, y: abs(y - 1.0) < 1e-12,
    "y=0": lambda x, y: abs(y) < 1e-12,
    "x=0": lambda x, y: abs(x) < 1e-12,
    "x=1": lambda x, y: abs(x - 1.0) < 1e-12,
}


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one run or study.

    An unset ``initial`` or ``dirichlet`` stays None and follows the
    dimension (``datum_name``, ``dirichlet_tag``): bumps-1d and left in 1D,
    bumps-2d and y=1 in 2D, also on a copy made by ``dataclasses.replace``.
    """

    name: str
    model: str = "case1"
    alphas: tuple[float, ...] = (1.0, 1.0)
    u_d: tuple[float, ...] = (0.1, 0.1)
    initial: str | None = None
    initial_params: dict = field(default_factory=dict)
    t_end: float = 1e-3
    dimension: int = 1
    n_cells: int = 80
    nx: int = 32
    ny: int = 32
    mesh_file: str | None = None
    dirichlet: str | None = None
    dt_policy: str = "fixed"
    dt: float = 1e-5
    dt_min: float = 1e-8
    dt_max: float = 1e-2
    resolutions: tuple[int, ...] = ()
    reference: int = 0
    snapshot_times: tuple[float, ...] = ()
    generic_p: str | None = None
    a: float | None = None
    b: float | None = None

    def __post_init__(self):
        # from t = 0, advance counts a horizon up to scheme.TIME_TOL as reached
        if not scheme.TIME_TOL < self.t_end < math.inf:  # NaN fails too
            raise ConfigurationError(
                f"t_end must be finite and exceed {scheme.TIME_TOL}, got {self.t_end}")
        if self.dimension not in (1, 2):
            raise ConfigurationError(f"dimension must be 1 or 2, got {self.dimension}")
        if len(self.alphas) != len(self.u_d):
            raise ConfigurationError("alphas and u_d must have the same length")
        if self.dt_policy not in ("fixed", "adaptive"):
            raise ConfigurationError(f"unknown dt policy {self.dt_policy!r}")

    @property
    def datum_name(self) -> str:
        return f"bumps-{self.dimension}d" if self.initial is None else self.initial

    @property
    def dirichlet_tag(self) -> str:
        if self.dirichlet is None:
            return "left" if self.dimension == 1 else "y=1"
        return self.dirichlet

    def build_model(self) -> ModelFunctions:
        try:
            return get_model(self.model, self.alphas, a=self.a, b=self.b,
                             p_name=self.generic_p)
        except modelmod.ModelError as exc:
            raise ConfigurationError(str(exc)) from exc

    def build_bdata(self) -> BoundaryData:
        try:
            return BoundaryData(tuple(self.u_d))
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc

    def build_mesh(self, n_cells=None) -> Mesh:
        """The run's mesh, of ``n_cells`` cells in 1D when given.

        An interval or rectangle of more than ``MAX_CELLS`` cells is a
        configuration error, raised before any array is made.
        """
        tag = self.dirichlet_tag
        predicate = DIRICHLET_PREDICATES.get(tag)
        if self.dimension == 2 and predicate is None:
            raise ConfigurationError(f"unknown dirichlet tag {tag!r}")
        if n_cells is None:
            n_cells = self.n_cells
        if self.dimension == 1 and n_cells > MAX_CELLS:
            raise ConfigurationError(f"mesh of {n_cells} cells, more than {MAX_CELLS}")
        if self.dimension == 2 and self.mesh_file is None and self.nx * self.ny > MAX_CELLS:
            raise ConfigurationError(f"mesh of nx * ny = {self.nx * self.ny} cells, "
                                     f"more than {MAX_CELLS}")
        try:
            if self.dimension == 1:
                return build_interval_mesh(n_cells, tag)
            if self.mesh_file is not None:
                return load_triangle_mesh_file(self.mesh_file, predicate)
            return build_rectangle_mesh(self.nx, self.ny, predicate)
        except OSError as exc:
            raise ConfigurationError(f"cannot read mesh file: {exc}") from exc
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc

    def build_datum(self) -> IndicatorDatum:
        params = dict(self.initial_params)
        params.setdefault("u_d", self.u_d)
        datum = build_named_initial_datum(self.datum_name, params)
        if datum.n_species != len(self.u_d):
            raise ConfigurationError("initial datum species count mismatch")
        return datum

    def initial_state(self, mesh: Mesh) -> State:
        """Cell averages of the initial datum; an inadmissible one is a configuration error."""
        try:
            return project_initial(self.build_datum(), mesh)
        except modelmod.ModelDomainError as exc:
            raise ConfigurationError(f"initial datum: {exc}") from exc

    def newton_config(self) -> NewtonConfig:
        """The step range for ``advance``.

        The fixed policy pins the range to ``dt``; the adaptive policy starts
        at ``dt`` within [dt_min, dt_max].  A range whose largest step takes
        more than ``MAX_STEPS`` steps to t_end is a configuration error.
        """
        fixed = self.dt_policy == "fixed"
        key, step = ("dt", self.dt) if fixed else ("dt_max", self.dt_max)
        try:
            cfg = NewtonConfig(dt_min=self.dt if fixed else self.dt_min, dt_init=self.dt,
                               dt_max=step)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc
        if self.t_end / step > MAX_STEPS:
            raise ConfigurationError(
                f"t_end = {self.t_end} at {key} = {step} implies {self.t_end / step:.3g} "
                f"steps, more than {MAX_STEPS}")
        return cfg

    def snapshot_schedule(self) -> list:
        """The distinct snapshot times in increasing order; each must lie in [0, t_end].

        A positive time must exceed ``scheme.TIME_TOL``, below which no step
        reaches it, and no two times may share a file tag (``_snapshot_tag``).
        """
        times = sorted(set(float(t) for t in self.snapshot_times))
        for t in times:
            if not 0.0 <= t <= self.t_end:  # NaN fails too
                raise ConfigurationError(
                    f"snapshot time {t} lies outside [0, t_end = {self.t_end}]")
            if 0.0 < t <= scheme.TIME_TOL:
                raise ConfigurationError(
                    f"snapshot time {t} must be 0 or exceed {scheme.TIME_TOL}")
        # %g rounds monotonically, so times that share a tag are adjacent
        for earlier, later in zip(times, times[1:]):
            if _snapshot_tag(earlier) == _snapshot_tag(later):
                raise ConfigurationError(f"snapshot times {earlier} and {later} share the "
                                         f"file tag {_snapshot_tag(later)}")
        return times


# -- shared run machinery ------------------------------------------------------------------


def _snapshot_tag(time):
    """The tag of a snapshot file name: snapshot_<tag>.csv or .vtk."""
    return f"{time:g}"


def _fmt(value):
    return repr(float(value))


@contextmanager
def _output_file(path):
    """``path`` opened for ASCII text; an OSError while writing it is a ConfigurationError."""
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise ConfigurationError(f"cannot write output: {exc}") from exc


def _write_csv(path, header, rows):
    with _output_file(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) if isinstance(c, (int, str)) else _fmt(c) for c in row))
            fh.write("\n")


def write_entropy_csv(path, reports, n_species):
    """One row per accepted step: its number, then one column per ``StepReport``
    field in declaration order, ``dissipation`` as one column per species."""
    names = [report_field.name for report_field in fields(scheme.StepReport)]
    header = ["step"]
    for name in names:
        header += [f"{name}_{i + 1}" for i in range(n_species)] if name == "dissipation" else [name]
    rows = []
    for k, report in enumerate(reports, start=1):
        row = [k]
        for name in names:
            value = getattr(report, name)
            row += list(value) if name == "dissipation" else [value]
        rows.append(row)
    _write_csv(path, header, rows)


def write_snapshot_csv(path, mesh, u):
    n = u.shape[0]
    header = ["x_center"] + [f"u_{i+1}" for i in range(n)] + ["M"]
    biomass = u.sum(axis=0)
    rows = [
        tuple([mesh.cell_centers[k, 0]] + [u[i, k] for i in range(n)] + [biomass[k]])
        for k in range(mesh.n_cells)
    ]
    _write_csv(path, header, rows)


def write_snapshot_vtk(path, mesh, u, title="snapshot"):
    """Legacy ASCII VTK (version 3.0) with one scalar per species plus biomass."""
    if mesh.points is None or mesh.cell_nodes is None:
        raise ConfigurationError("mesh carries no vertex data; VTK output unavailable")
    n = u.shape[0]
    biomass = u.sum(axis=0)
    cell_type = {3: 5, 4: 9}
    with _output_file(path) as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(f"{title}\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {len(mesh.points)} double\n")
        for x, y in mesh.points:
            fh.write(f"{_fmt(x)} {_fmt(y)} 0.0\n")
        k = mesh.cell_nodes.shape[1]
        fh.write(f"CELLS {mesh.n_cells} {mesh.n_cells * (k + 1)}\n")
        for nodes in mesh.cell_nodes.tolist():
            fh.write(" ".join(map(str, [k] + nodes)) + "\n")
        fh.write(f"CELL_TYPES {mesh.n_cells}\n")
        fh.write(f"{cell_type[k]}\n" * mesh.n_cells)
        fh.write(f"CELL_DATA {mesh.n_cells}\n")
        for i in range(n):
            fh.write(f"SCALARS u_{i+1} double 1\nLOOKUP_TABLE default\n")
            for value in u[i]:
                fh.write(_fmt(value) + "\n")
        fh.write("SCALARS M double 1\nLOOKUP_TABLE default\n")
        for value in biomass:
            fh.write(_fmt(value) + "\n")


def _output_dir(out_dir):
    """``out_dir`` as a Path, created with its parents; None stays None."""
    if out_dir is not None:
        try:
            Path(out_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(f"cannot create output directory: {exc}") from exc
        return Path(out_dir)


def _entropy_margin(reports):
    """Smallest per-step slack of the entropy inequality; inf without steps."""
    return min((r.entropy_margin for r in reports), default=math.inf)


def write_run_metadata(path, spec, mesh, m_star, reports):
    margin = _entropy_margin(reports)
    payload = {
        "experiment": spec.name,
        "model": spec.model,
        "alphas": list(spec.alphas),
        "mesh_xi": mesh.regularity_xi,
        "m_star": m_star,
        "steps": len(reports),
        "newton_iters_total": int(sum(r.newton_iters for r in reports)),
        "newton_iters_max": max((r.newton_iters for r in reports), default=0),
        "dt_halvings_total": int(sum(r.dt_halvings for r in reports)),
        "lu_factorizations_total": int(sum(r.lu_factorizations for r in reports)),
        "lu_solves_total": int(sum(r.lu_solves for r in reports)),
        "dt_min_used": min((r.dt_used for r in reports), default=None),
        "dt_max_used": max((r.dt_used for r in reports), default=None),
        "entropy_margin_min": margin if np.isfinite(margin) else None,
        "max_conservation_defect": max(
            (abs(r.conservation_defect) for r in reports), default=0.0
        ),
        "versions": {
            "biofilm_fv": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
    }
    with _output_file(path) as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


# -- convergence study ------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceResult:
    l2_errors: np.ndarray          # (n_species, n_resolutions)
    fitted_order: np.ndarray       # (n_species,)
    pairwise_order: np.ndarray     # (n_species, n_resolutions - 1)


def convergence_resolutions(spec: ExperimentSpec):
    """The study's coarse resolutions and its reference, checked for a 1D order fit.

    Raises ConfigurationError unless the mesh is 1D, there are at least 4
    strictly increasing resolutions of 2 cells or more and the reference is
    a larger common multiple of them all, so that it averages onto each.
    """
    if spec.dimension != 1:
        raise ConfigurationError("the convergence study runs on 1D meshes")
    res = tuple(int(n) for n in spec.resolutions)
    if len(res) < 4:
        raise ConfigurationError("need at least 4 resolutions for an order fit")
    if res[0] < 2 or any(b <= a for a, b in zip(res, res[1:])):  # 2 cells: the mesh's floor
        raise ConfigurationError(f"resolutions must increase strictly from at least 2 cells, "
                                 f"got {', '.join(map(str, res))}")
    reference = int(spec.reference)
    if reference <= res[-1] or any(reference % n for n in res):
        raise ConfigurationError("reference resolution must be a common multiple "
                                 "of every coarse resolution")
    return res, reference


def run_convergence_study(spec: ExperimentSpec, out_dir=None) -> ConvergenceResult:
    """Spatial-accuracy study against a block-averaged fine reference.

    Each resolution N runs with the fixed step dt = (1/N)^2 so the first-order
    time error stays below the expected second-order space error; the
    reference solution is averaged exactly onto each coarse mesh (nested
    resolutions) and the per-species L2 errors at t_end are fitted in log-log.
    The pairwise order of two successive resolutions is the slope between
    their two points, log(e_prev / e) / log(N / N_prev); it is NaN where an
    error is zero.
    """
    res, reference = convergence_resolutions(spec)
    set_up = [_set_up(replace(spec, n_cells=n, dt_policy="fixed", dt=1.0 / n**2,
                              snapshot_times=()))
              for n in res + (reference,)]
    out = _output_dir(out_dir)
    result = convergence_against_reference([run() for run in set_up])
    if out is not None:
        errors, pairwise = result.l2_errors, result.pairwise_order
        # the coarsest resolution has no predecessor, so its pairwise order is empty
        rows = [
            (n, 1.0 / n, 1.0 / n**2, i + 1, errors[i, j], pairwise[i, j - 1] if j else "")
            for j, n in enumerate(res)
            for i in range(errors.shape[0])
        ]
        _write_csv(out / "convergence.csv",
                   ["resolution", "h", "dt", "species", "l2_error", "pairwise_order"], rows)
    return result


def convergence_against_reference(runs) -> ConvergenceResult:
    """Errors and orders of 1D runs on nested interval meshes against the last, finest one.

    The reference solution is averaged exactly onto each coarse mesh, and
    the per-species errors are the cell-measure-weighted L2 norms at the
    final state.
    """
    ref_u = runs[-1].final_state.u
    n_species, reference = ref_u.shape
    res = [run.mesh.n_cells for run in runs[:-1]]
    errors = np.empty((n_species, len(res)))
    for j, (n, run) in enumerate(zip(res, runs)):
        averaged = ref_u.reshape(n_species, n, reference // n).mean(axis=2)
        errors[:, j] = [float(np.sqrt(run.mesh.cell_measures @ d**2))
                        for d in run.final_state.u - averaged]

    log_h = np.log([1.0 / n for n in res])
    orders = np.array([
        np.polyfit(log_h, np.log(errors[i]), 1)[0] if (errors[i] > 0.0).all() else np.nan
        for i in range(n_species)
    ])
    pairwise = np.diff(np.log(np.where(errors > 0.0, errors, np.nan)), axis=1) / np.diff(log_h)
    return ConvergenceResult(l2_errors=errors, fitted_order=orders, pairwise_order=pairwise)


# -- evolution runs -----------------------------------------------------------------------------


@dataclass(frozen=True)
class EvolutionResult:
    mesh: Mesh
    snapshots: list
    reports: list
    distances: np.ndarray          # (n_steps, n_species), L2 distance to the contact state
    m_star: float
    final_state: State
    entropy_margin: float


def run_evolution(spec: ExperimentSpec, out_dir=None) -> EvolutionResult:
    """Run ``spec`` to t_end through its snapshot times, each in [0, t_end].

    With an ``out_dir`` the snapshots, entropy.csv and run_metadata.json are
    written there.
    """
    return _set_up(spec)(out_dir)


def _set_up(spec: ExperimentSpec):
    """Build what ``run_evolution(spec)`` needs before its first step; return the run.

    The run, a function of ``out_dir``, makes the output directory.
    """
    times = spec.snapshot_schedule()
    mesh = spec.build_mesh()
    model = spec.build_model()
    bdata = spec.build_bdata()
    initial = spec.initial_state(mesh)
    try:  # every model's domain ends at its m_max, below 1
        model.in_domain(np.append(initial.u.sum(axis=0), bdata.biomass))
    except modelmod.ModelDomainError as exc:
        raise ConfigurationError(f"initial or contact biomass: {exc}") from exc
    with np.errstate(divide="ignore", invalid="ignore"):  # G(M_D) may underflow to 0
        log_g_contact = model.log_g(bdata.biomass)
    if not np.isfinite(log_g_contact):
        raise ConfigurationError(f"contact biomass {bdata.biomass!r}: log g = {log_g_contact} "
                                 f"in model {model.name!r}, so the entropy is not finite")
    m_star = scheme.max_principle_bound(initial, bdata)
    cfg = spec.newton_config()

    def run(out_dir=None) -> EvolutionResult:
        state = initial
        out = _output_dir(out_dir)
        reports = []
        distances = []
        snapshots = []

        def record(report, st):
            reports.append(report)
            diff = st.u - bdata.values[:, None]
            distances.append(np.sqrt((diff**2 * mesh.cell_measures).sum(axis=1)))

        for t in times:
            if t > 0.0:
                state = advance(state, t, mesh, model, bdata, cfg, observer=record)
            snapshots.append((state.time, state.u.copy()))
            if out is None:
                continue
            tag = _snapshot_tag(t)
            if mesh.dimension == 1:
                write_snapshot_csv(out / f"snapshot_{tag}.csv", mesh, state.u)
            else:
                write_snapshot_vtk(out / f"snapshot_{tag}.vtk", mesh, state.u,
                                   title=f"{spec.name} t={tag}")
        if state.time < spec.t_end:
            state = advance(state, spec.t_end, mesh, model, bdata, cfg, observer=record)

        if out is not None:
            write_entropy_csv(out / "entropy.csv", reports, len(spec.alphas))
            write_run_metadata(out / "run_metadata.json", spec, mesh, m_star, reports)
        return EvolutionResult(
            mesh=mesh,
            snapshots=snapshots,
            reports=reports,
            distances=np.asarray(distances),
            m_star=m_star,
            final_state=state,
            entropy_margin=_entropy_margin(reports),
        )

    return run


# -- steady-state decay --------------------------------------------------------------------------


@dataclass(frozen=True)
class SteadyStateResult:
    distances: np.ndarray          # (n_steps, n_species)
    late_window_slopes: np.ndarray  # (n_species,)
    entropy_margin: float
    reports: list


def run_steady_state_study(spec: ExperimentSpec, out_dir=None) -> SteadyStateResult:
    """Track the L2 distance to the constant contact steady state over time.

    Requires adaptive stepping (2D evolution over long horizons); the decay
    rate is the log-log slope fitted over the late window [t_end/2, t_end].
    """
    if spec.dt_policy != "adaptive":
        raise ConfigurationError("the steady-state study requires adaptive stepping")
    run = run_evolution(spec, out_dir)
    times = np.array([r.time for r in run.reports])
    dist_arr = run.distances
    window = times >= spec.t_end / 2
    slopes = np.full(dist_arr.shape[1], np.nan)
    for i in range(dist_arr.shape[1]):
        mask = window & (dist_arr[:, i] > 0.0)
        if mask.sum() >= 2:
            slopes[i] = np.polyfit(np.log(times[mask]), np.log(dist_arr[mask, i]), 1)[0]

    if out_dir is not None:
        rows = [
            (t, i + 1, dist_arr[k, i])
            for k, t in enumerate(times)
            for i in range(dist_arr.shape[1])
        ]
        _write_csv(Path(out_dir) / "decay.csv", ["time", "species", "l2_distance"], rows)
    return SteadyStateResult(
        distances=dist_arr,
        late_window_slopes=slopes,
        entropy_margin=run.entropy_margin,
        reports=run.reports,
    )
