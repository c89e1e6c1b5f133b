"""Command-line interface.

Subcommands: run, convergence, steady-state, check-mesh, selftest.
Exit codes are stable contracts: 0 success, 2 configuration error,
3 solver failure, 4 inadmissible mesh.

Configuration files are flat key = value text with INI-style sections; see
the README for the grammar.  The only honored environment variable is
THREADS (default thread count for the harness).
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .harness import (
    ConfigurationError,
    DIRICHLET_PREDICATES,
    ExperimentSpec,
    run_convergence_study,
    run_evolution,
    run_steady_state_study,
)
from .mesh import (
    AdmissibilityError,
    MeshError,
    build_interval_mesh,
    build_rectangle_mesh,
    load_triangle_mesh,
    load_triangle_mesh_file,
)
from .model import ModelDomainError, model_case1, model_case2
from .oracle import fd_jacobian
from .scheme import BoundaryData, SolverError, State, evaluate, jacobian
from . import diagnostics

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_MESH = 4

PAPER_SCALE_RESOLUTIONS = (40, 80, 160, 320, 640, 1280, 2560)
PAPER_SCALE_REFERENCE = 5120
PAPER_SCALE_CELLS_1D = 5120


@dataclass(frozen=True)
class RunConfig:
    experiment: ExperimentSpec
    output_dir: Path
    strict_theory: bool = False
    threads: int = 1

    def validate(self):
        if self.strict_theory and any(a != 1.0 for a in self.experiment.alphas):
            raise ConfigurationError(
                "strict-theory mode requires equal unit diffusivities (all alphas = 1)"
            )


def _floats(text):
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _ints(text):
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _normalize_dirichlet(token):
    return token.replace(" ", "").replace("==", "=")


def load_config(path, paper_scale=False) -> ExperimentSpec:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigurationError(f"cannot read config file {path}")
    try:
        exp = parser["experiment"]
    except KeyError:
        raise ConfigurationError(f"{path}: missing [experiment] section") from None
    mesh_sec = parser["mesh"] if parser.has_section("mesh") else {}
    time_sec = parser["time"] if parser.has_section("time") else {}
    conv_sec = parser["convergence"] if parser.has_section("convergence") else {}
    out_sec = parser["output"] if parser.has_section("output") else {}

    try:
        dimension = int(mesh_sec.get("dimension", "1"))
        n_cells = int(mesh_sec.get("cells", "80"))
        resolutions = _ints(conv_sec.get("resolutions", "")) if conv_sec else ()
        reference = int(conv_sec.get("reference", "0")) if conv_sec else 0
        if paper_scale:
            resolutions = PAPER_SCALE_RESOLUTIONS
            reference = PAPER_SCALE_REFERENCE
            if dimension == 1:
                n_cells = PAPER_SCALE_CELLS_1D
            elif "file" not in mesh_sec:
                raise ConfigurationError(
                    "--paper-scale in 2D requires an unstructured mesh file "
                    "(set file = ... in the [mesh] section)"
                )
        spec = ExperimentSpec(
            name=exp.get("name", Path(path).stem),
            model=exp.get("model", "case1"),
            alphas=_floats(exp.get("alphas", "1, 1")),
            u_d=_floats(exp.get("u_d", "0.1, 0.1")),
            initial=exp.get("initial", "bumps-1d" if dimension == 1 else "bumps-2d"),
            t_end=float(exp.get("t_end", "1e-3")),
            dimension=dimension,
            n_cells=n_cells,
            nx=int(mesh_sec.get("nx", "32")),
            ny=int(mesh_sec.get("ny", "32")),
            mesh_file=mesh_sec.get("file", None),
            dirichlet=_normalize_dirichlet(
                mesh_sec.get("dirichlet", "left" if dimension == 1 else "y=1")
            ),
            dt_policy=time_sec.get("policy", "fixed"),
            dt=float(time_sec.get("dt", "1e-5")),
            newton_tol=float(time_sec.get("newton_tol", "1e-10")),
            newton_max_iters=int(time_sec.get("newton_max_iters", "50")),
            dt_min=float(time_sec.get("dt_min", "1e-8")),
            dt_max=float(time_sec.get("dt_max", "1e-2")),
            resolutions=resolutions,
            reference=reference,
            snapshot_times=_floats(out_sec.get("snapshots", "")) if out_sec else (),
            generic_p=exp.get("p", None),
            a=float(exp["a"]) if "a" in exp else None,
            b=float(exp["b"]) if "b" in exp else None,
        )
    except (KeyError, ValueError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    # fail configuration problems early (H3-type data checks included)
    spec.build_bdata()
    return spec


def _prepare(args) -> RunConfig:
    spec = load_config(args.config, paper_scale=args.paper_scale)
    threads = args.threads
    if threads is None:
        text = os.environ.get("THREADS", "1")
        try:
            threads = int(text)
        except ValueError:
            raise ConfigurationError(f"THREADS must be an integer, got {text!r}") from None
    cfg = RunConfig(
        experiment=spec,
        output_dir=Path(args.out) / spec.name,
        strict_theory=args.strict_theory,
        threads=max(1, threads),
    )
    cfg.validate()
    return cfg


def cmd_run(args):
    cfg = _prepare(args)
    result = run_evolution(cfg.experiment, out_dir=cfg.output_dir)
    print(f"run {cfg.experiment.name}: {len(result.reports)} steps to "
          f"t = {result.final_state.time:g}, max biomass {max((r.max_M for r in result.reports), default=0.0):.6f} "
          f"(bound {result.m_star:.6f})")
    print(f"outputs in {cfg.output_dir}")
    return EXIT_OK


def cmd_convergence(args):
    cfg = _prepare(args)
    result = run_convergence_study(cfg.experiment, out_dir=cfg.output_dir,
                                   threads=cfg.threads)
    for i, order in enumerate(result.fitted_order, start=1):
        print(f"species {i}: fitted spatial order {order:.3f}")
    print(f"outputs in {cfg.output_dir}")
    return EXIT_OK


def cmd_steady_state(args):
    cfg = _prepare(args)
    result = run_steady_state_study(cfg.experiment, out_dir=cfg.output_dir)
    for i, slope in enumerate(result.late_window_slopes, start=1):
        print(f"species {i}: late-window decay slope {slope:.3f}")
    print(f"entropy margin {result.entropy_margin:.3e}; outputs in {cfg.output_dir}")
    return EXIT_OK


def cmd_check_mesh(args):
    try:
        mesh = load_triangle_mesh_file(args.path, DIRICHLET_PREDICATES["all"])
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MeshError as exc:
        print(f"inadmissible mesh: {exc}", file=sys.stderr)
        return EXIT_MESH
    print(f"cells: {mesh.n_cells}")
    print(f"edges: {mesh.n_edges}")
    print(f"xi: {mesh.regularity_xi:.6f}")
    print("admissible")
    return EXIT_OK


# -- selftest ------------------------------------------------------------------------------


def _selftest_jacobian(rng, mesh, model, bdata, label):
    n = model.params.n_species
    u = rng.uniform(0.02, 0.4, size=(n, mesh.n_cells))
    state = State(time=0.0, u=u)
    dt = 1e-5
    exact = jacobian(evaluate(u, mesh, model, bdata), dt, mesh, model).toarray()
    approx = fd_jacobian(state, u, dt, mesh, model, bdata)
    deviation = np.abs(exact - approx).max() / np.abs(approx).max()
    ok = deviation < 1e-6
    print(f"{'ok' if ok else 'FAIL'}: jacobian vs central differences ({label}), "
          f"relative deviation {deviation:.2e}")
    return ok


def _selftest_beta_bound(rng):
    mesh = build_interval_mesh(16, "left")
    model = model_case2()
    bdata = BoundaryData((0.1, 0.1))
    worst = np.inf
    for _ in range(100):
        u = rng.uniform(0.01, 0.45, size=(2, mesh.n_cells))
        lhs, rhs = diagnostics.entropy_production_beta_bound(
            State(time=0.0, u=u), mesh, model, bdata
        )
        worst = min(worst, lhs - rhs)
    ok = worst >= -1e-12
    print(f"{'ok' if ok else 'FAIL'}: dissipation lower bound on 100 random states, "
          f"worst margin {worst:.3e}")
    return ok


def _selftest_models():
    from scipy.integrate import quad

    ok = True
    for model in (model_case1(), model_case2()):
        a, b = model.params.a, model.params.b

        def integrand(s):
            return s**a / (1.0 - s) ** b / float(model.p(s)) ** 2

        worst = 0.0
        for m in np.linspace(0.05, 0.9, 10):
            ref = quad(integrand, 0.0, m, epsabs=1e-14, epsrel=1e-12, limit=200)[0] / m
            worst = max(worst, abs(float(model.g(m)) - ref) / ref)
        good = worst < 1e-8
        ok = ok and good
        print(f"{'ok' if good else 'FAIL'}: {model.name} mobility ratio vs quadrature, "
              f"max rel error {worst:.2e}")
    return ok


def cmd_selftest(args):
    rng = np.random.default_rng(args.seed)
    checks = []
    checks.append(_selftest_models())

    bdata = BoundaryData((0.1, 0.1))
    checks.append(_selftest_jacobian(rng, build_interval_mesh(8, "left"),
                                     model_case1(), bdata, "1D, 8 cells"))
    checks.append(_selftest_jacobian(
        rng,
        build_rectangle_mesh(3, 3, DIRICHLET_PREDICATES["y=1"]),
        model_case2((1.0, 10.0)),
        bdata,
        "2D, 3x3",
    ))
    checks.append(_selftest_beta_bound(rng))

    mesh = build_rectangle_mesh(4, 4, DIRICHLET_PREDICATES["y=1"])
    good = abs(mesh.regularity_xi - 0.5) < 1e-14
    print(f"{'ok' if good else 'FAIL'}: rectangle mesh regularity xi = {mesh.regularity_xi}")
    checks.append(good)

    try:
        load_triangle_mesh(
            [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
            [(0, 1, 2), (0, 2, 3)],
            DIRICHLET_PREDICATES["all"],
        )
        print("FAIL: right-triangle mesh was accepted")
        checks.append(False)
    except AdmissibilityError:
        print("ok: right-triangle mesh rejected")
        checks.append(True)

    if all(checks):
        print("selftest passed")
        return EXIT_OK
    print("selftest FAILED", file=sys.stderr)
    return 1


# -- entry point ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="biofilm-fv",
        description="Finite-volume solver for saturation-limited cross-diffusion "
                    "biofilm growth",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default="out", help="output root directory")
        p.add_argument("--threads", type=int, default=None,
                       help="harness thread count (default: THREADS env or 1)")
        p.add_argument("--strict-theory", action="store_true",
                       help="require equal unit diffusivities")
        p.add_argument("--paper-scale", action="store_true",
                       help="use the full-size 5120-cell / unstructured-mesh setup")

    p_run = sub.add_parser("run", help="time evolution with snapshots")
    add_run_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_conv = sub.add_parser("convergence", help="spatial convergence study")
    add_run_flags(p_conv)
    p_conv.set_defaults(func=cmd_convergence)

    p_ss = sub.add_parser("steady-state", help="decay towards the contact steady state")
    add_run_flags(p_ss)
    p_ss.set_defaults(func=cmd_steady_state)

    p_mesh = sub.add_parser("check-mesh", help="validate a triangle mesh file")
    p_mesh.add_argument("path", help="mesh file (nodes/triangles text format)")
    p_mesh.set_defaults(func=cmd_check_mesh)

    p_self = sub.add_parser("selftest", help="randomized structural checks")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, ModelDomainError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except MeshError as exc:
        print(f"mesh error: {exc}", file=sys.stderr)
        return EXIT_CONFIG if args.command != "check-mesh" else EXIT_MESH


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
