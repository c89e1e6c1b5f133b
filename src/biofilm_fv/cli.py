"""Command-line interface.

Subcommands: run, convergence, steady-state, check-mesh, selftest.
Exit codes are stable contracts: 0 success, 1 a failed selftest check,
2 configuration error, 3 solver failure, 4 inadmissible mesh.

Configuration files are flat key = value text with INI-style sections; see
the README for the grammar.  No environment variable is read.
"""

from __future__ import annotations

import argparse
import configparser
import sys
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
from .model import (ModelDomainError, equal_diffusivities, get_model, model_case1,
                    model_case2)
from .oracle import beta_bound_margin, g_deviation, jacobian_deviation, random_admissible
from .scheme import BoundaryData, SolverError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_MESH = 4


def _finite(text):
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _floats(text):
    return tuple(_finite(tok) for tok in text.replace(",", " ").split())


def _ints(text):
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _seed(text):
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be a nonnegative integer, got {text!r}")
    return int(text)


def _normalize_dirichlet(token):
    return token.replace(" ", "").replace("==", "=")


# the parser of each [section] key; ExperimentSpec's field defaults are the only defaults
_CONFIG_KEYS = {
    "experiment": {"name": str, "model": str, "alphas": _floats, "u_d": _floats,
                   "initial": str, "t_end": _finite, "p": str, "a": _finite, "b": _finite},
    "mesh": {"dimension": int, "cells": int, "nx": int, "ny": int, "file": str,
             "dirichlet": _normalize_dirichlet},
    "time": {"policy": str, "dt": _finite, "dt_min": _finite, "dt_max": _finite},
    "convergence": {"resolutions": _ints, "reference": int},
    "output": {"snapshots": _floats},
}
# the keys whose ExperimentSpec field has another name
_FIELD_NAMES = {"p": "generic_p", "cells": "n_cells", "file": "mesh_file",
               "policy": "dt_policy", "snapshots": "snapshot_times"}


def _unread_keys(keys, command):
    """(key, why) of each key in ``keys`` that ``command`` never reads; None skips its clauses."""
    dimension = keys.get("dimension", ExperimentSpec.dimension)
    clauses = (  # (keys, whether the run never reads them, why)
        ("cells", dimension == 2, "in 2D"),
        ("nx ny file", dimension == 1, "in 1D"),
        ("nx ny", "file" in keys, "beside [mesh] file"),
        ("p a b", keys.get("model") != "generic", "without model = generic"),
        ("cells policy dt dt_min dt_max snapshots", command == "convergence", "by convergence"),
        ("dt_min dt_max", keys.get("policy") != "adaptive", "without policy = adaptive"),
        ("resolutions reference", command in ("run", "steady-state"), f"by {command}"),
    )
    return [(k, why) for names, never, why in clauses if never for k in names.split() if k in keys]


def _config_keys(path):
    """The parsed value of each key that a config file sets; unknown names are errors."""
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigurationError(f"cannot read config file {path}")
        if not parser.has_section("experiment"):
            raise ConfigurationError(f"{path}: missing [experiment] section")
        if parser.defaults():  # [DEFAULT] would hand its keys to every section
            raise ConfigurationError(f"{path}: unknown section [{parser.default_section}]")
        values = {}
        for section in parser.sections():
            keys = _CONFIG_KEYS.get(section)
            if keys is None:
                raise ConfigurationError(f"{path}: unknown section [{section}]")
            for key, text in parser.items(section):
                if key not in keys:
                    raise ConfigurationError(f"{path}: unknown key {key!r} in [{section}]")
                try:
                    values[key] = keys[key](text)
                except ValueError as exc:
                    raise ConfigurationError(f"{path}: [{section}] {key}: {exc}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    return values


def load_config(path, command=None) -> ExperimentSpec:
    """The experiment a config file describes; a key ``command`` never reads is an error."""
    keys = _config_keys(path)
    name = keys.setdefault("name", Path(path).stem)
    # the outputs go to <out>/<name>, so the name may not lead out of --out
    if name in ("", ".", "..") or Path(name).name != name:
        raise ConfigurationError(f"{path}: [experiment] name: {name!r} is not a plain file name")
    unread = [f"[{section}] {key} is not read {why}" for key, why in _unread_keys(keys, command)
              for section in _CONFIG_KEYS if key in _CONFIG_KEYS[section]]
    if unread:
        raise ConfigurationError(f"{path}: " + "; ".join(unread))
    if keys.get("initial") == "custom-indicator":
        raise ConfigurationError(f"{path}: initial = custom-indicator needs base, bump and "
                                 "boxes, which only ExperimentSpec.initial_params can give")
    spec = ExperimentSpec(**{_FIELD_NAMES.get(key, key): value for key, value in keys.items()})
    # fail configuration problems early (H3-type data checks included)
    spec.build_bdata()
    return spec


def _prepare(args):
    """The experiment and its output directory."""
    spec = load_config(args.config, args.command)
    if args.strict_theory and not equal_diffusivities(spec.alphas):
        raise ConfigurationError("strict-theory mode requires equal diffusivities")
    return spec, Path(args.out) / spec.name


def cmd_run(args):
    spec, out_dir = _prepare(args)
    result = run_evolution(spec, out_dir=out_dir)
    print(f"run {spec.name}: {len(result.reports)} steps to "
          f"t = {result.final_state.time:g}, max biomass {max((r.max_M for r in result.reports), default=0.0):.6f} "
          f"(bound {result.m_star:.6f})")
    print(f"outputs in {out_dir}")
    return EXIT_OK


def cmd_convergence(args):
    spec, out_dir = _prepare(args)
    result = run_convergence_study(spec, out_dir=out_dir)
    pairs = [f"{a}->{b}" for a, b in zip(spec.resolutions, spec.resolutions[1:])]
    for i, (order, pairwise) in enumerate(zip(result.fitted_order, result.pairwise_order),
                                          start=1):
        print(f"species {i}: fitted spatial order {order:.3f}")
        print("  pairwise orders " + ", ".join(f"{p} {o:.3f}" for p, o in zip(pairs, pairwise)))
    print(f"outputs in {out_dir}")
    return EXIT_OK


def cmd_steady_state(args):
    spec, out_dir = _prepare(args)
    result = run_steady_state_study(spec, out_dir=out_dir)
    for i, slope in enumerate(result.late_window_slopes, start=1):
        print(f"species {i}: late-window decay slope {slope:.3f}")
    print(f"entropy margin {result.entropy_margin:.3e}; outputs in {out_dir}")
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


def cmd_selftest(args):
    rng = np.random.default_rng(args.seed)
    checks = []

    def check(ok, line):
        print(f"{'ok' if ok else 'FAIL'}: {line}")
        checks.append(ok)

    generic = get_model("generic", (1.0, 1.0), a=1.5, b=1.0, p_name="quadratic")
    for model in (model_case1(), model_case2(), generic):
        worst = g_deviation(model, np.linspace(0.05, 0.9, 10))
        check(worst < 1e-8, f"{model.name} mobility ratio vs quadrature, max rel error {worst:.2e}")

    bdata = BoundaryData((0.1, 0.1))
    for label, mesh, model in (
            ("1D, 8 cells", build_interval_mesh(8, "left"), model_case1()),
            ("2D, 3x3", build_rectangle_mesh(3, 3, DIRICHLET_PREDICATES["y=1"]),
             model_case2((1.0, 10.0))),
            (f"1D, 8 cells, {generic.name}", build_interval_mesh(8, "left"), generic)):
        u = random_admissible(rng, 2, mesh.n_cells, 0.02, 0.4)
        deviation = jacobian_deviation(u, 1e-5, mesh, model, bdata)
        check(deviation < 1e-6,
              f"jacobian vs central differences ({label}), relative deviation {deviation:.2e}")

    worst = beta_bound_margin(rng, build_interval_mesh(16, "left"), model_case2(), bdata)
    check(worst >= -1e-12,
          f"dissipation lower bound on 100 random states, worst margin {worst:.3e}")

    xi = build_rectangle_mesh(4, 4, DIRICHLET_PREDICATES["y=1"]).regularity_xi
    check(abs(xi - 0.5) < 1e-14, f"rectangle mesh regularity xi = {xi}")
    try:
        load_triangle_mesh(
            [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
            [(0, 1, 2), (0, 2, 3)],
            DIRICHLET_PREDICATES["all"],
        )
    except AdmissibilityError:
        check(True, "right-triangle mesh rejected")
    else:
        check(False, "right-triangle mesh was accepted")

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
                       help="ignored; runs are serial")
        p.add_argument("--strict-theory", action="store_true",
                       help="require equal diffusivities")

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
    p_self.add_argument("--seed", type=_seed, default=0)
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, MeshError) as exc:
        # a config whose mesh cannot be built is a configuration error;
        # check-mesh reports its own MeshError as an inadmissible mesh
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, ModelDomainError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
