import csv
import dataclasses
import json
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import biofilm_fv
import biofilm_fv.cli
from biofilm_fv import diagnostics, harness
from biofilm_fv import (
    ConfigurationError,
    ExperimentSpec,
    build_interval_mesh,
    discrete_entropy,
    build_named_initial_datum,
    build_rectangle_mesh,
    evaluate,
    project_initial,
    run_convergence_study,
    run_evolution,
    run_steady_state_study,
)
from biofilm_fv.harness import DIRICHLET_PREDICATES, write_run_metadata, write_snapshot_vtk
from biofilm_fv.mesh import load_triangle_mesh_file
from biofilm_fv.model import get_model

ACUTE_FIXTURE = str(Path(biofilm_fv.__file__).parent / "data" / "acute_patch.mesh")
SPACE_ERROR_ORDERS = str(Path(__file__).parents[1] / "scripts" / "space_error_orders.py")


# -- named initial data ----------------------------------------------------------------


def cell_of(n, *point):
    """Index of the cell that holds ``point`` on the uniform n-per-axis mesh."""
    return sum(int(c * n) * n**axis for axis, c in enumerate(point))


# on 8 cells per axis, the cell that holds each point below lies wholly in one
# region of the datum, so its average is the datum's value at the point
def test_bumps_1d_values():
    datum = build_named_initial_datum("bumps-1d", {"u_d": (0.1, 0.1)})
    u = datum.cell_average(build_interval_mesh(8, "left"))
    assert np.allclose(u[:, cell_of(8, 0.3)], [0.2, 0.1])
    assert np.allclose(u[:, cell_of(8, 0.6)], [0.1, 0.2])
    assert np.allclose(u[:, cell_of(8, 0.9)], [0.1, 0.1])


def test_bumps_2d_values():
    datum = build_named_initial_datum("bumps-2d", {"u_d": (0.1, 0.1)})
    u = datum.cell_average(build_rectangle_mesh(8, 8, DIRICHLET_PREDICATES["y=1"]))
    assert np.allclose(u[:, cell_of(8, 0.3, 0.2)], [0.2, 0.1])
    assert np.allclose(u[:, cell_of(8, 0.3, 0.8)], [0.1, 0.1])
    assert np.allclose(u[:, cell_of(8, 0.6, 0.1)], [0.1, 0.2])


WRONG_BOX_MESHES = {
    "interval": (lambda: build_interval_mesh(8, "left"), "bumps-2d"),
    "rectangle": (lambda: build_rectangle_mesh(4, 4, DIRICHLET_PREDICATES["y=1"]), "bumps-1d"),
    "triangle": (lambda: load_triangle_mesh_file(ACUTE_FIXTURE, DIRICHLET_PREDICATES["all"]),
                 "bumps-1d"),
}


@pytest.mark.parametrize("kind", sorted(WRONG_BOX_MESHES))
def test_box_of_the_wrong_length_is_a_configuration_error(kind):
    build, name = WRONG_BOX_MESHES[kind]
    mesh = build()
    datum = build_named_initial_datum(name, {"u_d": (0.1, 0.1)})
    with pytest.raises(ConfigurationError, match=f"{mesh.dimension}D mesh"):
        datum.cell_average(mesh)
    three = build_named_initial_datum(
        "custom-indicator", {"base": (0.1,), "bump": (0.1,), "boxes": ((0.0, 0.5, 0.0),)})
    with pytest.raises(ConfigurationError):
        three.cell_average(mesh)


def test_constant_datum_everywhere():
    datum = build_named_initial_datum("constant", {"u_d": (0.05, 0.15)})
    mesh = build_rectangle_mesh(3, 3, lambda x, y: abs(y - 1.0) < 1e-12)
    u = datum.cell_average(mesh)
    assert np.allclose(u[0], 0.05) and np.allclose(u[1], 0.15)


def test_unknown_datum_rejected():
    with pytest.raises(ConfigurationError):
        build_named_initial_datum("nope", {})


@pytest.mark.parametrize("name, params, message", [
    ("constant", {}, "constant datum requires u_d"),
    ("bumps-2d", {"u_d": (0.1, 0.1, 0.1)}, "bumps-2d is a two-species datum"),
    ("custom-indicator", {"base": (0.1,), "bump": (0.1,)}, "custom-indicator requires 'boxes'"),
    ("custom-indicator", {"base": (0.1, 0.1), "bump": (0.1,), "boxes": (None, None)},
     "custom-indicator fields must have equal length"),
], ids=["constant-no-u_d", "bumps-2d-three", "custom-no-boxes", "custom-unequal"])
def test_incomplete_datum_rejected(name, params, message):
    with pytest.raises(ConfigurationError, match=message):
        build_named_initial_datum(name, params)


def test_spec_rejects_a_datum_of_another_species_count():
    spec = ExperimentSpec(name="x", initial="custom-indicator",
                          initial_params={"base": (0.1,), "bump": (0.0,), "boxes": (None,)})
    assert len(spec.u_d) == 2
    with pytest.raises(ConfigurationError, match="initial datum species count mismatch"):
        spec.build_datum()


def test_custom_indicator_datum():
    datum = build_named_initial_datum(
        "custom-indicator",
        {"base": (0.1,), "bump": (0.2,), "boxes": ((0.0, 0.5),)},
    )
    mesh = build_interval_mesh(4, "left")
    u = datum.cell_average(mesh)
    assert np.allclose(u[0], [0.3, 0.3, 0.1, 0.1])


def test_2d_projection_exact_on_partial_overlap():
    # 8x8 grid: the box [0.2, 0.5]x[0, 0.4] covers cell (0.125, 0.25)^2 by
    # the x-fraction (0.25 - 0.2) / 0.125 only
    datum = build_named_initial_datum("bumps-2d", {"u_d": (0.1, 0.1)})
    mesh = build_rectangle_mesh(8, 8, lambda x, y: abs(y - 1.0) < 1e-12)
    state = project_initial(datum, mesh)
    cell = 1 + 8 * 1  # cell with x in (0.125, 0.25), y in (0.125, 0.25)
    assert state.u[0, cell] == pytest.approx(0.1 + 0.1 * (0.05 / 0.125), abs=1e-14)


# -- convergence machinery ----------------------------------------------------------------


def quick_spec(**kw):
    base = dict(
        name="t", model="case2", alphas=(1.0, 1.0), u_d=(0.1, 0.1),
        initial="bumps-1d", t_end=1e-3, dimension=1,
        resolutions=(40, 80, 160, 320), reference=640, dt_policy="fixed",
    )
    base.update(kw)
    return ExperimentSpec(**base)


@pytest.mark.parametrize("t_end", [0.0, -1.0, np.nan, np.inf])
def test_spec_rejects_a_t_end_that_is_not_positive_and_finite(t_end):
    with pytest.raises(ConfigurationError, match="t_end"):
        quick_spec(t_end=t_end)


@pytest.mark.parametrize("policy, key", [("fixed", "dt"), ("adaptive", "dt_max")])
def test_spec_bounds_the_steps_that_t_end_implies(policy, key):
    step = 1.0 / harness.MAX_STEPS
    quick_spec(t_end=1.0, dt_policy=policy, dt=step, dt_min=step, dt_max=step).newton_config()
    spec = quick_spec(t_end=1.0 + 1e-9, dt_policy=policy, dt=step, dt_min=step, dt_max=step)
    with pytest.raises(ConfigurationError, match=f"at {key} = .* implies 1e\\+07 steps"):
        spec.newton_config()


@pytest.mark.parametrize("dt", [0.0, -1e-5, np.nan])
def test_spec_leaves_a_step_that_is_not_positive_to_newton_config(dt):
    spec = quick_spec(dt=dt)
    with pytest.raises(ConfigurationError, match="need 0 < dt_min <= dt_init <= dt_max"):
        spec.newton_config()


def test_set_up_rejects_a_contact_biomass_beyond_the_generic_cap():
    # linear p with b = 2000 bounds the domain at m_max = 0.2915: the initial 0.1
    # lies inside it, the contact biomass 0.3 beyond
    spec = quick_spec(model="generic", generic_p="linear", a=1.0, b=2000.0,
                      u_d=(0.15, 0.15), initial="custom-indicator",
                      initial_params={"base": (0.05, 0.05), "bump": (0.0, 0.0),
                                      "boxes": (None, None)})
    with pytest.raises(ConfigurationError, match="initial or contact biomass: model "
                       "'generic:linear': biomass out of range: min=0.1, max=0.3, m_max=0.2915"):
        run_evolution(spec)


def test_convergence_guards():
    with pytest.raises(ConfigurationError):
        run_convergence_study(quick_spec(resolutions=(40, 80)))
    with pytest.raises(ConfigurationError):
        run_convergence_study(quick_spec(resolutions=(40, 80, 160, 150)))
    with pytest.raises(ConfigurationError):
        run_convergence_study(quick_spec(reference=1000))  # not a multiple of 640


def test_block_average_of_constant_is_exact():
    # a constant initial state stays constant, so every coarse error is zero
    spec = quick_spec(initial="constant", t_end=1e-4,
                      resolutions=(4, 8, 16, 32), reference=64)
    result = run_convergence_study(spec)
    assert np.abs(result.l2_errors).max() == 0.0
    assert np.isnan(result.pairwise_order).all()


def test_convergence_study_smoke_and_csv(tmp_path):
    spec = quick_spec()
    result = run_convergence_study(spec, out_dir=tmp_path)
    assert (result.l2_errors > 0.0).all()
    assert result.fitted_order.shape == (2,)
    # errors must shrink with resolution
    assert (np.diff(result.l2_errors, axis=1) < 0.0).all()
    lines = (tmp_path / "convergence.csv").read_text().strip().splitlines()
    assert lines[0] == "resolution,h,dt,species,l2_error,pairwise_order"
    assert len(lines) == 1 + 4 * 2


def test_convergence_study_pairwise_orders_are_log2_error_ratios(tmp_path):
    spec = quick_spec(resolutions=(8, 16, 32, 64), reference=128, t_end=1e-4)
    result = run_convergence_study(spec, out_dir=tmp_path)
    errors = result.l2_errors
    # the resolutions double, so each pair's order is log2(e_prev / e)
    expected = np.log2(errors[:, :-1] / errors[:, 1:])
    assert np.allclose(result.pairwise_order, expected, rtol=1e-12, atol=0.0)
    with open(tmp_path / "convergence.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    column = {(int(r["resolution"]), int(r["species"])): r["pairwise_order"] for r in rows}
    for i in range(2):
        assert column[(8, i + 1)] == ""
        assert [float(column[(n, i + 1)]) for n in (16, 32, 64)] == list(
            result.pairwise_order[i])


def test_space_error_orders_script_steps_every_resolution_at_the_reference_dt(tmp_path,
                                                                               capsys):
    config = tmp_path / "study.cfg"
    config.write_text("[experiment]\nname = study\nmodel = case2\nu_d = 0.1, 0.1\n"
                      "t_end = 1e-4\n[convergence]\nresolutions = 8, 16, 32, 64\n"
                      "reference = 128\n")
    runpy.run_path(SPACE_ERROR_ORDERS)["main"](str(config))
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("dt = 1/128^2 for N = 8, 16, 32, 64")
    assert len(lines) == 5  # an errors line and an orders line per species
    log_h = np.log([1 / 8, 1 / 16, 1 / 32, 1 / 64])
    species_errors = []
    for i, (errors_line, orders_line) in enumerate(zip(lines[1::2], lines[2::2]), start=1):
        head, errors_text = errors_line.split(": errors ")
        assert head == f"species {i}"
        errors = [float(e) for e in errors_text.split()]
        orders_text, fitted = orders_line.split("; fitted ")
        orders = [float(p) for p in orders_text.split("orders ")[1].split(", ")]
        # the study's orders of the printed errors, to their printed digits
        assert orders == pytest.approx(np.log2(np.divide(errors[:-1], errors[1:])), abs=2e-3)
        assert float(fitted) == pytest.approx(np.polyfit(log_h, np.log(errors), 1)[0], abs=2e-3)
        species_errors.append(errors)
    # the errors of a run at dt = 1/128^2 per N, against the study's reference
    spec = quick_spec(resolutions=(8, 16, 32, 64), reference=128, t_end=1e-4)
    ref_u = run_evolution(dataclasses.replace(spec, n_cells=128, dt=1.0 / 128**2)).final_state.u
    coarse = run_evolution(dataclasses.replace(spec, n_cells=8, dt=1.0 / 128**2)).final_state.u
    error = np.sqrt(np.mean((coarse[0] - ref_u[0].reshape(8, 16).mean(axis=1)) ** 2))
    assert species_errors[0][0] == pytest.approx(error, rel=1e-4)  # printed to 5 digits


def test_space_error_orders_script_without_a_config_exits_with_its_usage(monkeypatch):
    monkeypatch.setattr(sys, "argv", [SPACE_ERROR_ORDERS])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(SPACE_ERROR_ORDERS, run_name="__main__")
    assert exit_info.value.code == "usage: space_error_orders.py CONFIG"  # exit status 1


def test_space_error_orders_script_rejects_what_the_study_rejects(tmp_path, monkeypatch):
    # 96 is no multiple of 64, so the reference cannot be averaged onto N = 64
    config = tmp_path / "study.cfg"
    config.write_text("[experiment]\nname = study\nmodel = case2\nu_d = 0.1, 0.1\n"
                      "t_end = 1e-4\n[convergence]\nresolutions = 8, 16, 32, 64\n"
                      "reference = 96\n")
    spec = quick_spec(resolutions=(8, 16, 32, 64), reference=96, t_end=1e-4)
    with pytest.raises(ConfigurationError, match="common multiple"):
        run_convergence_study(spec)

    def no_run(spec, out_dir=None):
        raise AssertionError("the config is checked before any run")

    monkeypatch.setattr(harness, "run_evolution", no_run)
    with pytest.raises(ConfigurationError, match="common multiple"):
        runpy.run_path(SPACE_ERROR_ORDERS)["main"](str(config))


def test_convergence_study_deterministic_bytes(tmp_path):
    spec = quick_spec(resolutions=(8, 16, 32, 64), reference=128, t_end=1e-4)
    run_convergence_study(spec, out_dir=tmp_path / "a")
    run_convergence_study(spec, out_dir=tmp_path / "b")
    assert (tmp_path / "a/convergence.csv").read_bytes() == (
        tmp_path / "b/convergence.csv"
    ).read_bytes()


@pytest.mark.parametrize("n_cells", [0, 1])
def test_build_mesh_rejects_a_given_resolution_below_two_cells(n_cells):
    # a given resolution is the mesh's, 0 included; only None means the spec's own
    spec = ExperimentSpec(name="x")
    assert spec.build_mesh().n_cells == spec.n_cells
    with pytest.raises(ConfigurationError, match="interval mesh needs at least 2 cells"):
        spec.build_mesh(n_cells=n_cells)


# -- evolution runs ---------------------------------------------------------------------


def test_evolution_snapshot_at_zero_is_projection(tmp_path):
    spec = ExperimentSpec(
        name="evo", model="case1", alphas=(1.0, 1.0), u_d=(0.1, 0.1),
        initial="bumps-1d", t_end=1e-4, dimension=1, n_cells=20,
        dt_policy="fixed", dt=1e-5, snapshot_times=(0.0, 1e-4),
    )
    result = run_evolution(spec, out_dir=tmp_path)
    t0, u0 = result.snapshots[0]
    assert t0 == 0.0
    mesh = spec.build_mesh()
    datum = build_named_initial_datum("bumps-1d", {"u_d": (0.1, 0.1)})
    assert np.array_equal(u0, project_initial(datum, mesh).u)
    # biomass bound and conservation hold at every step
    assert max(r.max_M for r in result.reports) <= result.m_star + 1e-12
    assert max(abs(r.conservation_defect) for r in result.reports) <= 1e-10
    assert (tmp_path / "entropy.csv").exists()
    assert (tmp_path / "snapshot_0.csv").exists()
    assert (tmp_path / "snapshot_0.0001.csv").exists()
    assert (tmp_path / "run_metadata.json").exists()
    header = (tmp_path / "entropy.csv").read_text().splitlines()[0]
    assert header == ("step,time,dt_used,newton_iters,dt_halvings,lu_factorizations,"
                      "lu_solves,residual_norm,entropy,dissipation_1,dissipation_2,max_M,min_u,"
                      "conservation_defect,entropy_margin")


def test_entropy_csv_rows_are_the_step_reports(tmp_path):
    spec = ExperimentSpec(
        name="rows", model="case1", alphas=(1.0, 5.0), u_d=(0.1, 0.1),
        initial="bumps-1d", t_end=2e-4, dimension=1, n_cells=20,
        dt_policy="adaptive", dt=1e-5,
    )
    result = run_evolution(spec, out_dir=tmp_path)
    with open(tmp_path / "entropy.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(result.reports) > 1
    for k, (row, report) in enumerate(zip(rows, result.reports), start=1):
        assert int(row.pop("step")) == k
        dissipation = [float(row.pop(f"dissipation_{i}")) for i in (1, 2)]
        assert dissipation == list(report.dissipation)
        fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
        del fields["dissipation"]
        assert list(row) == list(fields)
        # shortest round-trip formatting: every value reads back exactly
        assert {name: type(value)(row[name]) for name, value in fields.items()} == fields


def test_entropy_margin_is_the_smallest_step_slack(tmp_path):
    # snapshots split the run into several advance calls; the slack of each
    # step is H_{k-1} - H_k - dt * sum_i alpha_i I_i from the initial entropy on
    spec = ExperimentSpec(
        name="margin", model="case1", alphas=(1.0, 5.0), u_d=(0.1, 0.1),
        initial="bumps-1d", t_end=2e-3, dimension=1, n_cells=20,
        dt_policy="adaptive", dt=1e-5, snapshot_times=(5e-4, 1e-3),
    )
    result = run_evolution(spec, out_dir=tmp_path)
    mesh = spec.build_mesh()
    initial = project_initial(spec.build_datum(), mesh)
    model = spec.build_model()
    previous = discrete_entropy(evaluate(initial.u, mesh, model, spec.build_bdata()), mesh, model)
    alphas = np.array(spec.alphas)
    slacks = []
    for r in result.reports:
        slacks.append(previous - r.entropy - r.dt_used * float(alphas @ r.dissipation))
        previous = r.entropy
    assert [r.entropy_margin for r in result.reports] == slacks
    assert result.entropy_margin == min(slacks) > 0.0
    metadata = json.loads((tmp_path / "run_metadata.json").read_text())
    assert metadata["entropy_margin_min"] == min(slacks)


def test_run_metadata_counts_dt_halvings_and_names_scipy(tmp_path):
    spec = ExperimentSpec(
        name="meta", t_end=1e-4, dimension=1, n_cells=10,
        dt_policy="fixed", dt=1e-5, snapshot_times=(1e-4,),
    )
    result = run_evolution(spec, out_dir=tmp_path)
    metadata = json.loads((tmp_path / "run_metadata.json").read_text())
    assert metadata["dt_halvings_total"] == 0
    # equal diffusivities: 1D factors both one-species systems every Newton iterate
    assert (metadata["lu_factorizations_total"] == sum(r.lu_factorizations for r in result.reports)
            == 2 * metadata["newton_iters_total"])
    assert metadata["versions"]["scipy"] == scipy.__version__
    # the total is the sum of the per-step halvings
    reports = [dataclasses.replace(r, dt_halvings=k % 3) for k, r in enumerate(result.reports)]
    write_run_metadata(tmp_path / "halved.json", spec, spec.build_mesh(), result.m_star, reports)
    metadata = json.loads((tmp_path / "halved.json").read_text())
    assert metadata["dt_halvings_total"] == sum(k % 3 for k in range(len(reports))) > 0
    assert metadata["steps"] == len(reports)


def test_evolution_evaluates_each_snapshot_state_once(monkeypatch):
    # two advance calls, one per snapshot: each evaluates its entry state and
    # that state's entropy, so the state at t = 5e-4, which ends the first
    # call and starts the second, is the one evaluated twice; the set-up's
    # domain check of the initial and contact biomass calls no g
    spec = biofilm_fv.cli.load_config(str(Path(__file__).parents[1] / "configs" / "case1-1d.cfg"))
    calls = {"g": 0, "entropy": 0}

    def counted_model(*args, **kwargs):
        model = get_model(*args, **kwargs)
        g = model.g
        model.g = lambda m: calls.__setitem__("g", calls["g"] + 1) or g(m)
        return model

    def counted_entropy(*args):
        calls["entropy"] += 1
        return discrete_entropy(*args)

    monkeypatch.setattr(harness, "get_model", counted_model)
    monkeypatch.setattr(diagnostics, "discrete_entropy", counted_entropy)
    result = run_evolution(spec)
    assert len(result.reports) == 100
    assert calls == {"g": 202, "entropy": 102}


def test_generic_exp_model_reproduces_the_case1_run():
    # generic p = exp with a = b = 2 is case1's model, computed by quadrature
    spec = ExperimentSpec(name="case1", model="case1", u_d=(0.3, 0.3), t_end=1e-3,
                          n_cells=40, dt=1e-5)
    generic = dataclasses.replace(spec, model="generic", generic_p="exp", a=2.0, b=2.0)
    reference, result = run_evolution(spec), run_evolution(generic)
    assert len(result.reports) == len(reference.reports) == 100
    assert [r.newton_iters for r in result.reports] == [r.newton_iters for r in reference.reports]
    assert np.abs(result.final_state.u - reference.final_state.u).max() <= 1e-14
    entropy = np.array([r.entropy for r in result.reports])
    reference_entropy = np.array([r.entropy for r in reference.reports])
    assert np.abs(entropy / reference_entropy - 1.0).max() <= 1e-13


def test_evolution_rejects_late_snapshot():
    spec = ExperimentSpec(
        name="evo", t_end=1e-4, dimension=1, n_cells=10,
        dt_policy="fixed", dt=1e-5, snapshot_times=(2e-4,),
    )
    with pytest.raises(ConfigurationError):
        run_evolution(spec)


@pytest.mark.parametrize("t_end, dt, late", [(1e-11, 1e-12, 1.09e-11), (1.0, 1e-2, 1.0 + 5e-13)])
def test_snapshot_times_past_t_end_are_rejected(t_end, dt, late):
    # a run advances to each snapshot time, so one past t_end would end the run there
    spec = ExperimentSpec(name="evo", t_end=t_end, dimension=1, n_cells=10,
                          dt_policy="fixed", dt=dt, snapshot_times=(late,))
    with pytest.raises(ConfigurationError, match=f"snapshot time {late} lies outside"):
        spec.snapshot_schedule()
    assert dataclasses.replace(spec, snapshot_times=(t_end,)).snapshot_schedule() == [t_end]


def test_evolution_rejects_a_nan_snapshot_time():
    spec = ExperimentSpec(
        name="evo", t_end=1e-4, dimension=1, n_cells=10,
        dt_policy="fixed", dt=1e-5, snapshot_times=(np.nan,),
    )
    with pytest.raises(ConfigurationError, match="snapshot time nan"):
        run_evolution(spec)


def test_spec_defaults_follow_the_dimension():
    spec = ExperimentSpec(name="x")
    assert (spec.datum_name, spec.dirichlet_tag) == ("bumps-1d", "left")
    spec = ExperimentSpec(name="x", dimension=2, nx=4, ny=4, t_end=1e-4)
    assert (spec.datum_name, spec.dirichlet_tag) == ("bumps-2d", "y=1")
    assert len(run_evolution(spec).reports) == 10


def test_replaced_dimension_takes_that_dimensions_defaults():
    spec = dataclasses.replace(ExperimentSpec(name="x"), dimension=2)
    mesh = spec.build_mesh()
    contact = build_rectangle_mesh(32, 32, DIRICHLET_PREDICATES["y=1"])
    assert (mesh.dimension, mesh.n_cells) == (2, 32 * 32)
    assert mesh.dirichlet.size == 32 and np.array_equal(mesh.dirichlet, contact.dirichlet)
    assert spec.build_datum() == build_named_initial_datum("bumps-2d", {"u_d": spec.u_d})


def test_evolution_2d_writes_vtk(tmp_path):
    spec = ExperimentSpec(
        name="evo2d", model="case2", alphas=(1.0, 1.0), u_d=(0.1, 0.1),
        initial="bumps-2d", t_end=2e-5, dimension=2, nx=4, ny=4, dirichlet="y=1",
        dt_policy="fixed", dt=1e-5, snapshot_times=(2e-5,),
    )
    result = run_evolution(spec, out_dir=tmp_path)
    path = tmp_path / "snapshot_2e-05.vtk"
    assert path.exists()
    text = path.read_text().splitlines()
    assert text[0] == "# vtk DataFile Version 3.0"
    assert "DATASET UNSTRUCTURED_GRID" in text
    assert f"CELL_DATA {spec.build_mesh().n_cells}" in text
    assert sum(1 for line in text if line.startswith("SCALARS")) == 3  # u_1, u_2, M


def test_vtk_writer_requires_vertices(tmp_path, case2, bdata_01):
    mesh = build_interval_mesh(4, "left")
    with pytest.raises(ConfigurationError):
        write_snapshot_vtk(tmp_path / "x.vtk", mesh, np.full((2, 4), 0.1))


# -- steady state --------------------------------------------------------------------------


def test_steady_state_from_contact_state_is_flat():
    spec = ExperimentSpec(
        name="flat", model="case2", alphas=(1.0, 1.0), u_d=(0.1, 0.1),
        initial="constant", t_end=0.02, dimension=2, nx=4, ny=4, dirichlet="y=1",
        dt_policy="adaptive", dt=1e-3,
    )
    result = run_steady_state_study(spec)
    assert np.abs(result.distances).max() == 0.0


def test_steady_state_smoke(tmp_path):
    spec = ExperimentSpec(
        name="ss", model="case1", alphas=(1.0, 5.0), u_d=(0.1, 0.1),
        initial="bumps-2d", t_end=0.2, dimension=2, nx=8, ny=8, dirichlet="y=1",
        dt_policy="adaptive", dt=1e-5,
    )
    result = run_steady_state_study(spec, out_dir=tmp_path)
    # 2D solves on held LU factors wherever the refinement converges
    metadata = json.loads((tmp_path / "run_metadata.json").read_text())
    assert 0 < metadata["lu_factorizations_total"] < metadata["newton_iters_total"]
    # each iterate applies LU factors at least once, refinement sweeps on top
    assert metadata["lu_solves_total"] >= metadata["newton_iters_total"]
    entropies = [r.entropy for r in result.reports]
    assert all(b <= a + 1e-12 * max(1.0, a) for a, b in zip(entropies, entropies[1:]))
    assert (tmp_path / "decay.csv").read_text().splitlines()[0] == "time,species,l2_distance"
    # adaptive step range honored
    assert min(r.dt_used for r in result.reports) >= 1e-8
    assert max(r.dt_used for r in result.reports) <= 1e-2


def test_steady_state_requires_adaptive():
    spec = ExperimentSpec(
        name="ss", dimension=2, nx=4, ny=4, dirichlet="y=1",
        initial="bumps-2d", dt_policy="fixed", t_end=0.1,
    )
    with pytest.raises(ConfigurationError):
        run_steady_state_study(spec)
