import numpy as np
import pytest

from biofilm_fv import (
    BoundaryData,
    ModelDomainError,
    NewtonConfig,
    advance,
    build_interval_mesh,
    build_rectangle_mesh,
    discrete_entropy,
    discrete_norms,
    dissipation,
    entropy_density,
    entropy_production_beta_bound,
    evaluate,
    model_case2,
    project_initial,
    reconstruct_gradient,
)
from biofilm_fv.harness import build_named_initial_datum
from conftest import make_state, random_admissible

TOP = lambda x, y: abs(y - 1.0) < 1e-12


# -- entropy ------------------------------------------------------------------------


def test_entropy_zero_at_contact_state(case1, bdata_01):
    mesh = build_interval_mesh(12, "left")
    state = make_state(np.full((2, 12), 0.1))
    record = evaluate(state.u, mesh, case1, bdata_01)
    assert discrete_entropy(record, mesh, case1) == pytest.approx(0.0, abs=1e-14)


def test_entropy_single_cell_matches_density_oracle():
    # a two-cell mesh with equal values reduces to m(Omega) * h*(u | u^D)
    mesh = build_interval_mesh(2, "left")
    model = model_case2(alphas=(1.0,))
    bdata = BoundaryData((0.1,))
    state = make_state(np.full((1, 2), 0.2))
    expected = 1.0 * entropy_density([0.2], model, [0.1])
    record = evaluate(state.u, mesh, model, bdata)
    assert discrete_entropy(record, mesh, model) == pytest.approx(expected, abs=1e-11)


def test_entropy_nonincreasing_along_trajectory(case2, bdata_01):
    mesh = build_interval_mesh(40, "left")
    datum = build_named_initial_datum("bumps-1d", {"u_d": (0.1, 0.1)})
    state = project_initial(datum, mesh)
    reports = []
    advance(state, 3e-4, mesh, case2, bdata_01,
            NewtonConfig(dt_min=1e-5, dt_init=1e-5, dt_max=1e-5),
            observer=lambda r, s: reports.append(r))
    entropies = [r.entropy for r in reports]
    assert all(b <= a + 1e-12 for a, b in zip(entropies, entropies[1:]))


def test_entropy_and_dissipation_positive(case2, bdata_01):
    mesh = build_interval_mesh(8, "left")
    rng = np.random.default_rng(2)
    state = make_state(random_admissible(rng, 2, 8))
    record = evaluate(state.u, mesh, case2, bdata_01)
    assert discrete_entropy(record, mesh, case2) > 0.0
    assert (dissipation(record, mesh) >= 0.0).all()


# -- dissipation ----------------------------------------------------------------------


def test_dissipation_zero_at_constant_state(case2, bdata_01):
    # constant equal to the contact value: every edge difference vanishes
    mesh = build_interval_mesh(10, "left")
    state = make_state(np.full((2, 10), 0.1))
    assert np.abs(dissipation(evaluate(state.u, mesh, case2, bdata_01), mesh)).max() == 0.0


def test_dissipation_two_cell_hand_value():
    # single interior edge of a two-cell mesh, plus the Dirichlet edge
    mesh = build_interval_mesh(2, "left")
    model = model_case2(alphas=(1.0,))
    bdata = BoundaryData((0.1,))
    x, y = 0.3, 0.2
    state = make_state(np.array([[x, y]]))

    def g(m):
        return m / (2.0 * (1.0 - m) ** 2)

    def p2(m):
        return (1.0 - m) ** 2

    tau_int, tau_dir = 2.0, 4.0
    interior = (
        tau_int * 0.5 * (p2(x) + p2(y)) * (np.sqrt(y * g(y)) - np.sqrt(x * g(x))) ** 2
    )
    boundary = (
        tau_dir * 0.5 * (p2(x) + p2(0.1)) * (np.sqrt(0.1 * g(0.1)) - np.sqrt(x * g(x))) ** 2
    )
    value = dissipation(evaluate(state.u, mesh, model, bdata), mesh)[0]
    assert value == pytest.approx(interior + boundary, rel=1e-13)


def test_dissipation_nonnegative_random(case1, bdata_01):
    rng = np.random.default_rng(9)
    mesh = build_interval_mesh(16, "left")
    for _ in range(20):
        state = make_state(random_admissible(rng, 2, 16))
        assert (dissipation(evaluate(state.u, mesh, case1, bdata_01), mesh) >= 0.0).all()


def test_dissipation_rejects_a_negative_proportion(case1, bdata_01):
    mesh = build_interval_mesh(4, "left")
    u = np.array([[0.2, -1e-3, 0.1, 0.1], [0.1, 0.1, 0.1, 0.1]])
    with pytest.raises(ModelDomainError, match="negative species proportion"):
        dissipation(evaluate(u, mesh, case1, bdata_01), mesh)


# -- production lower bound -------------------------------------------------------------


def test_beta_bound_constant_state(case2, bdata_01):
    mesh = build_interval_mesh(10, "left")
    state = make_state(np.full((2, 10), 0.1))
    lhs, rhs = entropy_production_beta_bound(evaluate(state.u, mesh, case2, bdata_01), mesh)
    assert lhs == 0.0 and rhs == 0.0


def test_beta_bound_equal_biomass_reduction(case2):
    # equal biomass on both sides: each edge term collapses to
    # tau p(M)^2 g(M) (D sqrt(u_i))^2, exactly twice the bound
    mesh = build_interval_mesh(2, "both")
    model = model_case2(alphas=(1.0, 1.0))
    bdata = BoundaryData((0.15, 0.15))
    state = make_state(np.array([[0.1, 0.2], [0.2, 0.1]]))  # biomass 0.3 everywhere
    lhs, rhs = entropy_production_beta_bound(evaluate(state.u, mesh, model, bdata), mesh)
    assert lhs == pytest.approx(2.0 * rhs, rel=1e-13)
    assert lhs >= rhs


def test_beta_bound_random_states(case2, bdata_01):
    rng = np.random.default_rng(17)
    mesh = build_interval_mesh(16, "left")
    for _ in range(100):
        state = make_state(random_admissible(rng, 2, 16))
        lhs, rhs = entropy_production_beta_bound(evaluate(state.u, mesh, case2, bdata_01), mesh)
        assert lhs >= rhs - 1e-12


def test_beta_bound_random_states_2d(case1, bdata_01):
    rng = np.random.default_rng(23)
    mesh = build_rectangle_mesh(4, 4, TOP)
    for _ in range(50):
        state = make_state(random_admissible(rng, 2, mesh.n_cells))
        lhs, rhs = entropy_production_beta_bound(evaluate(state.u, mesh, case1, bdata_01), mesh)
        assert lhs >= rhs - 1e-12


# -- norms ---------------------------------------------------------------------------


def test_norms_constant_field_with_matching_boundary():
    mesh = build_interval_mesh(10, "left")
    rep = discrete_norms(np.full(10, 0.7), mesh, dirichlet_values=0.7)
    assert rep.h1_semi == 0.0
    assert rep.linf == pytest.approx(0.7)


def test_norms_linear_field_hand_value():
    # v_K = x_K on 10 cells, Dirichlet value 0 at x = 0:
    # 9 interior edges (tau 10, jump 0.1) + one boundary edge (tau 20, jump 0.05)
    mesh = build_interval_mesh(10, "left")
    v = mesh.cell_centers[:, 0]
    rep = discrete_norms(v, mesh, dirichlet_values=0.0)
    expected_sq = 9 * 10.0 * 0.1**2 + 20.0 * 0.05**2
    assert rep.h1_semi**2 == pytest.approx(expected_sq, rel=1e-13)


def test_norms_unit_field_l2():
    mesh = build_rectangle_mesh(5, 5, TOP)
    rep = discrete_norms(np.ones(mesh.n_cells), mesh)
    assert rep.l2 == pytest.approx(1.0, rel=1e-14)


# -- gradient reconstruction --------------------------------------------------------------


def test_gradient_zero_for_constant_field():
    mesh = build_rectangle_mesh(4, 4, TOP)
    grad = reconstruct_gradient(np.full(mesh.n_cells, 0.3), mesh, dirichlet_values=0.3)
    assert np.abs(grad).max() == 0.0


def test_gradient_linear_field_on_rectangles():
    # v = x: the two-point difference equals the slope times the center
    # distance, and the diamond normalization doubles it on the aligned
    # diamonds (the transverse diamonds see zero), which is exactly what the
    # norm identity below requires
    mesh = build_rectangle_mesh(4, 4, TOP)
    v = mesh.cell_centers[:, 0]
    grad = reconstruct_gradient(v, mesh)
    interior = mesh.interior
    normals = mesh.edge_normals[interior]
    aligned = np.abs(normals[:, 0]) > 0.5
    g_int = grad[interior]
    assert np.allclose(g_int[aligned, 0], 2.0, atol=1e-12)
    assert np.allclose(g_int[aligned, 1], 0.0, atol=1e-12)
    assert np.allclose(g_int[~aligned], 0.0, atol=1e-12)


def test_gradient_l2_norm_identity():
    # ||grad||_{L2}^2 over the dual cells equals 2 sum tau (D v)^2 on
    # interior-only fields, i.e. sqrt(2) times the H1 seminorm
    mesh = build_rectangle_mesh(5, 4, TOP)
    rng = np.random.default_rng(4)
    v = rng.normal(size=mesh.n_cells)
    grad = reconstruct_gradient(v, mesh)
    norm_sq = float((mesh.edge_dual_measures * (grad**2).sum(axis=1)).sum())
    m = mesh.interior.size
    K, L, tau = mesh.flux_K[:m], mesh.flux_L[:m], mesh.flux_tau[:m]
    semi_sq = float((tau * (v[L] - v[K]) ** 2).sum())
    assert norm_sq == pytest.approx(2.0 * semi_sq, rel=1e-12)


def test_gradient_1d_interior():
    mesh = build_interval_mesh(10, "left")
    v = mesh.cell_centers[:, 0]
    grad = reconstruct_gradient(v, mesh)
    assert np.allclose(grad[mesh.interior, 0], 2.0, atol=1e-13)


def test_singular_weight_zero_at_constant_state(case1, bdata_01):
    from biofilm_fv import singular_gradient_weight

    mesh = build_interval_mesh(10, "left")
    state = make_state(np.full((2, 10), 0.1))
    record = evaluate(state.u, mesh, case1, bdata_01)
    assert singular_gradient_weight(record, mesh, case1) == 0.0


def test_singular_weight_two_cell_hand_value(bdata_01):
    from biofilm_fv import model_case1, singular_gradient_weight

    mesh = build_interval_mesh(2, "right")  # single Dirichlet edge at x = 1
    model = model_case1()
    state = make_state(np.array([[0.1, 0.15], [0.1, 0.1]]))  # biomass 0.2, 0.25
    # interior edge: tau 2, midpoint 0.225; boundary edge: tau 4, midpoint 0.225
    a, b, kappa = 2.0, 2.0, 1.0
    expected = 2.0 * 0.225 ** (a - 1) * (1 - 0.225) ** (-1 - b - kappa) * 0.05**2
    expected += 4.0 * 0.225 ** (a - 1) * (1 - 0.225) ** (-1 - b - kappa) * 0.05**2
    value = singular_gradient_weight(evaluate(state.u, mesh, model, bdata_01), mesh, model)
    assert value == pytest.approx(expected, rel=1e-13)


# -- determinism -----------------------------------------------------------------------


def test_diagnostics_bitwise_deterministic(case1, bdata_01):
    rng = np.random.default_rng(31)
    mesh = build_interval_mesh(16, "left")
    state = make_state(random_admissible(rng, 2, 16))
    first = evaluate(state.u, mesh, case1, bdata_01)
    second = evaluate(state.u, mesh, case1, bdata_01)
    h1, d1 = discrete_entropy(first, mesh, case1), dissipation(first, mesh)
    h2, d2 = discrete_entropy(second, mesh, case1), dissipation(second, mesh)
    assert h1 == h2
    assert np.array_equal(d1, d2)
