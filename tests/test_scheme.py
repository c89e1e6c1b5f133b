from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import dataclasses

import biofilm_fv
from biofilm_fv import diagnostics, scheme
from biofilm_fv import (
    BoundaryData,
    InvariantViolation,
    ModelDomainError,
    ModelFunctions,
    NewtonConfig,
    NewtonFailure,
    SolverFailure,
    State,
    advance,
    build_interval_mesh,
    build_rectangle_mesh,
    evaluate,
    jacobian,
    load_triangle_mesh_file,
    max_principle_bound,
    model_case1,
    model_case2,
    newton_step,
    project_initial,
    residual,
)
from biofilm_fv.harness import IndicatorDatum, build_named_initial_datum
from biofilm_fv.mesh import with_contact
from biofilm_fv.oracle import jacobian_deviation, random_admissible
from conftest import GENERIC_MODELS, make_state, named_model

ACUTE_FIXTURE = Path(biofilm_fv.__file__).parent / "data" / "acute_patch.mesh"


# -- initial projection -------------------------------------------------------------


def test_project_indicator_aligned_cell():
    datum = build_named_initial_datum("bumps-1d", {"u_d": (0.1, 0.1)})
    mesh = build_interval_mesh(10, "left")
    state = project_initial(datum, mesh)
    # cell (0.2, 0.3) lies inside the first bump
    assert state.u[0, 2] == pytest.approx(0.2, abs=1e-15)
    assert state.u[1, 2] == pytest.approx(0.1, abs=1e-15)


def test_project_constant_datum():
    datum = build_named_initial_datum("constant", {"u_d": (0.1, 0.2)})
    mesh = build_interval_mesh(7, "left")
    state = project_initial(datum, mesh)
    assert np.allclose(state.u[0], 0.1) and np.allclose(state.u[1], 0.2)


def test_project_straddling_cell_exact():
    # cell (0.2, 0.3) with a jump at 0.25: average 0.1 + 0.1 * (0.05 / 0.1)
    datum = IndicatorDatum(base=(0.1,), bump=(0.1,), boxes=((0.25, 0.5),))
    mesh = build_interval_mesh(10, "left")
    state = project_initial(datum, mesh)
    assert state.u[0, 2] == pytest.approx(0.15, abs=1e-15)


def test_project_rejects_saturated_data():
    datum = IndicatorDatum(base=(0.6,), bump=(0.5,), boxes=((0.2, 0.5),))
    mesh = build_interval_mesh(10, "left")
    with pytest.raises(ModelDomainError):
        project_initial(datum, mesh)


def test_project_triangles_midpoint_rule():
    # triangle cells take the datum's value at the cell center
    mesh = load_triangle_mesh_file(str(ACUTE_FIXTURE), lambda x, y: True)
    box = (0.2, 0.6, 0.1, 0.5)
    datum = IndicatorDatum(base=(0.1,), bump=(0.2,), boxes=(box,))
    state = project_initial(datum, mesh)
    x, y = mesh.cell_centers.T
    inside = (box[0] <= x) & (x <= box[1]) & (box[2] <= y) & (y <= box[3])
    assert 0 < inside.sum() < mesh.n_cells
    assert np.array_equal(state.u[0], np.where(inside, 0.1 + 0.2, 0.1))


# -- residual -----------------------------------------------------------------------


def test_residual_vanishes_at_uniform_contact_state(case1, bdata_01):
    mesh = build_interval_mesh(12, "left")
    u = np.full((2, 12), 0.1)
    state = make_state(u)
    res = residual(state, evaluate(u, mesh, case1, bdata_01), 1e-4, mesh)
    assert np.abs(res).max() == 0.0


def test_residual_flux_antisymmetry(case2, bdata_01):
    # a two-cell mesh carries a single interior flux; swapping the cells
    # must flip the sign of its contribution exactly
    mesh = build_interval_mesh(2, "left")
    u = np.array([[0.3, 0.05], [0.1, 0.2]])
    state = make_state(u)
    dt = 1e30  # suppress the time term
    res = residual(state, evaluate(u, mesh, case2, bdata_01), dt, mesh)
    swapped = residual(make_state(u[:, ::-1]),
                       evaluate(u[:, ::-1], mesh, case2, BoundaryData((1e-12, 1e-12))), dt, mesh)
    # interior contribution of the swapped configuration shows up mirrored;
    # compare against a direct evaluation instead: F_K + F_L = 0 by assembly
    tau = mesh.flux_tau[0]  # the one interior edge
    biomass = u.sum(axis=0)
    g = case2.g(biomass)
    psq = 0.5 * (case2.p(biomass[0]) ** 2 + case2.p(biomass[1]) ** 2)
    for i in range(2):
        flux_into_0 = -tau * psq * (u[i, 1] * g[1] - u[i, 0] * g[0])
        # Dirichlet edge only touches cell 0; cell 1 sees the interior flux alone
        assert res[i, 1] == pytest.approx(-flux_into_0, rel=1e-14, abs=1e-300)


def test_residual_three_cell_hand_expansion(case2):
    # independent expansion of the scheme on three cells, Dirichlet left
    mesh = build_interval_mesh(3, "left")
    u_prev = np.array([[0.12, 0.2, 0.3], [0.08, 0.15, 0.1]])
    u = np.array([[0.1, 0.25, 0.28], [0.05, 0.18, 0.12]])
    u_d = np.array([0.1, 0.1])
    alphas = np.array([1.0, 10.0])
    model = model_case2(alphas=tuple(alphas))
    bdata = BoundaryData(tuple(u_d))
    dt = 1e-3
    h = 1.0 / 3.0

    def g(m):
        return m / (2.0 * (1.0 - m) ** 2)

    def p2(m):
        return (1.0 - m) ** 2

    M = u.sum(axis=0)
    MD = u_d.sum()
    expected = np.zeros((2, 3))
    for i in range(2):
        v = u[i] * g(M)
        v_d = u_d[i] * g(MD)
        # Dirichlet edge at x=0: tau = 2/h
        f_d = -(2.0 / h) * alphas[i] * 0.5 * (p2(M[0]) + p2(MD)) * (v_d - v[0])
        # interior edges: tau = 1/h
        f01 = -(1.0 / h) * alphas[i] * 0.5 * (p2(M[0]) + p2(M[1])) * (v[1] - v[0])
        f12 = -(1.0 / h) * alphas[i] * 0.5 * (p2(M[1]) + p2(M[2])) * (v[2] - v[1])
        expected[i, 0] = h / dt * (u[i, 0] - u_prev[i, 0]) + f_d + f01
        expected[i, 1] = h / dt * (u[i, 1] - u_prev[i, 1]) - f01 + f12
        expected[i, 2] = h / dt * (u[i, 2] - u_prev[i, 2]) - f12
    res = residual(make_state(u_prev), evaluate(u, mesh, model, bdata), dt, mesh)
    assert np.abs(res - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", ["1d", "rectangle", "acute"])
def test_edge_sums_match_three_bincounts_per_species(name, n):
    # the one scatter against three bincounts per species: bitwise in 1D,
    # where each cell takes at most one term per group, and to round-off in
    # 2D, where the K terms of a cell are summed in another order (measured
    # at most 3.6e-16 of the largest sum)
    mesh = _assembly_meshes()[name]
    rng = np.random.default_rng(17)
    values = rng.standard_normal((n, mesh.n_cells))
    edges = rng.standard_normal((n, mesh.flux_K.size))
    K, L, m = mesh.flux_K, mesh.flux_L, mesh.interior.size
    expected = values.copy()
    for i in range(n):
        expected[i] += np.bincount(K[:m], weights=edges[i, :m], minlength=mesh.n_cells)
        expected[i] -= np.bincount(L[:m], weights=edges[i, :m], minlength=mesh.n_cells)
        expected[i] += np.bincount(K[m:], weights=edges[i, m:], minlength=mesh.n_cells)
    sums = scheme._add_edge_sums(values, edges, mesh)
    if mesh.dimension == 1:
        assert np.array_equal(sums, expected)
    else:
        assert np.abs(sums - expected).max() <= 1e-15 * np.abs(expected).max()
    assert np.array_equal(scheme._add_edge_sums(values, edges, mesh), sums)  # cached index


def test_residual_rejects_saturated_trial(case2, bdata_01):
    mesh = build_interval_mesh(4, "left")
    u = np.full((2, 4), 0.55)  # biomass 1.1
    with pytest.raises(ModelDomainError):
        residual(make_state(u), evaluate(u, mesh, case2, bdata_01), 1e-4, mesh)


# -- jacobian -----------------------------------------------------------------------


@pytest.mark.parametrize("seed, model_name", [
    *(pytest.param(seed, "case1", id=str(seed)) for seed in range(3)),
    *(pytest.param(seed, name, id=f"{seed}-{name}")
      for name in GENERIC_MODELS for seed in range(3)),
])
def test_jacobian_matches_finite_differences_1d(seed, model_name, bdata_01):
    rng = np.random.default_rng(seed)
    mesh = build_interval_mesh(8, "left")
    u = random_admissible(rng, 2, 8)
    assert jacobian_deviation(u, 1e-5, mesh, named_model(model_name), bdata_01) <= 1e-6


def test_jacobian_matches_finite_differences_2d(case2, bdata_01):
    rng = np.random.default_rng(5)
    mesh = build_rectangle_mesh(3, 3, lambda x, y: abs(y - 1.0) < 1e-12)
    model = model_case2(alphas=(1.0, 10.0))
    u = random_admissible(rng, 2, mesh.n_cells)
    assert jacobian_deviation(u, 1e-5, mesh, model, bdata_01) <= 1e-6


def test_jacobian_uniform_state_block_structure(case2, bdata_01):
    # at a constant state the interior coupling reduces to the graph Laplacian
    # scaled per species by alpha_i p(M)^2 (g + u_i g'); build that directly
    mesh = build_interval_mesh(4, "left")
    model = model_case2(alphas=(1.0, 3.0))
    u_const = np.array([0.15, 0.1])
    u = np.tile(u_const[:, None], (1, 4))
    dt = 1e-4
    J = jacobian(evaluate(u, mesh, model, bdata_01), dt, mesh, model).toarray()

    m_val = u_const.sum()
    g, gp = float(model.g(m_val)), float(model.g_prime(m_val))
    psq = float(model.p(m_val)) ** 2
    pp = float(model.p(m_val)) * float(model.p_prime(m_val))
    n, N = 2, 4
    h = 0.25
    expected = np.zeros((n * N, n * N))
    expected[np.arange(n * N), np.arange(n * N)] = h / dt
    alphas = (1.0, 3.0)

    def add_edge(K, L, tau):
        dv = 0.0  # constant state
        for i in range(n):
            for j in range(n):
                block = tau * alphas[i] * (psq * ((i == j) * g + u_const[i] * gp) + pp * dv)
                expected[K * n + i, K * n + j] += block
                expected[K * n + i, L * n + j] -= block
                expected[L * n + i, L * n + j] += block
                expected[L * n + i, K * n + j] -= block

    m = mesh.interior.size
    for K, L, tau in zip(mesh.flux_K[:m], mesh.flux_L[:m], mesh.flux_tau[:m]):
        add_edge(int(K), int(L), float(tau))
    # Dirichlet edge on cell 0 (tau = 2/h), boundary value fixed
    m_d = 0.2
    psq_b = 0.5 * (psq + float(model.p(m_d)) ** 2)
    v = u_const * g
    v_d = np.array([0.1, 0.1]) * float(model.g(m_d))
    for i in range(n):
        for j in range(n):
            # d/du_jK of -tau a_i [psq_b (v_d - v)] = -tau a_i pp dv + tau a_i psq_b (...)
            block = (2.0 / h) * alphas[i] * (
                psq_b * ((i == j) * g + u_const[i] * gp) - pp * (v_d[i] - v[i])
            )
            expected[0 * n + i, 0 * n + j] += block
    assert np.abs(J - expected).max() <= 1e-12 * np.abs(expected).max()


def _assembly_meshes():
    return {
        "1d": build_interval_mesh(40, "left"),
        "rectangle": build_rectangle_mesh(6, 5, lambda x, y: abs(y - 1.0) < 1e-12),
        "acute": load_triangle_mesh_file(str(ACUTE_FIXTURE), lambda x, y: True),
    }


def _coo_jacobian(record, dt, mesh, model):
    """The Jacobian as a COO matrix of its per-block entries at ``_coo_pattern``'s rows and columns.

    The flux derivatives of K's side go into K's row and, negated, into L's;
    those of L's side likewise.
    """
    parts = scheme._jacobian_parts(record, mesh, model)
    near, far = (scheme._edge_blocks(record, model.params.alpha_array, *side) for side in parts)
    n, m = near.shape[0], mesh.interior.size
    cells = np.repeat(mesh.cell_measures / dt, n)
    entries = scheme._in_entry_order(cells, near, far, -far, -near[..., :m], m)
    size = n * mesh.n_cells
    return sp.coo_matrix((entries, scheme._coo_pattern(mesh, n)), shape=(size, size))


@pytest.mark.parametrize("name", ["1d", "rectangle", "acute"])
def test_jacobian_fixed_pattern_matches_coo_assembly(name, bdata_01):
    mesh = _assembly_meshes()[name]
    model = model_case1(alphas=(1.0, 5.0))
    u = random_admissible(np.random.default_rng(11), 2, mesh.n_cells)
    record = evaluate(u, mesh, model, bdata_01)
    matrix = jacobian(record, 1e-4, mesh, model)
    reference = _coo_jacobian(record, 1e-4, mesh, model).tocsc()
    if mesh.dimension == 1:
        # the band read as CSC: tocsc keeps the nonzeros, which on this
        # random state are exactly the pattern's entries
        matrix = matrix.tocsc()
    assert np.array_equal(matrix.indptr, reference.indptr)
    assert np.array_equal(matrix.indices, reference.indices)
    # equal up to the summation order of duplicate entries
    assert np.abs(matrix.data - reference.data).max() <= 1e-15 * np.abs(reference.data).max()


@pytest.mark.parametrize("name", ["rectangle", "acute"])
def test_linear_solver_is_bitwise_splu_in_its_own_order(name, bdata_01):
    mesh = _assembly_meshes()[name]
    model = model_case1(alphas=(1.0, 5.0))
    rng = np.random.default_rng(12)
    u = random_admissible(rng, 2, mesh.n_cells)
    matrix = jacobian(evaluate(u, mesh, model, bdata_01), 1e-4, mesh, model)
    rhs = rng.standard_normal(matrix.shape[0])
    x = scheme._LinearSolver().solve(matrix, rhs)
    # SuperLU's own solve in its own order, MMD on A^T + A
    reference = splu(matrix, permc_spec="MMD_AT_PLUS_A")
    assert np.array_equal(x, reference.solve(rhs))


def test_1d_linear_solver_agrees_with_splu_to_round_off(bdata_01):
    mesh = _assembly_meshes()["1d"]
    model = model_case1(alphas=(1.0, 5.0))
    rng = np.random.default_rng(12)
    u = random_admissible(rng, 2, mesh.n_cells)
    matrix = jacobian(evaluate(u, mesh, model, bdata_01), 1e-4, mesh, model)
    rhs = rng.standard_normal(matrix.shape[0])
    band = matrix.data.copy()
    x = scheme._LinearSolver().solve(matrix, rhs)
    # dgbsv factors a copy of the band, never the caller's matrix
    assert np.array_equal(matrix.data, band)
    # banded LU pivots in another order than SuperLU, so the two agree to
    # round-off: each is backward stable, and their forward errors are bounded
    # by the condition number (5.3e4 here) times round-off
    dense = matrix.toarray()
    norm = np.abs(dense).sum(axis=1).max()
    assert np.abs(rhs - matrix @ x).max() <= 1e-15 * norm * np.abs(x).max()
    reference = splu(matrix.tocsc()).solve(rhs)
    kappa = np.linalg.cond(dense, np.inf)
    assert np.abs(x - reference).max() <= 1e-14 * kappa * np.abs(reference).max()


def _one_1d_jacobian(n):
    """The Jacobian on a 12-cell interval for n species, with its evaluation and model."""
    mesh = build_interval_mesh(12, "both")
    model = model_case1(alphas=(1.0, 5.0, 2.0)[:n])
    bdata = BoundaryData((0.1,) * n)
    u = random_admissible(np.random.default_rng(5), n, mesh.n_cells, high=0.9 / n)
    record = evaluate(u, mesh, model, bdata)
    return jacobian(record, 1e-4, mesh, model), record, mesh, model


@pytest.mark.parametrize("n", [1, 2, 3])
def test_1d_band_map_round_trips_the_jacobian(n):
    # the DIA data is LAPACK's band storage: entry (r, c) at row 2 kl + r - c
    matrix, _, _, _ = _one_1d_jacobian(n)
    band, size = matrix.data, matrix.shape[0]
    kl = (band.shape[0] - 1) // 3
    assert kl == 2 * n - 1
    assert band.shape == (3 * kl + 1, size) and band.flags.f_contiguous
    assert np.array_equal(matrix.offsets, 2 * kl - np.arange(3 * kl + 1))
    assert not band[:kl].any()  # the rows the banded LU fills
    rows, cols = np.indices((size, size))
    inside = np.abs(rows - cols) <= kl
    dense = np.zeros((size, size))
    dense[inside] = band[2 * kl + rows[inside] - cols[inside], cols[inside]]
    assert np.array_equal(dense, matrix.toarray())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_1d_jacobian_is_the_coo_assembly(n):
    # one bincount into the band sums each slot's entries in the order the
    # COO assembly sums its duplicates, so the two agree bitwise
    matrix, record, mesh, model = _one_1d_jacobian(n)
    reference = _coo_jacobian(record, 1e-4, mesh, model)
    assert np.array_equal(matrix.toarray(), reference.toarray())


class _RecordedLU:
    """One factorisation made through ``scheme.splu``: its ordering, L+U fill and solves."""

    def __init__(self, lu, permc_spec, solves):
        self.lu, self.permc_spec = lu, permc_spec
        self.fill = lu.L.nnz + lu.U.nnz
        self._solves = solves

    def solve(self, rhs):
        self._solves.append(self)
        return self.lu.solve(rhs)


@pytest.fixture
def recorded_splu(monkeypatch):
    """Every LU ``scheme.splu`` returns, in order, and the LU of every ``.solve`` call."""
    factored, solves = [], []

    def recording(matrix, permc_spec=None, **kwargs):
        factored.append(_RecordedLU(splu(matrix, permc_spec=permc_spec, **kwargs), permc_spec,
                                    solves))
        return factored[-1]

    monkeypatch.setattr(scheme, "splu", recording)
    return factored, solves


def _one_jacobian(mesh, bdata, seed=12):
    model = model_case1(alphas=(1.0, 5.0))
    rng = np.random.default_rng(seed)
    u = random_admissible(rng, 2, mesh.n_cells)
    matrix = jacobian(evaluate(u, mesh, model, bdata), 1e-4, mesh, model)
    return matrix, rng.standard_normal(matrix.shape[0])


def test_2d_factors_in_mmd_order_with_less_fill_than_colamd(recorded_splu, bdata_01):
    factored, _ = recorded_splu
    mesh = build_rectangle_mesh(16, 16, lambda x, y: abs(y - 1.0) < 1e-12)
    matrix, rhs = _one_jacobian(mesh, bdata_01)
    scheme._LinearSolver().solve(matrix, rhs)
    assert [lu.permc_spec for lu in factored] == ["MMD_AT_PLUS_A"]
    colamd = splu(matrix, permc_spec="COLAMD")
    assert factored[0].fill < colamd.L.nnz + colamd.U.nnz


def test_1d_factors_every_solve_without_splu(recorded_splu, bdata_01):
    factored, solves = recorded_splu
    mesh = build_interval_mesh(80, "left")
    matrix, rhs = _one_jacobian(mesh, bdata_01)
    solver = scheme._LinearSolver()
    first = solver.solve(matrix, rhs)
    second = solver.solve(matrix, rhs)
    assert factored == [] and solves == [] and solver.factorizations == 2
    assert np.array_equal(first, second)


def _held_factors(mesh, bdata, dt=1e-2):
    """A linear solver holding the LU of one Jacobian, and the state it was taken at."""
    model = model_case1(alphas=(1.0, 5.0))
    rng = np.random.default_rng(21)
    u = random_admissible(rng, 2, mesh.n_cells, low=0.05, high=0.15)
    solver = scheme._LinearSolver()
    matrix = jacobian(evaluate(u, mesh, model, bdata), dt, mesh, model)
    solver.solve(matrix, rng.standard_normal(matrix.shape[0]))
    assert solver.factorizations == 1
    return solver, model, u, rng


def _newton_system(mesh, model, u, bdata, dt=1e-2):
    """The coupled Newton system at 1.0001 u for a step from u, and the cells' m(K)/dt."""
    trial = evaluate(1.0001 * u, mesh, model, bdata)
    matrix = jacobian(trial, dt, mesh, model)
    rhs = -residual(make_state(u), trial, dt, mesh).ravel(order="F")
    return matrix, rhs, mesh.cell_measures / dt


@pytest.mark.parametrize("name", ["rectangle", "acute"])
def test_refined_solve_on_held_factors_meets_the_residual_target(name, bdata_01):
    mesh = _assembly_meshes()[name]
    solver, model, u, _ = _held_factors(mesh, bdata_01)
    matrix, rhs, cells = _newton_system(mesh, model, u, bdata_01)
    bound = scheme._FORCING * scheme.NEWTON_TOL * cells[:, None]

    def outside(x):
        return (np.abs(rhs - matrix @ x).reshape(mesh.n_cells, -1) > bound).any()

    # the refinement replayed on the held factors, to the first x inside the bound
    lu = solver._lu[None]
    expected, applied = lu.solve(rhs), 1
    while outside(expected):
        expected += lu.solve(rhs - matrix @ expected)
        applied += 1
    x = solver.solve(matrix, rhs, cells)
    # solved on the factors of the old Jacobian, refined against the new one
    # until every row of cell K is within _FORCING of Newton's stop, and no further
    assert solver.factorizations == 1
    assert applied > 2 and solver.lu_solves == 1 + applied
    assert np.array_equal(x, expected) and not outside(x)


def test_right_hand_side_inside_the_bound_takes_one_lu_solve(recorded_splu, bdata_01):
    factored, solves = recorded_splu
    mesh = _assembly_meshes()["rectangle"]
    solver, model, u, rng = _held_factors(mesh, bdata_01)
    matrix, rhs, cells = _newton_system(mesh, model, u, bdata_01)
    bound = scheme._FORCING * scheme.NEWTON_TOL * np.repeat(cells, 2)
    rhs = 0.5 * bound * rng.uniform(-1.0, 1.0, rhs.size)
    del solves[:]
    solver.solve(matrix, rhs, cells)
    # x = LU^-1 b on the held factors already meets the bound: no sweep
    assert solves == factored and solver.lu_solves == 2
    assert solver.factorizations == 1


def test_factors_at_another_dt_are_abandoned(recorded_splu, bdata_01):
    factored, solves = recorded_splu
    mesh = _assembly_meshes()["rectangle"]
    solver, model, u, rng = _held_factors(mesh, bdata_01, dt=1e-2)
    assert len(factored) == 1 and solves == factored
    matrix = jacobian(evaluate(u, mesh, model, bdata_01), 1e-6, mesh, model)
    rhs = rng.standard_normal(matrix.shape[0])
    x = solver.solve(matrix, rhs)
    assert len(factored) == solver.factorizations == 2
    old, new = factored
    # x = LU^-1 b and one sweep that fails to shrink the residual tenfold on
    # the old factors, then one solve on the new ones
    assert solves[1:] == [old, old, new]
    # the new factors replace the old ones and serve the next solve
    del solves[:]
    solver.solve(matrix, rhs)
    assert len(factored) == 2 and solves and all(lu is new for lu in solves)
    fresh = scheme._LinearSolver().solve(matrix, rhs)
    assert np.abs(x - fresh).max() <= scheme._FORCING * scheme.NEWTON_TOL * np.abs(fresh).max()


def test_singular_jacobian_with_held_factors_is_a_newton_failure(bdata_01, monkeypatch):
    mesh = _assembly_meshes()["rectangle"]
    solver, model, u, _ = _held_factors(mesh, bdata_01)

    def singular(evaluation, dt, mesh, model):
        matrix = jacobian(evaluation, dt, mesh, model)
        matrix.data[matrix.indptr[3]:matrix.indptr[4]] = 0.0  # column 3
        return matrix

    monkeypatch.setattr(scheme, "jacobian", singular)
    state = make_state(u)
    start = evaluate(state.u, mesh, model, bdata_01)
    with pytest.raises(NewtonFailure, match="linear solve failed"):
        newton_step(state, start, 1e-2, mesh, model, bdata_01, solver=solver)
    assert set(solver._lu) == set()


def test_singular_1d_jacobian_is_a_newton_failure(bdata_01, monkeypatch):
    # unequal alphas, so that the coupled Jacobian is the one solved
    case1 = model_case1(alphas=(1.0, 5.0))
    mesh = build_interval_mesh(20, "left")
    state = project_initial(build_named_initial_datum("bumps-1d", {"u_d": (0.1, 0.1)}), mesh)
    solver = scheme._LinearSolver()

    def singular(evaluation, dt, mesh, model):
        matrix = jacobian(evaluation, dt, mesh, model)
        matrix.data[:, 3] = 0.0  # column 3 of the band is column 3 of J
        return matrix

    monkeypatch.setattr(scheme, "jacobian", singular)
    start = evaluate(state.u, mesh, case1, bdata_01)
    with pytest.raises(NewtonFailure, match="linear solve failed"):
        newton_step(state, start, 1e-3, mesh, case1, bdata_01, solver=solver)
    assert solver.factorizations == 0


def _assert_reused_factors_match_refactoring(alphas, per_iterate, bdata, monkeypatch):
    """An 8x8 run on held factors against one that factors every system of every iterate."""
    mesh = build_rectangle_mesh(8, 8, lambda x, y: abs(y - 1.0) < 1e-12)
    model = model_case1(alphas=alphas)
    state = project_initial(build_named_initial_datum("bumps-2d", {"u_d": (0.1, 0.1)}), mesh)
    cfg = NewtonConfig(dt_init=1e-5, dt_max=1e-2)

    def run():
        reports = []
        final = advance(state, 0.2, mesh, model, bdata, cfg,
                        observer=lambda r, s: reports.append(r))
        return final, reports

    reused, reused_reports = run()
    monkeypatch.setattr(scheme, "_FORCING", 0.0)
    fresh, fresh_reports = run()
    iters = [r.newton_iters for r in fresh_reports]
    assert [r.newton_iters for r in reused_reports] == iters
    assert [r.dt_used for r in reused_reports] == [r.dt_used for r in fresh_reports]
    assert sum(r.dt_halvings for r in reused_reports) == 0
    assert [r.lu_factorizations for r in fresh_reports] == [per_iterate * k for k in iters]
    assert sum(r.lu_factorizations for r in reused_reports) < per_iterate * sum(iters)
    assert np.abs(reused.u - fresh.u).max() <= 1e-12


def test_advance_with_reused_factors_matches_refactoring_every_iterate(bdata_01, monkeypatch):
    _assert_reused_factors_match_refactoring((1.0, 5.0), 1, bdata_01, monkeypatch)


def test_biomass_split_with_reused_factors_matches_refactoring_every_iterate(bdata_01,
                                                                            monkeypatch):
    # equal alphas: the biomass split's two systems, each on its own held factors
    _assert_reused_factors_match_refactoring((1.0, 1.0), 2, bdata_01, monkeypatch)


def test_step_report_counts_the_factorizations_of_rejected_attempts(bdata_01, monkeypatch):
    # 1D factors every iterate, the coupled system once and the biomass split
    # (equal alphas) its two one-species systems, and each rejected attempt
    # here runs out of its two iterates
    mesh = build_interval_mesh(20, "left")
    state = project_initial(build_named_initial_datum("bumps-1d", {"u_d": (0.1, 0.1)}), mesh)
    monkeypatch.setattr(scheme, "_MAX_NEWTON_ITERS", 2)
    for alphas, per_iterate in [((1.0, 5.0), 1), ((1.0, 1.0), 2)]:
        reports = []
        advance(state, 1e-2, mesh, model_case1(alphas=alphas), bdata_01,
                NewtonConfig(dt_init=1e-2), observer=lambda r, s: reports.append(r))
        first = reports[0]
        assert first.dt_halvings > 0
        assert first.lu_factorizations == per_iterate * (first.newton_iters
                                                         + 2 * first.dt_halvings)


@pytest.mark.parametrize("alphas", [(1.0, 5.0), (1.0, 1.0)])
def test_step_reports_count_every_lu_solve(alphas, recorded_splu, bdata_01):
    # 2D: the first solve on held factors and each refinement sweep are
    # applications of the factors, as is the solve after a factorisation
    _, solves = recorded_splu
    mesh = build_rectangle_mesh(8, 8, lambda x, y: abs(y - 1.0) < 1e-12)
    state = project_initial(build_named_initial_datum("bumps-2d", {"u_d": (0.1, 0.1)}), mesh)
    reports = []
    advance(state, 0.05, mesh, model_case1(alphas=alphas), bdata_01, NewtonConfig(),
            observer=lambda r, s: reports.append(r))
    assert sum(r.lu_solves for r in reports) == len(solves)
    assert len(solves) > sum(r.lu_factorizations for r in reports)
    # 1D: one LAPACK call per system solved, which factors and solves
    mesh = build_interval_mesh(20, "left")
    state = project_initial(build_named_initial_datum("bumps-1d", {"u_d": (0.1, 0.1)}), mesh)
    reports = []
    advance(state, 1e-2, mesh, model_case1(alphas=alphas), bdata_01, NewtonConfig(),
            observer=lambda r, s: reports.append(r))
    assert [r.lu_solves for r in reports] == [r.lu_factorizations for r in reports]


def test_advance_in_two_calls_equals_one_call(case1, bdata_01):
    mesh = build_interval_mesh(20, "left")
    state = project_initial(build_named_initial_datum("bumps-1d", {"u_d": (0.1, 0.1)}), mesh)
    cfg = NewtonConfig(dt_min=1e-5, dt_init=1e-5, dt_max=1e-5)
    split = advance(advance(state, 5e-5, mesh, case1, bdata_01, cfg), 1e-4, mesh, case1,
                    bdata_01, cfg)
    whole = advance(state, 1e-4, mesh, case1, bdata_01, cfg)
    assert np.array_equal(split.u, whole.u)


def test_advance_reads_a_state_changed_in_place_afresh(case2, bdata_01):
    # advance keeps nothing on the states it returns: a returned state whose
    # u is then changed in place steps exactly like a new State of that u
    mesh = build_interval_mesh(20, "left")
    state = project_initial(build_named_initial_datum("bumps-1d", {"u_d": (0.1, 0.1)}), mesh)
    cfg = NewtonConfig(dt_min=1e-5, dt_init=1e-5, dt_max=1e-5)
    returned = advance(state, 5e-5, mesh, case2, bdata_01, cfg)
    returned.u[:] = bdata_01.values[:, None]  # the contact steady state

    def step(entry):
        reports = []
        out = advance(entry, 6e-5, mesh, case2, bdata_01, cfg,
                      observer=lambda r, s: reports.append(r))
        return out.u, [(r.newton_iters, r.entropy_margin) for r in reports]

    (u_changed, changed), (u_fresh, fresh) = (
        step(returned), step(State(returned.time, returned.u.copy(), returned.dt_last)))
    assert np.array_equal(u_changed, u_fresh)
    assert changed == fresh == [(1, 0.0)]


@pytest.mark.parametrize("name", ["1d", "rectangle", "acute"])
def test_each_call_evaluates_the_model_once(name, bdata_01):
    # g and p cover the cells and the contact state in one call each
    mesh = _assembly_meshes()[name]
    model = model_case1(alphas=(1.0, 5.0))
    calls = {}

    def counted(attr):
        fn = getattr(model, attr)

        def wrapper(m):
            calls[attr] = calls.get(attr, 0) + 1
            return fn(m)

        return wrapper

    for attr in ("g", "p", "g_prime", "p_prime"):
        setattr(model, attr, counted(attr))
    u = random_admissible(np.random.default_rng(14), 2, mesh.n_cells)
    state = make_state(u)
    calls.clear()
    record = evaluate(u, mesh, model, bdata_01)
    assert calls == {"g": 1, "p": 1}
    consumers = {
        "residual": lambda: residual(state, record, 1e-4, mesh),
        "dirichlet_fluxes": lambda: scheme.dirichlet_fluxes(record, mesh),
        "dissipation": lambda: diagnostics.dissipation(record, mesh),
        "jacobian": lambda: jacobian(record, 1e-4, mesh, model),
    }
    for label, consume in consumers.items():
        calls.clear()
        consume()
        # g' comes from the record's g and p, so only p' is evaluated
        expected = {"p_prime": 1} if label == "jacobian" else {}
        assert calls == expected, label


def test_newton_step_evaluates_each_state_once(bdata_01, monkeypatch):
    # g and p see the starting state, which the caller evaluates, and every
    # trial that reaches evaluate, each exactly once: the residual and the
    # Jacobian reuse each accepted trial's evaluation
    mesh = build_interval_mesh(40, "left")
    state = project_initial(build_named_initial_datum("bumps-1d", {"u_d": (0.1, 0.1)}), mesh)
    model = model_case1()
    seen = {"g": [], "p": []}

    def recorded(attr):
        fn = getattr(model, attr)

        def wrapper(m):
            seen[attr].append(np.array(m, copy=True))
            return fn(m)

        return wrapper

    for attr in seen:
        setattr(model, attr, recorded(attr))
    evaluations = []
    monkeypatch.setattr(scheme, "evaluate",
                        lambda u, *args: evaluations.append(u) or evaluate(u, *args))
    start = scheme.evaluate(state.u, mesh, model, bdata_01)
    _, report = newton_step(state, start, 1e-3, mesh, model, bdata_01)
    assert report.newton_iters >= 2
    assert len(evaluations) >= report.newton_iters + 1
    assert len(seen["g"]) == len(seen["p"]) == len(evaluations)
    for attr, arguments in seen.items():
        distinct = {m.tobytes() for m in arguments}
        assert len(distinct) == len(arguments), attr


def _two_jacobians(mesh, model, bdata):
    """Jacobians at two states on ``mesh``, checking that they leave the mesh untouched."""
    attributes = dict(vars(mesh))
    u = random_admissible(np.random.default_rng(13), 2, mesh.n_cells)
    first = jacobian(evaluate(u, mesh, model, bdata), 1e-4, mesh, model)
    second = jacobian(evaluate(0.5 * u, mesh, model, bdata), 1e-4, mesh, model)
    assert vars(mesh).keys() == attributes.keys()
    assert all(vars(mesh)[key] is value for key, value in attributes.items())
    return first, second


def test_jacobian_pattern_cached_outside_the_mesh(case2, bdata_01):
    mesh = build_rectangle_mesh(4, 4, lambda x, y: abs(y - 1.0) < 1e-12)
    first, second = _two_jacobians(mesh, case2, bdata_01)
    assert np.shares_memory(first.indices, second.indices)
    assert np.shares_memory(first.indptr, second.indptr)
    assert not first.indices.flags.writeable


def test_1d_jacobian_pattern_shares_its_band_offsets(case2, bdata_01):
    first, second = _two_jacobians(build_interval_mesh(6, "left"), case2, bdata_01)
    assert first.format == second.format == "dia"
    assert np.shares_memory(first.offsets, second.offsets)
    assert not first.offsets.flags.writeable
    assert not np.shares_memory(first.data, second.data)


def _random_newton_matrix(mesh, n, rng):
    """``_newton_matrix`` of a diagonally dominant random system of n species on ``mesh``."""
    blocks = () if n == 1 else (n, n)
    near = 0.1 * rng.standard_normal(blocks + mesh.flux_K.shape)
    far = 0.1 * rng.standard_normal(blocks + mesh.interior.shape)
    return scheme._newton_matrix(rng.uniform(10.0, 11.0, n * mesh.n_cells), near, far, mesh)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("dimension", [1, 2])
def test_newton_matrices_are_copies_of_the_checked_template(dimension, n):
    mesh = (build_interval_mesh(9, "left") if dimension == 1
            else build_rectangle_mesh(4, 3, lambda x, y: abs(y - 1.0) < 1e-12))
    rng = np.random.default_rng(21)
    _, template = scheme._jacobian_pattern(mesh, n)
    index_names = ("offsets",) if dimension == 1 else ("indices", "indptr")
    kept = {name: getattr(template, name).copy() for name in ("data",) + index_names}
    first, second = _random_newton_matrix(mesh, n, rng), _random_newton_matrix(mesh, n, rng)
    assert first.format == second.format == template.format == ("dia", "csc")[dimension - 1]
    for name in index_names:
        index = getattr(template, name)
        assert not index.flags.writeable
        assert getattr(first, name) is index and getattr(second, name) is index

    # each result is what scipy's checked constructor builds from the same data
    for matrix in (first, second):
        if dimension == 1:
            kl = 2 * n - 1  # the first species of cell K meets the last of K + 1
            checked = sp.dia_matrix((matrix.data.copy(), 2 * kl - np.arange(3 * kl + 1)),
                                    shape=matrix.shape)
        else:
            checked = sp.csc_matrix(matrix.toarray())
        for name in ("data",) + index_names:
            ours, theirs = getattr(matrix, name), getattr(checked, name)
            assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)

    # each result holds its own data
    second_data = second.data.copy()
    first.data[...] = 7.0
    assert np.array_equal(second.data, second_data)

    # factoring, solving and multiplying a result leave the template as it was
    rhs = rng.standard_normal(second.shape[0])
    x = scheme._LinearSolver().solve(second, rhs)
    assert np.allclose(second @ x, rhs, rtol=0.0, atol=1e-12)
    splu(second.tocsc()).solve(rhs)
    for name, array in kept.items():
        assert np.array_equal(getattr(template, name), array)
    assert not template.data.any()


def test_jacobian_row_sum_mass_balance(case2, bdata_01):
    # summing the residual over cells leaves only the Dirichlet fluxes, so
    # column sums of the Jacobian must match the derivative of that defect
    rng = np.random.default_rng(11)
    mesh = build_interval_mesh(6, "left")
    u = random_admissible(rng, 2, 6)
    state = make_state(u)
    dt = 1e-4
    J = jacobian(evaluate(u, mesh, case2, bdata_01), dt, mesh, case2).toarray()

    from biofilm_fv.scheme import dirichlet_fluxes

    def total_residual(u_flat):
        uu = u_flat.reshape(u.shape, order="F")
        r = residual(state, evaluate(uu, mesh, case2, bdata_01), dt, mesh)
        return r.sum(axis=1)

    base = total_residual(u.ravel(order="F"))
    step = 1e-7
    for col in range(u.size):
        probe = u.ravel(order="F").copy()
        probe[col] += step
        fd = (total_residual(probe) - base) / step
        col_sums = J[:, col].reshape(-1, 2).sum(axis=0)
        assert np.abs(col_sums - fd).max() <= 1e-5 * max(1.0, np.abs(fd).max())


# -- equal diffusivities: the Newton systems through the biomass ---------------------


def test_tridiagonal_band_is_solved_by_dgtsv(monkeypatch):
    # one species on an interval: a tridiagonal band (kl = 1), which dgtsv
    # solves on a copy, for one right-hand side or one per column
    monkeypatch.setattr(scheme, "dgbsv", None)
    matrix, _, _, _ = _one_1d_jacobian(1)
    rng = np.random.default_rng(8)
    band = matrix.data.copy()
    kappa = np.linalg.cond(matrix.toarray(), np.inf)
    for rhs in (rng.standard_normal(matrix.shape[0]), rng.standard_normal((matrix.shape[0], 3))):
        x = scheme._LinearSolver().solve(matrix, rhs)
        assert np.array_equal(matrix.data, band)
        reference = splu(matrix.tocsc()).solve(rhs)
        assert x.shape == rhs.shape
        assert np.abs(x - reference).max() <= 1e-14 * kappa * np.abs(reference).max()


def test_newton_solver_follows_the_diffusivities():
    # the model's alphas alone choose the systems one update solves: the
    # biomass split's two for equal alphas and n >= 2, else the coupled one
    mesh = _assembly_meshes()["rectangle"]
    for alphas, systems in [((1.0, 1.0), ["biomass", "species"]),
                            ((2.0, 2.0, 2.0), ["biomass", "species"]),
                            ((1.0, 5.0), [None]), ((1.0,), [None])]:
        model, n = model_case2(alphas=alphas), len(alphas)
        u = random_admissible(np.random.default_rng(4), n, mesh.n_cells, low=0.05, high=0.15)
        evaluation = evaluate(u, mesh, model, BoundaryData((0.1,) * n))
        solver, solved = scheme._LinearSolver(), []
        solve = solver.solve

        def recording(matrix, rhs, cells=1.0, system=None, solve=solve):
            solved.append(system)
            return solve(matrix, rhs, cells, system)

        solver.solve = recording
        scheme._newton_update(solver, evaluation, np.ones(u.shape), 1e-3, mesh, model)
        assert solved == systems and set(solver._lu) == set(systems)


def _coupled_update(solver, evaluation, res, dt, mesh, model):
    """-J^-1 R solved on the coupled Jacobian, whatever the alphas."""
    x = solver.solve(jacobian(evaluation, dt, mesh, model), -res.ravel(order="F"),
                     mesh.cell_measures / dt)
    return x.reshape(res.shape, order="F")


@pytest.mark.parametrize("name, n, model_name", [
    # case1's cases keep their ids
    pytest.param(name, n, model_name,
                 id=f"{name}-{n}" + ("" if model_name == "case1" else f"-{model_name}"))
    for model_name in ["case1", "case2", *GENERIC_MODELS]
    for name in ["1d", "rectangle", "acute"] for n in [2, 3]
])
def test_biomass_split_is_the_coupled_newton_update(name, n, model_name):
    # block elimination of the coupled system, so the two updates agree to
    # round-off on states whose Jacobian is well conditioned
    mesh = _assembly_meshes()[name]
    model = named_model(model_name, alphas=(2.0,) * n)
    bdata = BoundaryData((0.1,) * n)
    rng = np.random.default_rng(15)
    for dt in (1e-6, 1e-3, 1.0):
        u = random_admissible(rng, n, mesh.n_cells, low=0.05, high=0.15)
        evaluation = evaluate(u, mesh, model, bdata)
        res = rng.standard_normal(u.shape)
        coupled = _coupled_update(scheme._LinearSolver(), evaluation, res, dt, mesh, model)
        split = scheme._newton_update(scheme._LinearSolver(), evaluation, res, dt, mesh, model)
        assert np.abs(split - coupled).max() <= 1e-12 * np.abs(coupled).max()


@pytest.mark.parametrize("n", [2, 3])
def test_biomass_split_solves_rough_states_to_round_off(n):
    # biomass up to 0.9 in random cells: J's condition number reaches 1e13 and
    # the two solves' forward errors differ, but the split's update solves
    # J du = -R to round-off, like the coupled one; solving the last species
    # like the others, instead of closing sum_i du_i = dM, left 1e-12 (n = 2)
    # and 2e-14 (n = 3) here
    mesh = build_interval_mesh(640, "left")
    model = model_case1(alphas=(1.0,) * n)
    bdata = BoundaryData((0.1,) * n)
    rng = np.random.default_rng(16)
    u = random_admissible(rng, n, mesh.n_cells, high=0.9 / n)
    evaluation = evaluate(u, mesh, model, bdata)
    res = rng.standard_normal(u.shape)
    matrix = jacobian(evaluation, 1e-3, mesh, model)
    norm = np.abs(matrix).sum(axis=1).max()
    for update in (_coupled_update, scheme._newton_update):
        x = update(scheme._LinearSolver(), evaluation, res, 1e-3, mesh, model).ravel(order="F")
        backward = np.abs(matrix @ x + res.ravel(order="F")).max()
        assert backward <= 1e-15 * (norm * np.abs(x).max() + np.abs(res).max())


@pytest.mark.parametrize("dimension", [1, 2])
def test_advance_through_the_biomass_takes_the_coupled_steps(dimension, bdata_01, monkeypatch):
    if dimension == 1:
        mesh, datum, t_end = build_interval_mesh(40, "left"), "bumps-1d", 0.05
    else:
        mesh = build_rectangle_mesh(8, 8, lambda x, y: abs(y - 1.0) < 1e-12)
        datum, t_end = "bumps-2d", 0.2
    model = model_case1()
    state = project_initial(build_named_initial_datum(datum, {"u_d": (0.1, 0.1)}), mesh)
    cfg = NewtonConfig(dt_init=1e-5, dt_max=1e-2)

    def run():
        reports = []
        final = advance(state, t_end, mesh, model, bdata_01, cfg,
                        observer=lambda r, s: reports.append(r))
        return final, [(r.dt_used, r.newton_iters, r.dt_halvings) for r in reports]

    split, split_steps = run()
    monkeypatch.setattr(scheme, "_newton_update", _coupled_update)
    coupled, coupled_steps = run()
    assert len(split_steps) > 10
    assert split_steps == coupled_steps
    assert np.abs(split.u - coupled.u).max() <= 1e-12


def test_singular_1d_biomass_system_is_a_newton_failure(case1, bdata_01):
    mesh = build_interval_mesh(20, "left")
    state = project_initial(build_named_initial_datum("bumps-1d", {"u_d": (0.1, 0.1)}), mesh)
    solver = scheme._LinearSolver()
    solve = solver.solve

    def singular(matrix, rhs, cells=1.0, system=None):
        if system == "biomass":
            matrix.data[:, 3] = 0.0  # column 3 of the band is column 3 of the matrix
        return solve(matrix, rhs, cells, system)

    solver.solve = singular
    start = evaluate(state.u, mesh, case1, bdata_01)
    with pytest.raises(NewtonFailure, match="linear solve failed: .* U\\(4, 4\\) = 0"):
        newton_step(state, start, 1e-3, mesh, case1, bdata_01, solver=solver)
    assert solver.factorizations == 0


@pytest.mark.parametrize("name", ["rectangle", "acute"])
def test_biomass_split_refines_both_systems_to_the_row_bound(name, case1, bdata_01):
    # each system on held factors is refined until every row of cell K is
    # within _FORCING of Newton's stop, in units of m(K)/dt
    mesh, dt = _assembly_meshes()[name], 1e-2
    u = random_admissible(np.random.default_rng(21), 2, mesh.n_cells, low=0.05, high=0.15)
    solver = scheme._LinearSolver()
    start = evaluate(u, mesh, case1, bdata_01)
    scheme._newton_update(solver, start, residual(make_state(u), start, dt, mesh), dt, mesh,
                          case1)
    systems, solve = [], solver.solve

    def recording(matrix, rhs, cells=1.0, system=None):
        x = solve(matrix, rhs, cells, system)
        systems.append((matrix, rhs, cells, x))
        return x

    solver.solve = recording
    trial = evaluate(1.0001 * u, mesh, case1, bdata_01)
    scheme._newton_update(solver, trial, residual(make_state(u), trial, dt, mesh), dt, mesh,
                          case1)
    assert solver.factorizations == 2 and len(systems) == 2
    for matrix, rhs, cells, x in systems:
        assert np.array_equal(cells, mesh.cell_measures / dt)
        linear_residual = np.abs(rhs - matrix @ x).reshape(mesh.n_cells, -1)
        assert (linear_residual <= scheme._FORCING * scheme.NEWTON_TOL * cells[:, None]).all()


def test_biomass_split_holds_factors_per_system(case1, bdata_01):
    # 2D: the split's two systems hold their own factors, and a stale
    # biomass system is factored anew without touching the species factors
    mesh, dt = _assembly_meshes()["rectangle"], 1e-2
    u = random_admissible(np.random.default_rng(21), 2, mesh.n_cells, low=0.05, high=0.15)
    state = make_state(u)
    solver = scheme._LinearSolver()
    start = evaluate(u, mesh, case1, bdata_01)
    scheme._newton_update(solver, start, residual(state, start, dt, mesh), dt, mesh, case1)
    assert set(solver._lu) == {"biomass", "species"} and solver.factorizations == 2
    biomass, species = solver._lu["biomass"], solver._lu["species"]

    # a one-species matrix at dt = 1e-6 on the same pattern, which the held
    # biomass factors (dt = 1e-2) do not refine
    one = model_case1(alphas=(1.0,))
    stale = jacobian(evaluate(u[:1], mesh, one, BoundaryData((0.1,))), 1e-6, mesh, one)
    solver.solve(stale, np.ones(mesh.n_cells), mesh.cell_measures / 1e-6, "biomass")
    assert solver.factorizations == 3
    assert solver._lu["biomass"] is not biomass and solver._lu["species"] is species

    # the next update factors its biomass system anew, now stale at dt = 1e-6,
    # and solves its species system on the held factors
    made, solve = [], solver.solve

    def counting(matrix, rhs, cells=1.0, system=None):
        before = solver.factorizations
        x = solve(matrix, rhs, cells, system)
        made.append((system, solver.factorizations - before))
        return x

    solver.solve = counting
    trial = evaluate(1.0001 * u, mesh, case1, bdata_01)
    scheme._newton_update(solver, trial, residual(state, trial, dt, mesh), dt, mesh, case1)
    assert made == [("biomass", 1), ("species", 0)]
    assert solver._lu["species"] is species


def test_singular_2d_species_system_with_held_factors_is_a_newton_failure(case1, bdata_01):
    mesh = _assembly_meshes()["rectangle"]
    u = random_admissible(np.random.default_rng(21), 2, mesh.n_cells, low=0.05, high=0.15)
    state = make_state(u)
    start = evaluate(u, mesh, case1, bdata_01)
    solver = scheme._LinearSolver()
    scheme._newton_update(solver, start, residual(state, start, 1e-2, mesh), 1e-2, mesh, case1)
    assert set(solver._lu) == {"biomass", "species"}
    solve = solver.solve

    def singular(matrix, rhs, cells=1.0, system=None):
        if system == "species":
            matrix.data[matrix.indptr[3]:matrix.indptr[4]] = 0.0  # column 3
        return solve(matrix, rhs, cells, system)

    solver.solve = singular
    with pytest.raises(NewtonFailure, match="linear solve failed"):
        newton_step(state, start, 1e-2, mesh, case1, bdata_01, solver=solver)
    assert set(solver._lu) == {"biomass"}


def test_overshooting_biomass_split_update_is_halved(case2, bdata_01, monkeypatch):
    # as for the coupled update: a negative beyond round-off in the first
    # update makes its full and half steps inadmissible
    mesh = build_interval_mesh(20, "left")
    state = project_initial(build_named_initial_datum("bumps-1d", {"u_d": (0.1, 0.1)}), mesh)
    start = evaluate(state.u, mesh, case2, bdata_01)
    reference, _ = newton_step(state, start, 1e-3, mesh, case2, bdata_01)
    update, updates = scheme._newton_update, []

    def overshooting(*args):
        x = update(*args)
        if not updates:
            x[0, 0] = -3.0 * state.u[0, 0]  # full step -2 u, half step -u/2, quarter step u/4
        updates.append(x)
        return x

    monkeypatch.setattr(scheme, "_newton_update", overshooting)
    calls = []
    monkeypatch.setattr(scheme, "residual",
                        lambda *args: calls.append(args[1]) or residual(*args))
    new, result = newton_step(state, start, 1e-3, mesh, case2, bdata_01)
    assert np.abs(calls[1].u - (state.u + 0.25 * updates[0])).max() <= 1e-15
    assert result.residual_norm <= scheme.NEWTON_TOL
    assert np.abs(new.u - reference.u).max() <= 1e-9


# -- newton step ----------------------------------------------------------------------


def test_newton_converges_immediately_at_steady_state(case1, bdata_01):
    mesh = build_interval_mesh(10, "left")
    state = make_state(np.full((2, 10), 0.1))
    start = evaluate(state.u, mesh, case1, bdata_01)
    new, report = newton_step(state, start, 1e-5, mesh, case1, bdata_01)
    assert report.newton_iters == 1
    assert report.residual_norm == 0.0
    assert np.array_equal(new.u, state.u)


def test_newton_started_at_the_solution_accepts_its_first_iterate(case1, bdata_01):
    mesh = build_interval_mesh(40, "left")
    datum = build_named_initial_datum("bumps-1d", {"u_d": (0.1, 0.1)})
    state = project_initial(datum, mesh)
    start = evaluate(state.u, mesh, case1, bdata_01)
    solution, result = newton_step(state, start, 1e-3, mesh, case1, bdata_01)
    assert result.newton_iters > 1
    # the update is taken from the start's own u, not from state_prev.u
    new, again = newton_step(state, result.evaluation, 1e-3, mesh, case1, bdata_01)
    assert again.newton_iters == 1
    assert np.abs(new.u - solution.u).max() <= 1e-12


@pytest.mark.parametrize("model_name", ["case1", "case2"])
def test_first_step_from_discontinuous_data(model_name, bdata_01):
    model = model_case1() if model_name == "case1" else model_case2()
    mesh = build_interval_mesh(40, "left")
    datum = build_named_initial_datum("bumps-1d", {"u_d": (0.1, 0.1)})
    state = project_initial(datum, mesh)
    start = evaluate(state.u, mesh, model, bdata_01)
    _, result = newton_step(state, start, 1e-5, mesh, model, bdata_01)
    assert result.newton_iters <= 50
    assert result.residual_norm <= 1e-10
    # the invariants of that step, as advance reports them
    reports = []
    advance(state, 1e-5, mesh, model, bdata_01,
            NewtonConfig(dt_min=1e-5, dt_init=1e-5, dt_max=1e-5),
            observer=lambda r, s: reports.append(r))
    (report,) = reports
    assert report.min_u >= 0.0
    assert report.max_M <= max_principle_bound(state, bdata_01) + 1e-12
    # entropy inequality for this step
    from biofilm_fv.diagnostics import discrete_entropy

    H_prev = discrete_entropy(start, mesh, model)
    assert report.entropy + 1e-5 * report.dissipation.sum() <= H_prev + 1e-9 * max(1.0, H_prev)


def test_newton_damps_trials_beyond_the_model_domain(bdata_01):
    # case2 whose g is cut off at m = 0.5, as a quadrature model is at its
    # cap; the undamped first update from M = 0.1 reaches M = 0.554
    base = model_case2()

    def capped(fn):
        def inner(m):
            if np.max(m) > 0.5:
                raise ModelDomainError("beyond the tabulated range")
            return fn(m)
        return inner

    model = ModelFunctions("capped", base.params, base.p, base.p_prime, capped(base.g),
                           base.log_g, base.m_max)
    mesh = build_interval_mesh(4, "left")
    bdata = BoundaryData((0.25, 0.25))
    state = make_state(np.full((2, 4), 0.05))
    new, result = newton_step(state, evaluate(state.u, mesh, model, bdata), 1.0, mesh, model,
                              bdata)
    reference, _ = newton_step(state, evaluate(state.u, mesh, base, bdata), 1.0, mesh, base,
                               bdata)
    assert result.evaluation.biomass.max() < 0.5
    assert np.abs(new.u - reference.u).max() <= 1e-9


def test_newton_failure_signalled(case2, bdata_01, monkeypatch):
    # an absurdly tight iteration budget must surface as NewtonFailure
    mesh = build_interval_mesh(40, "left")
    datum = build_named_initial_datum("bumps-1d", {"u_d": (0.1, 0.1)})
    state = project_initial(datum, mesh)
    monkeypatch.setattr(scheme, "_MAX_NEWTON_ITERS", 1)
    monkeypatch.setattr(scheme, "NEWTON_TOL", 1e-14)
    with pytest.raises(NewtonFailure, match="no convergence within 1 iterations"):
        newton_step(state, evaluate(state.u, mesh, case2, bdata_01), 1e-2, mesh, case2,
                    bdata_01)


@pytest.mark.parametrize("dt", [-1e-3, 0.0, np.inf])
def test_newton_step_rejects_a_dt_that_is_not_positive_and_finite(dt, case2, bdata_01):
    # a negative dt stepped back in time, zero divided by zero, and inf ran
    # out of iterations
    mesh = build_interval_mesh(10, "left")
    state = project_initial(build_named_initial_datum("bumps-1d", {"u_d": (0.1, 0.1)}), mesh)
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        newton_step(state, evaluate(state.u, mesh, case2, bdata_01), dt, mesh, case2, bdata_01)


def test_nan_update_exhausts_the_damping(case2, bdata_01):
    # a NaN stays NaN under halving, and evaluate rejects it on every trial
    mesh = build_interval_mesh(10, "left")
    state = make_state(np.full((2, 10), 0.1))
    solver = scheme._LinearSolver()
    solver.solve = lambda matrix, rhs, cells=1.0, system=None: np.full_like(rhs, np.nan)
    with pytest.raises(NewtonFailure, match="damping exhausted"):
        newton_step(state, evaluate(state.u, mesh, case2, bdata_01), 1e-3, mesh, case2,
                    bdata_01, solver=solver)


def test_trial_with_non_finite_residual_is_halved(case2, bdata_01, monkeypatch):
    mesh = build_interval_mesh(20, "left")
    state = project_initial(build_named_initial_datum("bumps-1d", {"u_d": (0.1, 0.1)}), mesh)
    start = evaluate(state.u, mesh, case2, bdata_01)
    reference, _ = newton_step(state, start, 1e-3, mesh, case2, bdata_01)
    calls = []

    def first_trial_infinite(state_prev, evaluation, dt, mesh):
        calls.append(evaluation)
        out = residual(state_prev, evaluation, dt, mesh)
        return np.full_like(out, np.inf) if len(calls) == 2 else out

    monkeypatch.setattr(scheme, "residual", first_trial_infinite)
    new, result = newton_step(state, start, 1e-3, mesh, case2, bdata_01)
    # the full step of the first iterate was refused and its half step taken
    half_step = state.u + 0.5 * (calls[1].u - state.u)
    assert np.abs(calls[2].u - half_step).max() <= 1e-15
    assert result.residual_norm <= scheme.NEWTON_TOL
    assert np.abs(new.u - reference.u).max() <= 1e-9


def test_trial_with_a_negative_beyond_round_off_is_halved(bdata_01, monkeypatch):
    # only negatives above -_NEGATIVE_SLACK are clipped; a larger one makes
    # the trial inadmissible, so the update is halved until it is gone; the
    # alphas are unequal, so that the coupled system is the one solved
    case2 = model_case2(alphas=(1.0, 5.0))
    mesh = build_interval_mesh(20, "left")
    state = project_initial(build_named_initial_datum("bumps-1d", {"u_d": (0.1, 0.1)}), mesh)
    start = evaluate(state.u, mesh, case2, bdata_01)
    reference, _ = newton_step(state, start, 1e-3, mesh, case2, bdata_01)
    solver = scheme._LinearSolver()
    solve, updates = solver.solve, []

    def overshooting(matrix, rhs, cells=1.0, system=None):
        x = solve(matrix, rhs, cells, system)
        if not updates:
            x[0] = -3.0 * state.u[0, 0]  # full step -2 u, half step -u/2, quarter step u/4
        updates.append(x.reshape(state.u.shape, order="F"))
        return x

    solver.solve = overshooting
    calls = []
    monkeypatch.setattr(scheme, "residual",
                        lambda *args: calls.append(args[1]) or residual(*args))
    new, result = newton_step(state, start, 1e-3, mesh, case2, bdata_01, solver=solver)
    # the first residual after the start's is that of the accepted quarter step
    assert np.abs(calls[1].u - (state.u + 0.25 * updates[0])).max() <= 1e-15
    assert result.residual_norm <= scheme.NEWTON_TOL
    assert np.abs(new.u - reference.u).max() <= 1e-9


# -- advance -------------------------------------------------------------------------


def test_advance_to_current_time_is_identity(case2, bdata_01):
    mesh = build_interval_mesh(10, "left")
    state = make_state(np.full((2, 10), 0.1))
    out = advance(state, 0.0, mesh, case2, bdata_01, NewtonConfig())
    assert out is state


def test_advance_fixed_step_count_and_final_time(case2, bdata_01):
    mesh = build_interval_mesh(20, "left")
    datum = build_named_initial_datum("bumps-1d", {"u_d": (0.1, 0.1)})
    state = project_initial(datum, mesh)
    reports = []
    cfg = NewtonConfig(dt_min=1e-5, dt_init=1e-5, dt_max=1e-5)
    out = advance(state, 1e-4, mesh, case2, bdata_01, cfg,
                  observer=lambda r, s: reports.append(r))
    assert len(reports) == 10
    assert out.time == pytest.approx(1e-4, rel=1e-12)


def test_advance_adaptive_doubles_and_caps(case1, bdata_01):
    mesh = build_interval_mesh(20, "left")
    datum = build_named_initial_datum("bumps-1d", {"u_d": (0.1, 0.1)})
    state = project_initial(datum, mesh)
    reports = []
    cfg = NewtonConfig(dt_init=1e-5, dt_max=1e-3)
    advance(state, 1e-2, mesh, case1, bdata_01, cfg,
            observer=lambda r, s: reports.append(r))
    dts = [r.dt_used for r in reports]
    # doubling from dt_init until the cap, all within [dt_min, dt_max]
    assert dts[0] == 1e-5
    assert dts[1] == pytest.approx(2e-5)
    assert max(dts) <= 1e-3 + 1e-18
    assert any(d == pytest.approx(1e-3) for d in dts)


def test_advance_evaluates_each_state_once(bdata_01, monkeypatch):
    # advance evaluates its entry state once and hands every accepted
    # evaluation to the next step, so no state reaches g twice
    mesh = build_interval_mesh(40, "left")
    state = project_initial(build_named_initial_datum("bumps-1d", {"u_d": (0.1, 0.1)}), mesh)
    model = model_case1()
    seen = []
    g = model.g
    model.g = lambda m: seen.append(np.array(m, copy=True)) or g(m)
    residuals = []
    monkeypatch.setattr(scheme, "residual",
                        lambda *args: residuals.append(1) or residual(*args))
    reports = []
    advance(state, 4e-4, mesh, model, bdata_01,
            NewtonConfig(dt_min=1e-4, dt_init=1e-4, dt_max=1e-4),
            observer=lambda r, s: reports.append(r))
    assert len(reports) == 4
    assert len({m.tobytes() for m in seen}) == len(seen)
    assert len(seen) == len(residuals) - len(reports) + 1


def test_advance_conservation_identity(case1, bdata_01):
    mesh = build_interval_mesh(40, "left")
    datum = build_named_initial_datum("bumps-1d", {"u_d": (0.1, 0.1)})
    state = project_initial(datum, mesh)
    reports = []
    cfg = NewtonConfig(dt_min=1e-5, dt_init=1e-5, dt_max=1e-5)
    advance(state, 2e-4, mesh, case1, bdata_01, cfg,
            observer=lambda r, s: reports.append(r))
    assert max(abs(r.conservation_defect) for r in reports) <= 1e-10


def test_advance_fixed_step_resumes_after_a_landing_clamp(case2, bdata_01):
    mesh = build_interval_mesh(20, "left")
    datum = build_named_initial_datum("bumps-1d", {"u_d": (0.1, 0.1)})
    cfg = NewtonConfig(dt_min=1e-5, dt_init=1e-5, dt_max=1e-5)
    reports = []
    state = advance(project_initial(datum, mesh), 1.2e-5, mesh, case2, bdata_01, cfg)
    assert state.dt_last == pytest.approx(2e-6)
    advance(state, 5e-5, mesh, case2, bdata_01, cfg, observer=lambda r, s: reports.append(r))
    # the step after the 2e-6 landing is dt again, not twice the landing
    assert [r.dt_used for r in reports[:-1]] == [1e-5] * 3
    assert reports[-1].dt_used == pytest.approx(8e-6)


def test_advance_hard_failure_reports_time(case2, bdata_01, monkeypatch):
    mesh = build_interval_mesh(20, "left")
    datum = build_named_initial_datum("bumps-1d", {"u_d": (0.1, 0.1)})
    state = project_initial(datum, mesh)
    # an impossible tolerance exhausts the halving budget down to dt_min,
    # at once for a fixed step
    monkeypatch.setattr(scheme, "NEWTON_TOL", 1e-30)
    for cfg in (NewtonConfig(dt_init=1e-5, dt_min=1e-6),
                NewtonConfig(dt_min=1e-5, dt_init=1e-5, dt_max=1e-5)):
        with pytest.raises(SolverFailure) as failure:
            advance(state, 1e-3, mesh, case2, bdata_01, cfg)
        assert failure.value.time == 0.0
        assert "no convergence within 50 iterations" in str(failure.value)


@pytest.mark.parametrize("u_d", [(np.nan, 0.1), (0.1, np.inf), (-np.inf, 0.1), (np.nan, np.nan)])
def test_boundary_data_rejects_nan_and_infinity(u_d):
    # a NaN contact state used to pass both checks and fail only in the first step
    with pytest.raises(ValueError, match="boundary proportions must"):
        BoundaryData(u_d)


def test_boundary_data_rejects_an_empty_contact_state():
    # all() of an empty array is True, so () passed both checks
    with pytest.raises(ValueError, match="must be one or more positive numbers"):
        BoundaryData(())


def test_advance_rejects_a_horizon_before_the_state(case2, bdata_01):
    state = State(time=1e-3, u=np.full((2, 4), 0.1))
    with pytest.raises(ValueError, match="t_end lies before the current state time"):
        advance(state, 5e-4, build_interval_mesh(4, "left"), case2, bdata_01, FIXED_STEP)


def test_advance_rejects_a_nan_horizon(case2, bdata_01):
    # t_end < time and the loop test are both False for NaN, so a guard written
    # as the first would let advance return the entry state
    state = State(time=1e-3, u=np.full((2, 4), 0.1))
    with pytest.raises(ValueError, match="t_end lies before the current state time"):
        advance(state, np.nan, build_interval_mesh(4, "left"), case2, bdata_01, FIXED_STEP)


def test_advance_rejects_an_infinite_horizon(case2, bdata_01):
    # the time tolerance scales with |t_end|, so an infinite horizon counted
    # as reached and advance returned the entry state without a step
    state = State(time=1e-3, u=np.full((2, 4), 0.1))
    with pytest.raises(ValueError, match="t_end must be finite"):
        advance(state, np.inf, build_interval_mesh(4, "left"), case2, bdata_01, FIXED_STEP)


def test_uniform_steady_state_is_stationary(case2, bdata_01):
    mesh = build_interval_mesh(15, "left")
    state = make_state(np.full((2, 15), 0.1))
    out = advance(state, 5e-4, mesh, case2, bdata_01,
                  NewtonConfig(dt_min=1e-4, dt_init=1e-4, dt_max=1e-4))
    assert np.array_equal(out.u, state.u)


def test_max_principle_along_equal_diffusivity_run(case2, bdata_01):
    mesh = build_interval_mesh(40, "left")
    datum = build_named_initial_datum("bumps-1d", {"u_d": (0.1, 0.1)})
    state = project_initial(datum, mesh)
    m_star = max_principle_bound(state, bdata_01)
    reports = []
    advance(state, 5e-4, mesh, case2, bdata_01,
            NewtonConfig(dt_min=1e-5, dt_init=1e-5, dt_max=1e-5),
            observer=lambda r, s: reports.append(r))
    assert max(r.max_M for r in reports) <= m_star + 1e-12
    assert min(r.min_u for r in reports) >= 0.0


@pytest.mark.parametrize("dimension", [1, 2])
def test_single_species_run_keeps_its_biomass_bound(dimension, monkeypatch):
    # one species solves the coupled system: in 1D a tridiagonal band, which
    # dgtsv factors once per iterate, and in 2D on held SuperLU factors
    monkeypatch.setattr(scheme, "dgbsv", None)
    if dimension == 1:
        mesh, box = build_interval_mesh(64, "left"), (0.2, 0.5)
    else:
        mesh = build_rectangle_mesh(8, 8, lambda x, y: abs(y - 1.0) < 1e-12)
        box = (0.2, 0.5, 0.0, 0.4)
    model = model_case1(alphas=(1.0,))
    bdata = BoundaryData((0.1,))
    datum = build_named_initial_datum("custom-indicator",
                                      {"base": (0.1,), "bump": (0.3,), "boxes": (box,)})
    state = project_initial(datum, mesh)
    m_star = max_principle_bound(state, bdata)
    reports = []
    final = advance(state, 0.02, mesh, model, bdata, NewtonConfig(),
                    observer=lambda r, s: reports.append(r))
    assert final.time == 0.02
    assert all(r.max_M <= m_star for r in reports)
    if dimension == 1:
        assert [r.lu_factorizations for r in reports] == [r.newton_iters for r in reports]


# -- invariant violations -------------------------------------------------------------

FIXED_STEP = NewtonConfig(dt_min=1e-5, dt_init=1e-5, dt_max=1e-5)


def _stub_newton_step(monkeypatch, u, record=None):
    """Every Newton step returns the state u with ``record``, by default u's evaluation."""
    def step(state_prev, start, dt, mesh, model, bdata, *, solver=None):
        accepted = evaluate(u, mesh, model, bdata) if record is None else record
        new = State(time=state_prev.time + dt, u=u, dt_last=dt)
        return new, scheme.NewtonResult(accepted, newton_iters=1, residual_norm=0.0)

    monkeypatch.setattr(scheme, "newton_step", step)


def test_advance_rejects_a_biomass_above_its_bound(case2, bdata_01, monkeypatch):
    # equal diffusivities, so M <= M* = 0.2 is enforced; M = 0.4 is admissible
    mesh = build_interval_mesh(4, "left")
    _stub_newton_step(monkeypatch, np.full((2, 4), 0.2))
    with pytest.raises(InvariantViolation,
                       match=r"biomass bound violated at t = 1\.000000e-05: 0\.4 > 0\.2"):
        advance(make_state(np.full((2, 4), 0.1)), 1e-5, mesh, case2, bdata_01, FIXED_STEP)


def test_advance_rejects_an_entropy_rise(case2, bdata_01, monkeypatch):
    entropies = iter([0.0, 1.0])  # the entry state's, then the accepted state's
    monkeypatch.setattr(diagnostics, "discrete_entropy", lambda *args: next(entropies))
    mesh = build_interval_mesh(4, "left")
    with pytest.raises(InvariantViolation, match=r"entropy inequality violated at t = 1\.0+e-05"):
        advance(make_state(np.full((2, 4), 0.1)), 1e-5, mesh, case2, bdata_01, FIXED_STEP)


def test_advance_rejects_a_nan_entropy(case2, bdata_01, monkeypatch):
    # a NaN entropy compares false against any bound, so it must fail the check
    entropies = iter([0.0, np.nan])  # the entry state's, then the accepted state's
    monkeypatch.setattr(diagnostics, "discrete_entropy", lambda *args: next(entropies))
    mesh = build_interval_mesh(4, "left")
    with pytest.raises(InvariantViolation, match=r"entropy inequality violated at t = 1\.0+e-05"):
        advance(make_state(np.full((2, 4), 0.1)), 1e-5, mesh, case2, bdata_01, FIXED_STEP)


def test_advance_rejects_a_negative_proportion_before_its_diagnostics(case2, bdata_01,
                                                                      monkeypatch):
    # the record keeps an admissible biomass, so only nonnegativity fails; the
    # dissipation's sqrt of a negative u would raise a RuntimeWarning, an error here
    mesh = build_interval_mesh(4, "left")
    state = make_state(np.full((2, 4), 0.1))
    negative = state.u.copy()
    negative[0, 1] = -0.01
    record = dataclasses.replace(evaluate(state.u, mesh, case2, bdata_01),
                                 u_ext=with_contact(negative, bdata_01.values))
    _stub_newton_step(monkeypatch, negative, record)
    with pytest.raises(InvariantViolation, match=r"negative proportion at t = 1\.0+e-05"):
        advance(state, 1e-5, mesh, case2, bdata_01, FIXED_STEP)


def test_advance_rejects_a_conservation_defect(case2, bdata_01, monkeypatch):
    # u = 0.095 is admissible and below M* = 0.2, but it loses mass 0.01 that
    # no contact flux carries out, far beyond Newton's bound n tol |Omega| = 2e-10
    mesh = build_interval_mesh(4, "left")
    _stub_newton_step(monkeypatch, np.full((2, 4), 0.095))
    with pytest.raises(InvariantViolation, match=r"conservation violated at t = 1\.0+e-05"):
        advance(make_state(np.full((2, 4), 0.1)), 1e-5, mesh, case2, bdata_01, FIXED_STEP)
