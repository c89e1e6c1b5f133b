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
    dissipation,
    entropy_density,
    entropy_production_beta_bound,
    evaluate,
    model_case2,
    project_initial,
)
from biofilm_fv.harness import build_named_initial_datum
from biofilm_fv import oracle
from biofilm_fv.oracle import beta_bound_margin, random_admissible
from conftest import make_state

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
    mesh = build_interval_mesh(16, "left")
    assert beta_bound_margin(np.random.default_rng(17), mesh, case2, bdata_01) >= -1e-12


def test_beta_bound_random_states_2d(case1, bdata_01):
    mesh = build_rectangle_mesh(4, 4, TOP)
    assert beta_bound_margin(np.random.default_rng(23), mesh, case1, bdata_01, 50) >= -1e-12


def test_beta_bound_margin_keeps_a_nan_bound(case2, bdata_01, monkeypatch):
    # one NaN state among finite ones must fail the >= -1e-12 check, not be skipped
    bounds = iter([(1.0, 0.5), (np.nan, 0.5), (1.0, 0.5)])
    monkeypatch.setattr(oracle, "entropy_production_beta_bound", lambda *_: next(bounds))
    mesh = build_interval_mesh(4, "left")
    margin = beta_bound_margin(np.random.default_rng(0), mesh, case2, bdata_01, 3)
    assert not margin >= -1e-12


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
