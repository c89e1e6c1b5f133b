"""Discrete entropy, dissipation, norms and gradient reconstruction.

All functions here are pure in (state, mesh, model, boundary data): repeated
evaluation returns bitwise identical results.  Edge sums follow the boundary
convention of the scheme: Dirichlet edges contribute with the contact state,
Neumann edges contribute nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .mesh import Mesh
from .model import ModelDomainError, ModelFunctions


@dataclass(frozen=True)
class EntropyReport:
    entropy: float
    dissipation: np.ndarray
    lower_bound_beta_term: float
    max_M: float
    min_u: float


@dataclass(frozen=True)
class NormReport:
    l2: float
    h1_semi: float
    linf: float


def _admissible_biomass(state):
    biomass = state.u.sum(axis=0)
    if biomass.size and biomass.max() >= 1.0:
        raise ModelDomainError(
            f"biomass reached saturation: max = {float(biomass.max())}"
        )
    if state.u.size and state.u.min() < 0.0:
        raise ModelDomainError("negative species proportion")
    return biomass


def discrete_entropy(state, mesh: Mesh, model: ModelFunctions, bdata) -> float:
    """Relative entropy sum_K m(K) h*(u_K | u^D); zero iff u is the contact state."""
    biomass = _admissible_biomass(state)
    u_d = bdata.values
    m_d = bdata.biomass
    kl = np.sum(xlogy(state.u, state.u / u_d[:, None]) - state.u + u_d[:, None], axis=0)
    primitive = model.log_g_primitive
    bregman = (
        primitive(biomass)
        - primitive(m_d)
        - float(model.log_g(m_d)) * (biomass - m_d)
    )
    return float(mesh.cell_measures @ (kl + bregman))


def _edge_square_sums(values, boundary_values, mesh, psq_cell, psq_boundary):
    """sum_sigma tau * psq_sigma * (D_sigma values)^2 per species."""
    K, L, tau = mesh.interior_K, mesh.interior_L, mesh.interior_tau
    psq = 0.5 * (psq_cell[K] + psq_cell[L])
    acc = ((values[:, L] - values[:, K]) ** 2 * (tau * psq)).sum(axis=1)
    Kd, tau_d = mesh.dirichlet_K, mesh.dirichlet_tau
    psq_b = 0.5 * (psq_cell[Kd] + psq_boundary)
    acc += ((boundary_values[:, None] - values[:, Kd]) ** 2 * (tau_d * psq_b)).sum(axis=1)
    return acc


def dissipation(state, mesh: Mesh, model: ModelFunctions, bdata) -> np.ndarray:
    """Per-species entropy dissipation: edge sums of tau psq (D sqrt(u_i g(M)))^2."""
    biomass = _admissible_biomass(state)
    root_v = np.sqrt(state.u * model.g(biomass))
    root_v_d = np.sqrt(bdata.values * model.g(bdata.biomass))
    psq_cell = model.p(biomass) ** 2
    psq_d = model.p(bdata.biomass) ** 2
    return _edge_square_sums(root_v, root_v_d, mesh, psq_cell, psq_d)


def entropy_production(dissipation, alphas) -> float:
    """Entropy production sum_i alpha_i I_i from the per-species dissipations I_i.

    The one weighting behind the entropy inequality
    H_k + dt * production <= H_{k-1} that ``scheme.advance`` enforces, the
    margin that runs report and the ``I_total`` column of ``entropy.csv``.
    """
    return float(np.asarray(alphas, dtype=float) @ dissipation)


def entropy_production_beta_bound(state, mesh: Mesh, model: ModelFunctions, bdata):
    """Explicit lower bound for the total dissipation.

    Returns (lhs, rhs) with lhs the summed dissipation and

        rhs = 1/2 sum_i sum_sigma tau * min(pq_K, pq_Ksigma) * (D_sigma sqrt(u_i))^2,

    where pq = p(M)^2 g(M).  The inequality lhs >= rhs holds for every
    admissible state up to round-off; callers assert lhs >= rhs - 1e-12.
    """
    biomass = _admissible_biomass(state)
    lhs = float(dissipation(state, mesh, model, bdata).sum())

    pq_cell = model.pq(biomass)
    pq_d = float(model.pq(bdata.biomass))
    root_u = np.sqrt(state.u)
    root_u_d = np.sqrt(bdata.values)

    K, L, tau = mesh.interior_K, mesh.interior_L, mesh.interior_tau
    beta = np.minimum(pq_cell[K], pq_cell[L])
    rhs = ((root_u[:, L] - root_u[:, K]) ** 2 * (tau * beta)).sum()
    Kd, tau_d = mesh.dirichlet_K, mesh.dirichlet_tau
    beta_b = np.minimum(pq_cell[Kd], pq_d)
    rhs += ((root_u_d[:, None] - root_u[:, Kd]) ** 2 * (tau_d * beta_b)).sum()
    return lhs, 0.5 * float(rhs)


def singular_gradient_weight(state, mesh: Mesh, model: ModelFunctions, bdata) -> float:
    """Informational edge sum sum_sigma tau M_mid^(a-1) (1-M_mid)^(-1-b-kappa) (D M)^2.

    Reported alongside the dissipation bound but never asserted: the constant
    multiplying it in the production estimate is nonconstructive, and the
    intermediate biomass value is taken as the edge midpoint by convention.
    Models without a stated singularity exponent use kappa = 0.
    """
    biomass = _admissible_biomass(state)
    a, b = model.params.a, model.params.b
    kappa = model.params.kappa or 0.0
    K, L, tau = mesh.interior_K, mesh.interior_L, mesh.interior_tau
    mid = 0.5 * (biomass[K] + biomass[L])
    diff = biomass[L] - biomass[K]
    acc = float((tau * mid ** (a - 1.0) * (1.0 - mid) ** (-1.0 - b - kappa) * diff**2).sum())
    Kd, tau_d = mesh.dirichlet_K, mesh.dirichlet_tau
    mid_b = 0.5 * (biomass[Kd] + bdata.biomass)
    diff_b = bdata.biomass - biomass[Kd]
    acc += float(
        (tau_d * mid_b ** (a - 1.0) * (1.0 - mid_b) ** (-1.0 - b - kappa) * diff_b**2).sum()
    )
    return acc


def entropy_report(state, mesh: Mesh, model: ModelFunctions, bdata) -> EntropyReport:
    lhs, rhs = entropy_production_beta_bound(state, mesh, model, bdata)
    return EntropyReport(
        entropy=discrete_entropy(state, mesh, model, bdata),
        dissipation=dissipation(state, mesh, model, bdata),
        lower_bound_beta_term=rhs,
        max_M=float(state.biomass.max()),
        min_u=float(state.u.min()),
    )


def discrete_norms(cell_values, mesh: Mesh, dirichlet_values=None) -> NormReport:
    """L2 norm, H1 seminorm and max norm of a per-cell field.

    ``dirichlet_values`` (scalar or one value per Dirichlet edge) supplies the
    field on the contact boundary; without it the Dirichlet edges are skipped,
    which is the right convention for fields only defined in the interior.
    """
    v = np.asarray(cell_values, dtype=float)
    l2 = float(np.sqrt(mesh.cell_measures @ v**2))
    linf = float(np.abs(v).max()) if v.size else 0.0
    K, L, tau = mesh.interior_K, mesh.interior_L, mesh.interior_tau
    h1_sq = float(((v[L] - v[K]) ** 2 * tau).sum())
    if dirichlet_values is not None:
        v_b = np.broadcast_to(np.asarray(dirichlet_values, dtype=float),
                              mesh.dirichlet_K.shape)
        h1_sq += float(((v_b - v[mesh.dirichlet_K]) ** 2 * mesh.dirichlet_tau).sum())
    return NormReport(l2=l2, h1_semi=float(np.sqrt(h1_sq)), linf=linf)


def reconstruct_gradient(cell_values, mesh: Mesh, dirichlet_values=None) -> np.ndarray:
    """Piecewise-constant gradient on the dual (diamond) cells, shape (E, d).

    On the dual cell of edge sigma the gradient is
    (m(sigma) / m(T_sigma)) * D_{K,sigma} v * nu_{K,sigma}.  Its squared L2
    norm equals 2 sum_sigma tau (D_sigma v)^2, i.e. sqrt(2) times the H1
    seminorm when only interior edges contribute.
    """
    v = np.asarray(cell_values, dtype=float)
    diff = np.zeros(mesh.n_edges)
    diff[mesh.interior] = v[mesh.interior_L] - v[mesh.interior_K]
    if dirichlet_values is not None:
        v_b = np.broadcast_to(np.asarray(dirichlet_values, dtype=float),
                              mesh.dirichlet_K.shape)
        diff[mesh.dirichlet] = v_b - v[mesh.dirichlet_K]
    factor = mesh.edge_measures / mesh.edge_dual_measures * diff
    return factor[:, None] * mesh.edge_normals
