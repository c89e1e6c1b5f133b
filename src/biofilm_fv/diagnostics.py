"""Discrete entropy, dissipation, norms and gradient reconstruction.

All functions here are pure in (state, mesh, model, boundary data), or in
(evaluation, mesh) for ``dissipation``: repeated evaluation returns bitwise
identical results.  Edge sums run over the mesh's flux edges, as in the
scheme: on a Dirichlet edge the far side is the ghost column ``n_cells``
holding the contact state, and Neumann edges contribute nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .mesh import Mesh
from .model import ModelFunctions, admissible_biomass


@dataclass(frozen=True)
class NormReport:
    l2: float
    h1_semi: float
    linf: float


def _with_contact(cell_values, contact_values):
    """Cell values with the contact state appended as the ghost column ``n_cells``."""
    return np.concatenate([cell_values, np.expand_dims(contact_values, -1)], axis=-1)


def _jump(values, mesh):
    """D_sigma of ghost-extended values on every flux edge: far side minus K."""
    return values[..., mesh.flux_L] - values[..., mesh.flux_K]


def _mobility(u, biomass, mesh, model, bdata):
    """u, g(M) and p(M) on the cells and the contact state, and psq_sigma.

    g and p are evaluated once, on the per-cell biomass with the contact
    biomass appended.  psq_sigma = (p(M_K)^2 + p(M_L)^2) / 2 on every flux edge.
    """
    m = _with_contact(biomass, bdata.biomass)
    g, p = model.g(m), model.p(m)
    psq = p**2
    return _with_contact(u, bdata.values), g, p, 0.5 * (psq[mesh.flux_K] + psq[mesh.flux_L])


def discrete_entropy(state, mesh: Mesh, model: ModelFunctions, bdata) -> float:
    """Relative entropy sum_K m(K) h*(u_K | u^D); zero iff u is the contact state."""
    biomass = admissible_biomass(state.u)
    u_d, m_d = bdata.values, bdata.biomass
    kl = np.sum(xlogy(state.u, state.u / u_d[:, None]) - state.u + u_d[:, None], axis=0)
    primitive = model.log_g_primitive(_with_contact(biomass, m_d))
    bregman = primitive[:-1] - primitive[-1] - float(model.log_g(m_d)) * (biomass - m_d)
    return float(mesh.cell_measures @ (kl + bregman))


def _dissipation(u, g, psq, mesh):
    return (_jump(np.sqrt(u * g), mesh) ** 2 * (mesh.flux_tau * psq)).sum(axis=1)


def dissipation(evaluation, mesh: Mesh) -> np.ndarray:
    """Per-species entropy dissipation: edge sums of tau psq (D sqrt(u_i g(M)))^2.

    ``evaluation`` is a ``scheme.Evaluation``, which exists only for an admissible state.
    """
    return _dissipation(evaluation.u_ext, evaluation.g, evaluation.psq, mesh)


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
    u, g, p, psq = _mobility(state.u, admissible_biomass(state.u), mesh, model, bdata)
    pq = p**2 * g
    beta = np.minimum(pq[mesh.flux_K], pq[mesh.flux_L])
    rhs = (_jump(np.sqrt(u), mesh) ** 2 * (mesh.flux_tau * beta)).sum()
    return float(_dissipation(u, g, psq, mesh).sum()), 0.5 * float(rhs)


def singular_gradient_weight(state, mesh: Mesh, model: ModelFunctions, bdata) -> float:
    """Informational edge sum sum_sigma tau M_mid^(a-1) (1-M_mid)^(-1-b-kappa) (D M)^2.

    Reported alongside the dissipation bound but never asserted: the constant
    multiplying it in the production estimate is nonconstructive, and the
    intermediate biomass value is taken as the edge midpoint by convention.
    Models without a stated singularity exponent use kappa = 0.
    """
    biomass = _with_contact(admissible_biomass(state.u), bdata.biomass)
    a, b = model.params.a, model.params.b
    kappa = model.params.kappa or 0.0
    mid = 0.5 * (biomass[mesh.flux_K] + biomass[mesh.flux_L])
    weight = mesh.flux_tau * mid ** (a - 1.0) * (1.0 - mid) ** (-1.0 - b - kappa)
    return float((weight * _jump(biomass, mesh) ** 2).sum())


def _field_jumps(v, mesh, dirichlet_value):
    """D_sigma v on the flux edges; on the interior ones alone without a contact value."""
    if dirichlet_value is None:
        return _jump(_with_contact(v, np.nan), mesh)[: mesh.interior.size]
    return _jump(_with_contact(v, float(dirichlet_value)), mesh)


def discrete_norms(cell_values, mesh: Mesh, dirichlet_values=None) -> NormReport:
    """L2 norm, H1 seminorm and max norm of a per-cell field.

    ``dirichlet_values`` (a scalar) supplies the field on the contact
    boundary; without it the Dirichlet edges are skipped, which is the right
    convention for fields only defined in the interior.
    """
    v = np.asarray(cell_values, dtype=float)
    l2 = float(np.sqrt(mesh.cell_measures @ v**2))
    linf = float(np.abs(v).max()) if v.size else 0.0
    jumps = _field_jumps(v, mesh, dirichlet_values)
    h1_sq = float((jumps**2 * mesh.flux_tau[: jumps.size]).sum())
    return NormReport(l2=l2, h1_semi=float(np.sqrt(h1_sq)), linf=linf)


def reconstruct_gradient(cell_values, mesh: Mesh, dirichlet_values=None) -> np.ndarray:
    """Piecewise-constant gradient on the dual (diamond) cells, shape (E, d).

    On the dual cell of edge sigma the gradient is
    (m(sigma) / m(T_sigma)) * D_{K,sigma} v * nu_{K,sigma}.  Its squared L2
    norm equals 2 sum_sigma tau (D_sigma v)^2, i.e. sqrt(2) times the H1
    seminorm when only interior edges contribute.  ``dirichlet_values`` is
    as in ``discrete_norms``.
    """
    jumps = _field_jumps(np.asarray(cell_values, dtype=float), mesh, dirichlet_values)
    diff = np.zeros(mesh.n_edges)
    diff[np.concatenate([mesh.interior, mesh.dirichlet])[: jumps.size]] = jumps
    factor = mesh.edge_measures / mesh.edge_dual_measures * diff
    return factor[:, None] * mesh.edge_normals
