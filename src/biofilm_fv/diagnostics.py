"""Discrete entropy, dissipation, norms and gradient reconstruction.

The per-state diagnostics read one ``scheme.Evaluation``: its u, the contact
state u^D in ghost column ``n_cells`` (``mesh.with_contact``), the biomass M
with M^D beside it, and g and p.  They are pure in (evaluation, mesh, model):
repeated evaluation returns bitwise identical results, and an entropy is
always taken against the contact state that the scheme used.  Edge sums run
over the mesh's flux edges, as in the scheme; Neumann edges contribute
nothing.  g and p are never evaluated here, and the entropy needs only the
primitive of log g.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .mesh import Mesh, jump, with_contact
from .model import ModelFunctions


@dataclass(frozen=True)
class NormReport:
    l2: float
    h1_semi: float
    linf: float


def discrete_entropy(evaluation, mesh: Mesh, model: ModelFunctions) -> float:
    """Relative entropy sum_K m(K) h*(u_K | u^D); zero iff u is the contact state."""
    u, u_d, m_d = evaluation.u, evaluation.u_ext[:, -1:], evaluation.m[-1]
    kl = np.sum(xlogy(u, u / u_d) - u + u_d, axis=0)
    primitive = model.log_g_primitive(evaluation.m)
    bregman = (primitive[:-1] - primitive[-1]
               - float(model.log_g(m_d)) * (evaluation.biomass - m_d))
    return float(mesh.cell_measures @ (kl + bregman))


def dissipation(evaluation, mesh: Mesh) -> np.ndarray:
    """Per-species entropy dissipation: edge sums of tau psq (D sqrt(u_i g(M)))^2."""
    return (jump(np.sqrt(evaluation.u_ext * evaluation.g), mesh) ** 2
            * (mesh.flux_tau * evaluation.psq)).sum(axis=1)


def entropy_production(dissipation, alphas) -> float:
    """Entropy production sum_i alpha_i I_i from the per-species dissipations I_i.

    The one weighting behind the entropy inequality
    H_k + dt * production <= H_{k-1} that ``scheme.advance`` enforces, the
    margin that runs report and the ``I_total`` column of ``entropy.csv``.
    """
    return float(np.asarray(alphas, dtype=float) @ dissipation)


def entropy_production_beta_bound(evaluation, mesh: Mesh):
    """Explicit lower bound for the total dissipation.

    Returns (lhs, rhs) with lhs the summed dissipation and

        rhs = 1/2 sum_i sum_sigma tau * min(pq_K, pq_Ksigma) * (D_sigma sqrt(u_i))^2,

    where pq = p(M)^2 g(M), from the evaluation's g and p.  The inequality
    lhs >= rhs holds for every admissible state up to round-off; callers
    assert lhs >= rhs - 1e-12.
    """
    pq = evaluation.p**2 * evaluation.g
    beta = np.minimum(pq[mesh.flux_K], pq[mesh.flux_L])
    rhs = (jump(np.sqrt(evaluation.u_ext), mesh) ** 2 * (mesh.flux_tau * beta)).sum()
    return float(dissipation(evaluation, mesh).sum()), 0.5 * float(rhs)


def singular_gradient_weight(evaluation, mesh: Mesh, model: ModelFunctions) -> float:
    """Informational edge sum sum_sigma tau M_mid^(a-1) (1-M_mid)^(-1-b-kappa) (D M)^2.

    Reported alongside the dissipation bound but never asserted: the constant
    multiplying it in the production estimate is nonconstructive, and the
    intermediate biomass value is taken as the edge midpoint by convention.
    Models without a stated singularity exponent use kappa = 0.
    """
    m = evaluation.m
    a, b = model.params.a, model.params.b
    kappa = model.params.kappa or 0.0
    mid = 0.5 * (m[mesh.flux_K] + m[mesh.flux_L])
    weight = mesh.flux_tau * mid ** (a - 1.0) * (1.0 - mid) ** (-1.0 - b - kappa)
    return float((weight * jump(m, mesh) ** 2).sum())


def _field_jumps(v, mesh, dirichlet_value):
    """D_sigma v on the flux edges; on the interior ones alone without a contact value."""
    if dirichlet_value is None:
        return jump(with_contact(v, np.nan), mesh)[: mesh.interior.size]
    return jump(with_contact(v, float(dirichlet_value)), mesh)


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
