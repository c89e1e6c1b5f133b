"""Discrete entropy, dissipation and entropy production.

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

import numpy as np

from .mesh import Mesh, jump
from .model import ModelFunctions, xlogy


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
