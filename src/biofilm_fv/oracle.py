"""Independent checks of the scheme's structure, shared by ``selftest`` and the tests.

Each check is written once here; its callers choose the seeds, points and
repeats.  ``scipy.integrate`` is imported only inside ``quadrature_g``, so a
run that never checks g does not load it.
"""

from __future__ import annotations

import numpy as np

from .diagnostics import entropy_production_beta_bound
from .scheme import State, evaluate, jacobian, residual


def random_admissible(rng, n_species, n_cells, low=0.01, high=0.45):
    """Strictly positive proportions with biomass bounded away from 1."""
    return rng.uniform(low, high, size=(n_species, n_cells))


def quadrature_g(model, m):
    """g(m) = G(m)/m, G(m) = int_0^m s^a / ((1 - s)^b p(s)^2) ds, by adaptive quadrature."""
    from scipy.integrate import quad

    a, b = model.params.a, model.params.b

    def integrand(s):
        return s**a / (1.0 - s) ** b / float(model.p(s)) ** 2

    return quad(integrand, 0.0, m, epsabs=1e-300, epsrel=1e-13, limit=400)[0] / m


def g_deviation(model, ms):
    """Largest relative deviation of ``model.g`` from ``quadrature_g`` over the points ``ms``.

    NaN if any point gives NaN, so the caller's threshold check fails.
    """
    deviations = []
    for m in ms:
        ref = quadrature_g(model, m)
        deviations.append(abs(float(model.g(m)) - ref) / ref)
    return float(np.max(deviations))


def fd_jacobian(u, dt, mesh, model, bdata, step=1e-7):
    """Central finite differences of the residual at ``u``; the independent oracle.

    Dense, in the cell-major ordering of ``scheme.jacobian``.  The residual's
    previous state cancels in the differences, so ``u`` stands in for it.
    """
    state = State(time=0.0, u=u)
    n, n_cells = u.shape
    size = n * n_cells
    out = np.empty((size, size))
    for col in range(size):
        i, k = col % n, col // n
        h = step * max(1.0, abs(u[i, k]))
        up, um = u.copy(), u.copy()
        up[i, k] += h
        um[i, k] -= h
        rp = residual(state, evaluate(up, mesh, model, bdata), dt, mesh)
        rm = residual(state, evaluate(um, mesh, model, bdata), dt, mesh)
        out[:, col] = (rp - rm).ravel(order="F") / (2.0 * h)
    return out


def jacobian_deviation(u, dt, mesh, model, bdata):
    """Largest |J - J_fd| entry of ``scheme.jacobian`` at ``u``, relative to the largest |J_fd|."""
    exact = jacobian(evaluate(u, mesh, model, bdata), dt, mesh, model).toarray()
    approx = fd_jacobian(u, dt, mesh, model, bdata)
    return np.abs(exact - approx).max() / np.abs(approx).max()


def beta_bound_margin(rng, mesh, model, bdata, repeats=100):
    """Worst lhs - rhs of the dissipation lower bound on ``repeats`` random admissible states.

    NaN if any state gives NaN, so the caller's ``>= -1e-12`` check fails.
    """
    margins = []
    for _ in range(repeats):
        u = random_admissible(rng, len(model.params.alphas), mesh.n_cells)
        lhs, rhs = entropy_production_beta_bound(evaluate(u, mesh, model, bdata), mesh)
        margins.append(lhs - rhs)
    return float(np.min(margins))
