"""Finite-difference oracle for the Jacobian, shared by ``selftest`` and the tests."""

from __future__ import annotations

import numpy as np

from .scheme import evaluate, residual


def fd_jacobian(state, u, dt, mesh, model, bdata, step=1e-7):
    """Central finite differences of the residual; the independent oracle.

    Dense, in the cell-major ordering of ``scheme.jacobian``.
    """
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
