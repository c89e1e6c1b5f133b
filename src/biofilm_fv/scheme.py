"""Implicit Euler two-point-flux scheme and its damped Newton driver.

One time step solves, per species i and cell K,

    m(K)/dt * (u_{i,K} - u_{i,K}^prev) + sum_{edges of K} F_{i,K,sigma} = 0,
    F_{i,K,sigma} = -tau_sigma * alpha_i * psq_sigma * (v_{i,K,sigma} - v_{i,K}),

with v_i = u_i * g(M), M the per-cell biomass, and psq the arithmetic mean of
p(M)^2 on the two sides of the edge.  On Dirichlet edges the far side is a
ghost cell holding the constant contact state; Neumann edges carry no flux.
The unknowns are the physical proportions (cell-major ordering: cell index
varies slowest) and the Jacobian is exact, including the dependence of psq
on the biomass.

``evaluate``, the only code that evaluates g and p on a state, computes g,
p, psq, D_sigma v and F once per admissible state (``admissible_biomass``);
its ``Evaluation`` record is all that ``residual(state_prev, ev, dt, mesh)``,
``jacobian(ev, dt, mesh, model)``, ``dirichlet_fluxes(ev, mesh)`` and the
per-state functions of ``diagnostics``, the entropy included, read; the
Jacobian derives g' from its g and p, and evaluates only p' beyond it.

``newton_step(state_prev, start, dt, ...)`` only solves: it iterates from
``start``, any evaluated first iterate, and returns the new state with its
accepted evaluation.  ``advance`` owns the rest of a step: it evaluates
its entry state, and takes its entropy from that, once per call; hands each
accepted evaluation on as the next step's ``start`` (dt-halving retries reuse
it); enforces the invariants, then takes the step's diagnostics from it; and
builds the one ``StepReport``.  Nothing is kept between calls.

The flux derivatives are alpha_i times edge terms that belong to no
species, and ``_jacobian_parts`` is their one producer: three edge-shaped
arrays for the K side of every flux edge and the L side of every interior
one.  Every Newton matrix is built from them by ``_newton_matrix``, with one
``bincount`` on the mesh's cached pattern, which alone chooses the storage:
on 1D meshes DIA on LAPACK's band storage, each iterate factored and solved
by one LAPACK call (``dgtsv`` for a tridiagonal band, else ``dgbsv``); on 2D
meshes CSC, which ``_LinearSolver`` factors with SuperLU in MMD order and
solves on held factors by iterative refinement, factoring anew only when it
stalls, to within ``_FORCING`` of Newton's stop (the forcing term of inexact
Newton).  ``_add_edge_sums`` sums edge values into cells by one ``bincount``.

With equal diffusivities and n >= 2 species, the paper's setting, the
species equations sum to a closed equation for the biomass M, and
``_BiomassSplit`` solves the Newton system by block elimination: one
one-species system for dM, whose edge terms need only M and D_sigma(M g),
and one for the species, each on the mesh's n = 1 pattern with its own
``_LinearSolver``, to round-off on fresh factors and within ``_FORCING`` of
Newton's stop on held ones.  The model's alpha_i alone choose the path
(``_newton_solver``); unequal alpha_i and a single species solve the
coupled system, whose (n, n) edge blocks ``_edge_blocks`` expands.  One
solver serves every step of an ``advance`` call.

Nonnegativity and the biomass bound are theorems for exact solutions of the
scheme, so the Newton safeguard only protects transient iterates, by one rule.
A damping trial has its round-off negatives in (-1e-14, 0) clipped to zero and
is accepted when ``evaluate`` takes it (it is admissible and inside the
model's domain) and its residual is finite; otherwise the update is halved.
"""

from __future__ import annotations

import copy
import weakref
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbsv, dgtsv
from scipy.sparse.linalg import splu

from . import diagnostics
from .mesh import Mesh, jump, with_contact
from .model import (ModelDomainError, ModelFunctions, admissible_biomass, equal_diffusivities,
                    g_prime)

# Newton's stop, max |R dt / m(K)| <= NEWTON_TOL, its iteration budget and its
# iterate safeguards
NEWTON_TOL = 1e-10
_MAX_NEWTON_ITERS = 50
_NEGATIVE_SLACK = 1e-14
_MAX_HALVINGS = 30
_DAMPING = 0.5

# refinement of a solve on held LU factors (``_LinearSolver``, 2D meshes):
# the forcing term, the share of Newton's stop that a linear residual may
# take (|b - J x| <= _FORCING * NEWTON_TOL * m(K)/dt in every row of cell K),
# sweeps at most, and the least contraction per sweep, below which the
# Jacobian is factored anew
_FORCING = 1e-3
_REFINE_SWEEPS = 3
_REFINE_CONTRACTION = 0.1

# invariant tolerances checked after every accepted step
MAX_PRINCIPLE_TOL = 1e-12
ENTROPY_STEP_TOL = 1e-9
# the round-off allowed beside Newton's conservation bound, in units of eps
# times the magnitudes summed (see ``advance``): a few roundings per residual
# entry plus numpy's pairwise summation over up to ~10^7 terms stay below it
CONSERVATION_ROUNDOFF = 64
_EPS = np.finfo(float).eps

# relative to max(1, |t_end|): ``advance`` counts a horizon this close as reached
TIME_TOL = 1e-13


class SolverError(Exception):
    """Base class for time-stepping failures."""


class NewtonFailure(SolverError):
    """Newton did not converge; ``advance`` reacts by halving dt."""


class SolverFailure(SolverError):
    """Hard failure: dt exhausted below its floor."""

    def __init__(self, message, time):
        super().__init__(f"{message} (at t = {time:.6e})")
        self.time = time


class InvariantViolation(SolverError):
    """An accepted step broke a provable structural property."""


@dataclass(frozen=True, eq=False)
class State:
    """Snapshot of the discrete solution: u has shape (n_species, n_cells).

    The fields cannot be rebound, but ``u`` is an ordinary writeable array;
    ``advance`` reads only ``time``, ``u`` and ``dt_last`` of its entry state.
    """

    time: float
    u: np.ndarray
    dt_last: float | None = None

    @property
    def biomass(self):
        return self.u.sum(axis=0)


@dataclass(frozen=True)
class BoundaryData:
    """Constant contact-boundary proportions u^D with u^D_i > 0, sum < 1."""

    u_dirichlet: tuple[float, ...]

    def __post_init__(self):
        u = np.asarray(self.u_dirichlet, dtype=float)
        # written so that NaN fails both tests; all() of no proportions is True
        if u.size == 0 or not (u > 0.0).all():
            raise ValueError("boundary proportions must be one or more positive numbers")
        if not u.sum() < 1.0:
            raise ValueError("boundary proportions must sum to less than 1")

    @property
    def values(self):
        return np.asarray(self.u_dirichlet, dtype=float)

    @property
    def biomass(self):
        return float(self.values.sum())


@dataclass(frozen=True)
class NewtonConfig:
    """The step range of ``advance``.

    Steps start at dt_init and stay within [dt_min, dt_max]; a fixed step is
    the range pinned to one dt, ``NewtonConfig(dt_min=dt, dt_init=dt, dt_max=dt)``.
    """

    dt_min: float = 1e-8
    dt_max: float = 1e-2
    dt_init: float = 1e-5

    def __post_init__(self):
        if not (0.0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt_init <= dt_max")


@dataclass(frozen=True)
class StepReport:
    """Diagnostics of one accepted step, built once by ``advance``.

    ``entropy_margin`` is the slack H_{k-1} - H_k - dt * sum_i alpha_i I_i of
    the entropy inequality ``advance`` enforces, ``dt_halvings`` counts
    the Newton failures before the step was accepted, and
    ``lu_factorizations`` the LU factorisations made while taking the step,
    its rejected attempts included, and ``lu_solves`` the applications of
    LU factors among them, the refinement sweeps on held factors included.
    """

    time: float
    dt_used: float
    newton_iters: int
    dt_halvings: int
    lu_factorizations: int
    lu_solves: int
    residual_norm: float
    entropy: float
    dissipation: np.ndarray
    max_M: float
    min_u: float
    conservation_defect: float
    entropy_margin: float


# -- initial data --------------------------------------------------------------------


def project_initial(u0, mesh: Mesh) -> State:
    """Cell averages ``u0.cell_average(mesh)`` of the initial datum ``u0``.

    Raises ModelDomainError when the cell averages are not an admissible state.
    """
    u = u0.cell_average(mesh)
    admissible_biomass(u)
    return State(time=0.0, u=u, dt_last=None)


def max_principle_bound(state: State, bdata: BoundaryData) -> float:
    """Supremum of boundary and current biomass; invariant upper bound."""
    return max(bdata.biomass, float(state.biomass.max()))


# -- residual and Jacobian -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Evaluation:
    """The scheme's quantities at one trial state, from one evaluation of g and p.

    ``u_ext``, the biomass m, g and p carry the contact state as ghost column
    ``n_cells``; psq (psq_sigma), dv (D_sigma v) and flux (F into K) span every flux edge.
    """

    u_ext: np.ndarray
    m: np.ndarray
    g: np.ndarray
    p: np.ndarray
    psq: np.ndarray
    dv: np.ndarray
    flux: np.ndarray

    @property
    def u(self):
        return self.u_ext[:, :-1]

    @property
    def biomass(self):
        return self.m[:-1]


def evaluate(u_trial, mesh: Mesh, model: ModelFunctions, bdata: BoundaryData) -> Evaluation:
    """Evaluate the scheme at a trial state; raises ModelDomainError if it is inadmissible."""
    u = np.asarray(u_trial, dtype=float)
    m = with_contact(admissible_biomass(u), bdata.biomass)
    g, p = model.g(m), model.p(m)
    psq = 0.5 * (p[mesh.flux_K] ** 2 + p[mesh.flux_L] ** 2)
    u_ext = with_contact(u, bdata.values)
    dv = jump(u_ext * g, mesh)
    flux = -(model.params.alpha_array[:, None] * (mesh.flux_tau * psq)) * dv
    return Evaluation(u_ext=u_ext, m=m, g=g, p=p, psq=psq, dv=dv, flux=flux)


def residual(state_prev: State, evaluation: Evaluation, dt, mesh: Mesh):
    """Residual of the implicit Euler step at the evaluated trial state, shape (n, N)."""
    mass = (mesh.cell_measures / dt) * (evaluation.u - state_prev.u)
    return _add_edge_sums(mass, evaluation.flux, mesh)


def _add_edge_sums(values, edges, mesh: Mesh):
    """``values``, shape (n, N), plus the per-cell sums of the edge values into K, as a new array.

    An edge value, shape (n, #flux edges), counts into K and, with the opposite
    sign, into the far cell L of an interior edge.  One ``bincount``, on an index
    cached in the mesh's ``_PATTERNS`` entry, sums each cell's terms in the order
    value, interior K, interior L, Dirichlet K.
    """
    (n, n_cells), K, L, m = values.shape, mesh.flux_K, mesh.flux_L, mesh.interior.size
    per_mesh = _PATTERNS.setdefault(mesh, {})
    if ("sums", n) not in per_mesh:
        cells = np.concatenate([np.arange(n_cells), K[:m], L[:m], K[m:]])
        per_mesh["sums", n] = (cells + n_cells * np.arange(n)[:, None]).ravel()
    weights = np.concatenate([values, edges[:, :m], -edges[:, :m], edges[:, m:]], axis=1)
    return np.bincount(per_mesh["sums", n], weights=weights.ravel(),
                       minlength=values.size).reshape(values.shape)


def dirichlet_fluxes(evaluation: Evaluation, mesh: Mesh):
    """Outward fluxes through the contact boundary, shape (n, #dirichlet)."""
    return evaluation.flux[:, mesh.interior.size:]


def _in_entry_order(diag, near, kl, ll, lk, m):
    """Flatten the Jacobian's blocks in the order ``jacobian`` sums them.

    ``near`` spans every flux edge, the other blocks the m interior ones, all
    shaped (n, n, E): the diagonal, then KK, KL, LL and LK on the interior
    edges, then KK on the Dirichlet edges.
    """
    return np.concatenate([diag, near[..., :m].ravel(), kl.ravel(), ll.ravel(), lk.ravel(),
                           near[..., m:].ravel()])


def _coo_pattern(mesh: Mesh, n: int):
    """Row and column of every per-block entry ``jacobian`` assembles, in order."""
    ii = np.arange(n)
    diag = np.arange(n * mesh.n_cells)

    def block(rows_cells, cols_cells):
        # row and column indices of shape (n, n, E), in (i, j, e) order
        return np.broadcast_arrays(rows_cells[None, None, :] * n + ii[:, None, None],
                                   cols_cells[None, None, :] * n + ii[None, :, None])

    m = mesh.interior.size
    K, L = mesh.flux_K, mesh.flux_L
    near = block(K, K)
    kl, ll, lk = block(K[:m], L[:m]), block(L[:m], L[:m]), block(L[:m], K[:m])
    # k = 0 gives the rows, k = 1 the columns
    return tuple(_in_entry_order(diag, near[k], kl[k], ll[k], lk[k], m) for k in (0, 1))


@dataclass(frozen=True, eq=False)
class _JacobianPattern:
    """Fixed sparse structure of the Jacobian on one mesh for n species.

    One ``bincount`` through ``scatter`` assembles the ``slots`` entries of
    the matrix data, and ``matrix`` builds the Jacobian on them.  The pattern
    alone chooses the storage: CSC on 2D meshes; on 1D meshes, whose
    cell-major Jacobian is banded with kl = max |row - column|, DIA on LAPACK's
    (3 kl + 1, size) band storage in Fortran order, entry (r, c) at row
    2 kl + r - c, its first kl rows left zero for the fill of the banded LU.
    Every Jacobian on the mesh shares the read-only index arrays.
    """

    scatter: np.ndarray
    slots: int
    matrix: Callable[[np.ndarray], sp.spmatrix]


# per mesh, the pattern (key n) and edge-sum index (key ("sums", n)) of n
# species; a mesh's entry goes when the mesh does
_PATTERNS = weakref.WeakKeyDictionary()


def _jacobian_pattern(mesh: Mesh, n: int) -> _JacobianPattern:
    """The cached pattern of ``mesh`` for n species, built on first use."""
    per_mesh = _PATTERNS.setdefault(mesh, {})
    if n in per_mesh:
        return per_mesh[n]
    rows, cols = _coo_pattern(mesh, n)
    size = n * mesh.n_cells
    if mesh.dimension == 1:
        kl = int(np.abs(rows - cols).max())
        depth = 3 * kl + 1
        scatter, slots = cols * depth + 2 * kl + rows - cols, depth * size
        offsets = (2 * kl - np.arange(depth)).astype(np.intc)
        # scipy's constructor checks its input on every call; each matrix is
        # instead a shallow copy of one checked template with its own data
        template = sp.dia_matrix((np.zeros((depth, size)), offsets), shape=(size, size))
        index = (template.offsets,)

        def matrix(data):
            out = copy.copy(template)
            out.data = data.reshape((depth, size), order="F")
            return out
    else:
        keys, scatter = np.unique(cols.astype(np.int64) * size + rows, return_inverse=True)
        slots, indices = keys.size, (keys % size).astype(np.intc)
        indptr = np.searchsorted(keys // size, np.arange(size + 1)).astype(np.intc)
        index = (indices, indptr)

        def matrix(data):
            return sp.csc_matrix((data, indices, indptr), shape=(size, size))
    for array in (scatter, *index):
        array.flags.writeable = False
    per_mesh[n] = _JacobianPattern(scatter, slots, matrix)
    return per_mesh[n]


def _edge_blocks(ev: Evaluation, alphas, cells, d, c, q):
    """The (n, n, E) blocks alpha_i (delta_ij d + c u_i - q D_sigma v_i) of one side."""
    a = alphas[:, None]
    rows = a * (c * np.take(ev.u_ext, cells, axis=1) - q * ev.dv[:, :cells.size])
    out = np.repeat(rows[:, None, :], alphas.size, axis=1)
    out[np.diag_indices(alphas.size)] += a * d
    return out


def _jacobian_parts(ev: Evaluation, mesh: Mesh, model: ModelFunctions):
    """The flux derivatives of the K side of every flux edge and the L side of the interior ones.

    Each side is (cells, d, c, q), edge-shaped with no species axis: its
    cells, d = +-tau psq g, c = +-tau psq g' (+ on K's side) and q = tau p p'
    there, so that d F_{i,K,sigma} / d u_{j,side} = alpha_i (delta_ij d +
    c u_{i,side} - q D_sigma v_i).  g' comes from ev's g and p.
    """
    gp = g_prime(ev.biomass, ev.g[:-1], ev.p[:-1], model.params.a, model.params.b)
    pp = ev.p[:-1] * model.p_prime(ev.biomass)
    parts = []
    for cells, sign in ((mesh.flux_K, 1.0), (mesh.flux_L[:mesh.interior.size], -1.0)):
        tau = mesh.flux_tau[:cells.size]
        tau_psq = sign * tau * ev.psq[:cells.size]
        parts.append((cells, tau_psq * ev.g[cells], tau_psq * gp[cells], tau * pp[cells]))
    return parts


def _newton_matrix(cells, near, far, mesh: Mesh):
    """The Newton matrix on the mesh's cached pattern, from its cell and edge terms.

    ``cells`` is the diagonal per unknown, size n N; ``near`` and ``far`` are
    the derivatives of the flux into K with respect to the K side of every
    flux edge and the L side of every interior edge, (n, n, E) blocks or, for
    n = 1, (E,).  An interior edge's flux leaves L as it enters K, so K's row
    takes both sides' terms and L's row both negated.
    """
    pattern = _jacobian_pattern(mesh, cells.size // mesh.n_cells)
    m = mesh.interior.size
    entries = _in_entry_order(cells, near, far, -far, -near[..., :m], m)
    return pattern.matrix(np.bincount(pattern.scatter, weights=entries, minlength=pattern.slots))


def jacobian(evaluation: Evaluation, dt, mesh: Mesh, model: ModelFunctions):
    """Exact sparse Jacobian of ``residual`` with respect to the evaluated trial state.

    In cell-major order, built by ``_newton_matrix`` from ``_edge_blocks`` on the
    mesh's cached pattern (CSC in 2D, DIA on LAPACK's band storage in 1D),
    whose read-only index arrays every Jacobian on the mesh shares.
    """
    alphas = model.params.alpha_array
    near, far = (_edge_blocks(evaluation, alphas, *side)
                 for side in _jacobian_parts(evaluation, mesh, model))
    return _newton_matrix(np.repeat(mesh.cell_measures / dt, alphas.size), near, far, mesh)


class _LinearSolver:
    """Solves the Newton systems J x = b of one mesh, always against the current J.

    J's storage, chosen by the Jacobian pattern alone, picks the path.  A DIA
    J (1D) is solved by one LAPACK call on a copy of its band storage, an LU
    with partial pivoting and its solve: ``dgtsv`` for a tridiagonal band
    (kl = 1, one species), ``dgbsv`` for a wider one.  For a
    CSC J (2D) each factorisation is one ``splu`` of the natural-order J,
    which SuperLU orders by minimum degree on A^T + A; the solver keeps the
    LU of the last Jacobian it factored, and a later solve on a new J starts
    from x = LU^-1 b and refines x += LU^-1 (b - J x) until every row of
    cell K meets |b - J x| <= _FORCING * NEWTON_TOL * m(K)/dt, with ``cells``
    holding m(K)/dt (1 by default).  That is the forcing
    term of inexact Newton: each Newton iterate is the exact-Jacobian one
    within _FORCING of Newton's stop, max |R dt/m(K)| <= NEWTON_TOL.
    It gives up after _REFINE_SWEEPS sweeps, or as soon as a sweep shrinks
    the residual by less than 1/_REFINE_CONTRACTION or leaves it non-finite,
    and then drops the stale factors and factors J.  ``factorizations``
    counts the LU factorisations made and ``lu_solves`` every application
    of LU factors, one per LAPACK call in 1D; ``solve`` raises RuntimeError
    on a singular J.  b may hold one right-hand side per column, and its
    rows are cell-major: the rows of cell K follow each other.  ``update``
    is the Newton update of the coupled system, J from ``jacobian``.
    """

    def __init__(self):
        self.factorizations = 0
        self.lu_solves = 0
        self._lu = None

    def update(self, evaluation: Evaluation, res, dt, mesh: Mesh, model: ModelFunctions):
        """-J^-1 R for the residual ``res`` at the evaluated state, shape (n, N)."""
        matrix = jacobian(evaluation, dt, mesh, model)
        x = self.solve(matrix, -res.ravel(order="F"), mesh.cell_measures / dt)
        return x.reshape(res.shape, order="F")

    def solve(self, matrix, rhs, cells=1.0):
        if matrix.format == "dia":
            return self._banded(matrix, rhs)
        if self._lu is not None:
            x = self._refined(matrix, rhs, cells)
            if x is not None:
                return x
            self._lu = None  # so that at most one set of factors is alive
        # minimum degree on A^T + A (the pattern is symmetric) cuts the 32x32
        # L+U fill from 146,588 (COLAMD) to 90,424
        self._lu = splu(matrix, permc_spec="MMD_AT_PLUS_A")
        self.factorizations += 1
        return self._lu_solve(rhs)

    def _lu_solve(self, rhs):
        self.lu_solves += 1
        return self._lu.solve(rhs)

    def _banded(self, matrix, rhs):
        """x = J^-1 rhs by a fresh banded LU of the DIA Jacobian ``matrix``; J is left as it is."""
        band = matrix.data
        kl = (band.shape[0] - 1) // 3
        if kl == 1:  # rows 1, 2 and 3 of the band are J's super-, main and subdiagonal
            x, info = dgtsv(band[3, :-1], band[2], band[1, 1:], rhs)[3:]
        else:
            x, info = dgbsv(kl, kl, band, rhs)[2:]
        if info > 0:
            raise RuntimeError(f"Factor is exactly singular: U({info}, {info}) = 0")
        self.factorizations += 1
        self.lu_solves += 1
        return x

    def _refined(self, matrix, rhs, cells):
        """x with |rhs - matrix x| <= _FORCING * NEWTON_TOL * cells in every row, or None.

        The residual is measured as Newton's stop measures R, in units of u.
        """
        scale = np.reshape(cells, (-1, 1))
        x = self._lu_solve(rhs)
        previous = np.inf
        for sweeps in range(_REFINE_SWEEPS + 1):
            r = rhs - matrix @ x
            norm = (np.abs(r).reshape(scale.shape[0], -1) / scale).max()
            if norm <= _FORCING * NEWTON_TOL:
                return x
            if (sweeps == _REFINE_SWEEPS or not np.isfinite(norm)
                    or norm > _REFINE_CONTRACTION * previous):
                return None
            x += self._lu_solve(r)
            previous = norm


class _BiomassSplit:
    """Solves the Newton systems of n >= 2 species with equal alpha_i through the biomass M.

    Then J_{(K,i),(L,j)} = delta_ij A_KL + B^(i)_KL, from the sides (cells, d,
    c, q) of ``_jacobian_parts``: A, m(K)/dt plus the edge terms alpha d, is
    the same for every species, and B^(i), edge terms alpha (c u_i - q D_sigma
    v_i), does not depend on j.  So J du = -R is solved by (A + sum_i B^(i))
    dM = -sum_i R_i, whose edge terms alpha (d + c M - q D_sigma(M g)) need
    no species axis, then A du_i = -R_i - B^(i) dM for i < n, all in one
    solve, and du_n = dM - sum_{i<n} du_i.  The two are
    one-species systems built by ``_newton_matrix`` on the mesh's n = 1
    pattern, each solved by its own ``_LinearSolver`` (2D held factors
    refine against their own matrix).  It is block elimination of the same
    linear system, so the Newton iterates are those of the coupled solve to
    round-off, or within _FORCING of Newton's stop where held factors meet
    ``_LinearSolver``'s bound (the biomass system's on sum_i R_i).
    ``factorizations`` and ``lu_solves`` count the work of both.
    """

    def __init__(self):
        self.biomass, self.species = _LinearSolver(), _LinearSolver()

    @property
    def factorizations(self):
        return self.biomass.factorizations + self.species.factorizations

    @property
    def lu_solves(self):
        return self.biomass.lu_solves + self.species.lu_solves

    def update(self, evaluation: Evaluation, res, dt, mesh: Mesh, model: ModelFunctions):
        """-J^-1 R for the residual ``res`` at the evaluated state, shape (n, N)."""
        ev, alpha, cells = evaluation, model.params.alpha_array[0], mesh.cell_measures / dt
        parts = _jacobian_parts(ev, mesh, model)
        dmg = ev.dv.sum(axis=0)  # D_sigma(M g)
        near, far = (alpha * (d + c * ev.m[side] - q * dmg[:side.size]) for side, d, c, q in parts)
        d_M = self.biomass.solve(_newton_matrix(cells, near, far, mesh), -res.sum(axis=0), cells)
        # B^(i) dM, i < n, sums each side's alpha (c u_i - q D_sigma v_i) dM_side
        # as the residual sums the fluxes; the contact state does not move
        coupling = np.zeros((res.shape[0] - 1, ev.dv.shape[1]))
        for side, _, c, q in parts:
            e = side.size
            coupling[:, :e] += alpha * (c * ev.u_ext[:-1, side] - q * ev.dv[:-1, :e]) * d_M[side]
        rhs = _add_edge_sums(res[:-1], coupling, mesh)
        species = _newton_matrix(cells, *(alpha * d for _, d, _, _ in parts), mesh)
        delta = np.empty_like(res)
        delta[:-1] = self.species.solve(species, -rhs.T, cells).T
        # closing sum_i du_i = dM keeps the update backward stable where
        # B^(n) is large (near saturation); solving du_n like the others
        # does not
        delta[-1] = d_M - delta[:-1].sum(axis=0)
        return delta


def _newton_solver(model: ModelFunctions):
    """The solver of the model's Newton systems: through the biomass for equal alpha_i."""
    alphas = model.params.alpha_array
    if alphas.size > 1 and equal_diffusivities(alphas):
        return _BiomassSplit()
    return _LinearSolver()


# -- Newton and time stepping -----------------------------------------------------------


def _scaled_norm(res, dt, mesh):
    """Max norm of the residual in units of u, i.e. of R * dt / m(K)."""
    return float(np.abs(res * (dt / mesh.cell_measures)).max())


@dataclass(frozen=True, eq=False)
class NewtonResult:
    """A converged Newton solve: the accepted state's evaluation and how it was reached."""

    evaluation: Evaluation
    newton_iters: int
    residual_norm: float


def newton_step(state_prev: State, start: Evaluation, dt, mesh: Mesh, model: ModelFunctions,
                bdata: BoundaryData, *, solver: _LinearSolver | _BiomassSplit | None = None):
    """One implicit Euler step via damped Newton from ``start``, an evaluated first iterate.

    ``solver`` solves the Newton systems and may hold LU factors from earlier
    solves; ``advance`` passes the one it owns, and a direct call makes the
    model's own (``_newton_solver``).  Returns (state, NewtonResult) at the
    first iterate that meets NEWTON_TOL; raises NewtonFailure after
    _MAX_NEWTON_ITERS iterates or _MAX_HALVINGS halvings of one update, or on
    a singular Jacobian; raises ValueError unless 0 < dt < inf.
    """
    if not 0.0 < dt < np.inf:  # NaN fails too
        raise ValueError("dt must be positive and finite")
    u = start.u
    evaluation = start
    res = residual(state_prev, evaluation, dt, mesh)
    if solver is None:
        solver = _newton_solver(model)

    for it in range(1, _MAX_NEWTON_ITERS + 1):
        try:
            delta = solver.update(evaluation, res, dt, mesh, model)
        except RuntimeError as exc:  # singular factorization
            raise NewtonFailure(f"linear solve failed: {exc}") from exc

        step = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            trial = u + step * delta
            trial = np.where((-_NEGATIVE_SLACK < trial) & (trial < 0.0), 0.0, trial)
            try:
                attempt = evaluate(trial, mesh, model, bdata)
            except ModelDomainError:
                pass  # inadmissible, or beyond the model's domain
            else:
                res_attempt = residual(state_prev, attempt, dt, mesh)
                if np.isfinite(res_attempt).all():
                    break
            step *= _DAMPING
        else:
            raise NewtonFailure("damping exhausted without admissible iterate")

        u, evaluation, res = trial, attempt, res_attempt
        res_norm = _scaled_norm(res, dt, mesh)
        if res_norm <= NEWTON_TOL:
            state = State(time=state_prev.time + dt, u=u, dt_last=dt)
            return state, NewtonResult(evaluation, newton_iters=it, residual_norm=res_norm)

    raise NewtonFailure(f"no convergence within {_MAX_NEWTON_ITERS} iterations")


def advance(state: State, t_end, mesh: Mesh, model: ModelFunctions,
            bdata: BoundaryData, cfg: NewtonConfig, observer=None) -> State:
    """Advance to t_end with the step-halving/doubling controller.

    A state without a previous step starts at dt_init; otherwise each step
    starts at twice the previously accepted dt, clipped to [dt_min, dt_max],
    and is clamped to land on t_end exactly.  On Newton failure the step is
    halved, and dropping below dt_min is a SolverFailure that carries the
    Newton reason.  A range pinned to one dt gives fixed steps, also after a
    landing clamp.  ``observer``, when given, is called as
    observer(report, state) after every accepted step and must not mutate
    the state.

    One solver (``_newton_solver``) serves every step of the call, so LU
    factors held on 2D meshes carry across iterates and steps; they are freed
    on return.
    The entry state is evaluated, and its entropy taken, on every call.
    Raises ValueError for a t_end before the state's time, NaN or infinite.
    """
    if not t_end >= state.time:  # NaN fails too
        raise ValueError("t_end lies before the current state time")
    if t_end == np.inf:  # the time tolerance would be inf, and no step taken
        raise ValueError("t_end must be finite")
    m_star = max_principle_bound(state, bdata)
    start = evaluate(state.u, mesh, model, bdata)
    entropy_prev = diagnostics.discrete_entropy(start, mesh, model)
    solver = _newton_solver(model)
    alphas = model.params.alpha_array
    # the biomass bound M <= M* is a theorem only for equal diffusivities
    # (the per-species equations then sum to a diffusion equation for M)
    enforce_max_principle = equal_diffusivities(alphas)
    time_tol = TIME_TOL * max(1.0, abs(t_end))

    while t_end - state.time > time_tol:
        if state.dt_last is None:
            dt_next = cfg.dt_init
        else:
            dt_next = min(max(2.0 * state.dt_last, cfg.dt_min), cfg.dt_max)
        dt = min(dt_next, t_end - state.time)

        halvings = 0
        factored, solved = solver.factorizations, solver.lu_solves
        while True:
            try:
                new_state, result = newton_step(state, start, dt, mesh, model, bdata, solver=solver)
                break
            except NewtonFailure as exc:
                dt *= 0.5
                halvings += 1
                if dt < cfg.dt_min:
                    raise SolverFailure(f"time step fell below its floor: {exc}",
                                        time=state.time) from exc

        # the entropy and the dissipation assume an admissible state, so
        # nonnegativity and the biomass bound are checked first
        accepted = result.evaluation
        max_M = float(accepted.biomass.max())
        min_u = float(new_state.u.min())
        if enforce_max_principle and max_M > m_star + MAX_PRINCIPLE_TOL:
            raise InvariantViolation(
                f"biomass bound violated at t = {new_state.time:.6e}: "
                f"{max_M} > {m_star}"
            )
        if min_u < 0.0:
            raise InvariantViolation(f"negative proportion at t = {new_state.time:.6e}")
        # the interior fluxes cancel in sum_K R_K, so defect = dt sum_K R_K, which
        # Newton's stop (see NEWTON_TOL) bounds by n NEWTON_TOL |Omega|;
        # round-off in R and in the two sums adds eps per magnitude summed,
        # each mass change once and each flux once per side of its edge
        change = mesh.cell_measures * (new_state.u - state.u)
        defect = float(np.sum(change) + dt * dirichlet_fluxes(accepted, mesh).sum())
        bound = len(alphas) * NEWTON_TOL * mesh.total_measure + CONSERVATION_ROUNDOFF * _EPS * (
            np.abs(change).sum() + 2.0 * dt * np.abs(accepted.flux).sum())
        if not abs(defect) <= bound:  # NaN fails too
            raise InvariantViolation(f"conservation violated at t = {new_state.time:.6e}: "
                                     f"defect {defect:.3e}, bound {bound:.3e}")

        entropy = diagnostics.discrete_entropy(accepted, mesh, model)
        dissipation = diagnostics.dissipation(accepted, mesh)
        produced = dt * diagnostics.entropy_production(dissipation, alphas)
        # written so that NaN fails too
        if not entropy + produced <= entropy_prev + ENTROPY_STEP_TOL * max(1.0, entropy_prev):
            raise InvariantViolation(
                f"entropy inequality violated at t = {new_state.time:.6e}"
            )

        report = StepReport(
            time=new_state.time,
            dt_used=dt,
            newton_iters=result.newton_iters,
            dt_halvings=halvings,
            lu_factorizations=solver.factorizations - factored,
            lu_solves=solver.lu_solves - solved,
            residual_norm=result.residual_norm,
            entropy=entropy,
            dissipation=dissipation,
            max_M=max_M,
            min_u=min_u,
            conservation_defect=defect,
            entropy_margin=entropy_prev - entropy - produced,
        )
        if observer is not None:
            observer(report, new_state)
        state, start, entropy_prev = new_state, accepted, entropy
    return state
