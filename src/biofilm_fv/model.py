"""Model functions for the saturation-limited cross-diffusion system.

A model is the pair (p, q): p is a decreasing C^1 saturation factor on [0, 1]
with p(1) = 0, and q is induced by

    q(m) = (p(m) / m) * integral_0^m s^a / ((1 - s)^b p(s)^2) ds,   a, b >= 1.

The solver never uses q alone: the fluxes drive the per-species quantity
u_i * g(m) with g = q / p, and g stays finite where q and 1/p individually
degenerate.  This module therefore treats

    G(m) = integral_0^m s^a / ((1 - s)^b p(s)^2) ds,    g(m) = G(m) / m

as the primary objects, with g(0) = 0 by continuity and the exact derivative
G'(m) = m^a / ((1 - m)^b p(m)^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev
from scipy import integrate
from scipy.interpolate import PchipInterpolator
from scipy.special import roots_jacobi, xlogy


class ModelError(Exception):
    """Model functions violate their structural requirements."""


class ModelDomainError(ModelError):
    """Evaluation outside the admissible biomass range."""


def admissible_biomass(u):
    """Biomass M = sum_i u_i of an admissible state: every u_i >= 0 and M < 1.

    The one definition of admissibility; species run along axis 0, so ``u`` is
    one species vector or an (n_species, n_cells) array.  Raises
    ModelDomainError for any other state.
    """
    u = np.asarray(u, dtype=float)
    # written so that NaN fails both tests
    if not (u >= 0.0).all():
        raise ModelDomainError("negative species proportion (or NaN)")
    biomass = u.sum(axis=0)
    if not (biomass < 1.0).all():
        raise ModelDomainError(f"biomass reached saturation: max = {float(biomass.max())}")
    return biomass


def equal_diffusivities(alphas) -> bool:
    """The paper's hypothesis for the biomass bound M <= M*: all alpha_i equal."""
    alphas = np.asarray(alphas, dtype=float)
    return bool(np.all(alphas == alphas[0]))


@dataclass(frozen=True)
class ModelParams:
    """Exponents, species count and diffusivities of one model instance."""

    a: float
    b: float
    n_species: int
    alphas: tuple[float, ...]
    kappa: float | None = None

    def __post_init__(self):
        if self.a < 1.0 or self.b < 1.0:
            raise ModelError("exponents must satisfy a, b >= 1")
        if self.n_species < 1 or len(self.alphas) != self.n_species:
            raise ModelError("need one positive diffusivity per species")
        if any(alpha <= 0.0 for alpha in self.alphas):
            raise ModelError("diffusivities must be positive")

    @property
    def alpha_array(self):
        return np.asarray(self.alphas, dtype=float)


# quadrature nodes reused by the small-m evaluations
_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)

# split point below which the log-singular part of integral_0^m log g(s) ds
# is handled with the leading power behaviour g(s) ~ C s^a
_LOG_SPLIT = 1e-6

# degree of each Chebyshev panel of the entropy primitive; with panels that
# halve the distance to saturation, degree 20 already reaches round-off
_PANEL_DEGREE = 24


class _LogGPrimitive:
    """Antiderivative of log g, cached for vectorized per-step diagnostics.

    Splits log g(s) = a log s + phi(s) with phi smooth up to the saturation
    singularity; the a log s part integrates in closed form.  phi is
    interpolated on [0, cap] by piecewise Chebyshev panels of degree
    ``_PANEL_DEGREE`` and integrated exactly.  The panel breaks halve the
    distance to s = 1 (0, 1/2, 3/4, ..., cap), so every panel is the same
    number of its own widths away from the singularity and one low degree
    resolves all of them (Trefethen, Approximation Theory and Approximation
    Practice, 2013).  Each panel's antiderivative carries the integral over
    the panels before it.  Beyond the cap the (slow) adaptive quadrature path
    is used.
    """

    def __init__(self, log_g, a, cap=0.99):
        self.a = float(a)
        self.cap = float(cap)
        self._log_g = log_g

        halvings = 1.0 - 0.5 ** np.arange(1, 64)
        self.breaks = np.concatenate([[0.0], halvings[halvings < self.cap], [self.cap]])
        left, right = self.breaks[:-1], self.breaks[1:]
        half = 0.5 * (right - left)
        self._mid = 0.5 * (left + right)
        self._inv_half = 1.0 / half

        # interpolate phi at first-kind Chebyshev points of every panel at once
        x = chebyshev.chebpts1(_PANEL_DEGREE + 1)
        s = self._mid + half * x[:, None]
        phi = log_g(s.ravel()).reshape(s.shape) - self.a * np.log(s)
        coef = chebyshev.chebvander(x, _PANEL_DEGREE).T @ phi
        coef[0] /= _PANEL_DEGREE + 1
        coef[1:] /= 0.5 * (_PANEL_DEGREE + 1)
        # columns: per-panel antiderivatives in s, zero at the panel's left break
        antiderivative = chebyshev.chebint(coef, lbnd=-1.0) * half
        totals = antiderivative.sum(axis=0)  # value at the right break, T_k(1) = 1
        antiderivative[0, 1:] += np.cumsum(totals[:-1])
        self._coef = antiderivative

    def _panels(self, m, panel):
        """Antiderivative of phi at m evaluated on the given panels."""
        x = (m - self._mid[panel]) * self._inv_half[panel]
        return chebyshev.chebval(x, self._coef[:, panel], tensor=False)

    def quad(self, m):
        """Adaptive-quadrature evaluation of integral_0^m log g(s) ds."""
        m = float(m)
        if m == 0.0:
            return 0.0
        eps = min(_LOG_SPLIT, m)
        head = eps * (self._log_g(eps) - self.a)
        if m <= eps:
            return float(head)
        tail, _ = integrate.quad(
            self._log_g, eps, m, epsabs=1e-12, epsrel=1e-12, limit=200
        )
        return float(head + tail)

    def __call__(self, m):
        m = _as_biomass(m)
        scalar = m.ndim == 0
        m = np.atleast_1d(m)
        out = self.a * (xlogy(m, m) - m)
        inside = m <= self.cap
        m_in = m[inside]
        panel = np.searchsorted(self.breaks[1:-1], m_in, side="right")
        out[inside] += self._panels(m_in, panel)
        for idx in np.flatnonzero(~inside):
            out[idx] = self.quad(m[idx])
        return float(out[0]) if scalar else out


class ModelFunctions:
    """Vectorized model functions, immutable after construction.

    All callables accept scalars or arrays of biomass values; g, g_prime,
    log_g and log_g_primitive raise ModelDomainError, naming the range of the
    argument, outside [0, 1) (NaN included).  ``g = G / m`` is the ratio q/p,
    with G the cumulative mobility integral, and ``log_g`` an overflow-safe
    evaluation of log(g) used by the entropy.
    """

    def __init__(self, name, params, p, p_prime, g, g_prime, log_g, primitive_cap=0.99):
        self.name = name
        self.params = params
        self.p = p
        self.p_prime = p_prime
        self.g = g
        self.g_prime = g_prime
        self.log_g = log_g
        self._assert_p_shape()
        self.log_g_primitive = _LogGPrimitive(log_g, params.a, cap=primitive_cap)

    def _assert_p_shape(self):
        grid = np.linspace(0.0, 1.0, 257)
        values = self.p(grid)
        if np.any(np.diff(values) > 1e-12):
            raise ModelError(f"model {self.name!r}: p must be decreasing on [0, 1]")
        if abs(float(self.p(1.0))) > 1e-12 * max(float(self.p(0.0)), 1.0):
            raise ModelError(f"model {self.name!r}: p(1) must vanish")

    def __repr__(self):
        return f"ModelFunctions({self.name!r}, a={self.params.a}, b={self.params.b})"


def _as_biomass(m):
    m = np.asarray(m, dtype=float)
    if not ((m >= 0.0) & (m < 1.0)).all():  # written so that NaN fails
        raise ModelDomainError(f"biomass out of range: min={m.min()}, max={m.max()}")
    return m


def _small_m_integral(m, integrand):
    """Gauss-Legendre value of integral_0^m integrand(s) ds, vectorized in m."""
    s = 0.5 * m[:, None] * (_GL_X + 1.0)
    return 0.5 * m * (integrand(s) @ _GL_W)


# -- built-in saturation factors -------------------------------------------------------


def _p_exp(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(x < 1.0, np.exp(-1.0 / (1.0 - x)), 0.0)


def _p_exp_prime(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = -np.exp(-1.0 / (1.0 - x)) / (1.0 - x) ** 2
    return np.where(x < 1.0, val, 0.0)


def _p_linear(x):
    return 1.0 - np.asarray(x, dtype=float)


def _p_linear_prime(x):
    return -np.ones_like(np.asarray(x, dtype=float))


# -- built-in model: exponentially singular p ---------------------------------------


def model_case1(alphas=(1.0, 1.0)) -> ModelFunctions:
    """p(x) = exp(-1/(1-x)) with a = b = 2.

    G has the closed form e^{2/(1-m)} (m - 1/2) + e^2/2, which loses all
    significant digits below m ~ 1e-2; a 20-point Gauss rule on [0, m] is
    exact to machine precision there and takes over.
    """
    e2 = np.exp(2.0)
    params = ModelParams(a=2.0, b=2.0, n_species=len(alphas), alphas=tuple(alphas), kappa=1.0)

    def integrand(s):
        return s**2 / (1.0 - s) ** 2 * np.exp(2.0 / (1.0 - s))

    def G(m):
        m = _as_biomass(m)
        scalar = m.ndim == 0
        m = np.atleast_1d(m)
        out = np.empty_like(m)
        small = m < 1e-2
        if np.any(~small):
            ms = m[~small]
            expm1_term = np.expm1(2.0 * ms / (1.0 - ms))
            out[~small] = e2 * (ms * (1.0 + expm1_term) - 0.5 * expm1_term)
        if np.any(small):
            out[small] = _small_m_integral(m[small], integrand)
        return float(out[0]) if scalar else out

    def G_prime(m):
        m = np.asarray(m, dtype=float)
        return m**2 / (1.0 - m) ** 2 * np.exp(2.0 / (1.0 - m))

    def g(m):
        m = np.asarray(m, dtype=float)
        with np.errstate(invalid="ignore"):
            val = G(m) / m
        return np.where(m == 0.0, 0.0, val)

    def g_prime(m):
        m = _as_biomass(m)
        with np.errstate(invalid="ignore"):
            val = (G_prime(m) * m - G(m)) / m**2
        return np.where(m == 0.0, 0.0, val)

    def log_g(m):
        m = _as_biomass(np.asarray(m, dtype=float))
        scalar = m.ndim == 0
        m = np.atleast_1d(m)
        out = np.empty_like(m)
        low = m <= 0.55
        if np.any(low):
            out[low] = np.log(G(m[low])) - np.log(m[low])
        if np.any(~low):
            mh = m[~low]
            # log G = 2/(1-m) + log(m - 1/2 + (e^2/2) e^{-2/(1-m)}), overflow free
            out[~low] = (
                2.0 / (1.0 - mh)
                + np.log(mh - 0.5 + 0.5 * e2 * np.exp(-2.0 / (1.0 - mh)))
                - np.log(mh)
            )
        return float(out[0]) if scalar else out

    return ModelFunctions("case1", params, _p_exp, _p_exp_prime, g, g_prime, log_g)


# -- built-in model: linear p ---------------------------------------------------------


def model_case2(alphas=(1.0, 1.0)) -> ModelFunctions:
    """p(x) = 1 - x with a = b = 1; everything is in closed form."""
    params = ModelParams(a=1.0, b=1.0, n_species=len(alphas), alphas=tuple(alphas))

    def g(m):
        m = _as_biomass(m)
        return m / (2.0 * (1.0 - m) ** 2)

    def g_prime(m):
        m = _as_biomass(m)
        return (1.0 + m) / (2.0 * (1.0 - m) ** 3)

    def log_g(m):
        m = _as_biomass(np.asarray(m, dtype=float))
        return np.log(m) - np.log(2.0) - 2.0 * np.log1p(-m)

    return ModelFunctions("case2", params, _p_linear, _p_linear_prime, g, g_prime, log_g)


# -- generic models -------------------------------------------------------------------

# named p functions available to configuration files
P_REGISTRY = {
    "linear": (_p_linear, _p_linear_prime),
    "quadratic": (lambda x: (1.0 - np.asarray(x, float)) ** 2,
                  lambda x: -2.0 * (1.0 - np.asarray(x, float))),
    "exp": (_p_exp, _p_exp_prime),
}

_JACOBI_NODES = 48
_GRID_LOW = 512       # uniform c-grid on [0, 0.5]
_GRID_HIGH = 3584     # log(1-s)-graded panels on (0.5, cap]
_PANEL_GL_X, _PANEL_GL_W = np.polynomial.legendre.leggauss(15)


def model_generic(p, p_prime, params: ModelParams, name="generic") -> ModelFunctions:
    """Build model functions for a user-supplied p by quadrature.

    G is cached as m^(a+1) * c(m) with c smooth; c is computed once on a
    4096-point monotone grid (uniform up to 0.5, then graded towards the
    saturation point) and interpolated with a shape-preserving cubic.  The
    cache stops where log g would overflow; evaluations beyond it raise
    ModelDomainError naming the offending biomass value.
    """
    a, b = params.a, params.b

    grid = np.linspace(0.0, 1.0, 129)
    pvals = p(grid)
    if np.any(np.diff(pvals) > 1e-12):
        bad = grid[int(np.argmax(np.diff(pvals) > 1e-12))]
        raise ModelError(f"model {name!r}: p is increasing near m = {bad:.4f}")
    # spot-check the supplied derivative against central differences
    check = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    step = 1e-6
    fd = (p(check + step) - p(check - step)) / (2.0 * step)
    if np.any(np.abs(fd - p_prime(check)) > 1e-3 * (np.abs(fd) + 1e-12)):
        raise ModelError(f"model {name!r}: p_prime inconsistent with p")

    def weight(s):
        return 1.0 / ((1.0 - s) ** b * p(s) ** 2)

    def log_weight(s):
        # +inf where p underflows; only compared against the overflow threshold
        with np.errstate(divide="ignore"):
            return -b * np.log1p(-s) - 2.0 * np.log(p(s))

    # cap the cache where log g stays representable
    cap = 1.0 - 1e-6
    if log_weight(np.array([cap]))[0] > 690.0:
        lo, hi = 0.5, cap
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if log_weight(np.array([mid]))[0] > 690.0:
                hi = mid
            else:
                lo = mid
        cap = lo

    # c(s) = G(s) / s^(a+1) = integral_0^1 sigma^a w(s sigma) / w-normalization
    xj, wj = roots_jacobi(_JACOBI_NODES, 0.0, a)
    sigma = 0.5 * (xj + 1.0)
    wj = wj / 2.0 ** (a + 1.0)

    def c_direct(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return weight(s[:, None] * sigma[None, :]) @ wj

    low_grid = np.linspace(0.0, 0.5, _GRID_LOW + 1)
    c_low = c_direct(low_grid)

    # cumulative panels for G on (0.5, cap], graded like -log(1-s)
    zeta = np.linspace(-np.log1p(-0.5), -np.log1p(-cap), _GRID_HIGH + 1)
    high_grid = 1.0 - np.exp(-zeta)
    high_grid[0] = 0.5
    g_accum = np.empty(_GRID_HIGH + 1)
    g_accum[0] = c_low[-1] * 0.5 ** (a + 1.0)
    left, right = high_grid[:-1], high_grid[1:]
    mid = 0.5 * (left + right)[:, None] + 0.5 * (right - left)[:, None] * _PANEL_GL_X[None, :]
    panel = 0.5 * (right - left) * ((mid**a * weight(mid)) @ _PANEL_GL_W)
    g_accum[1:] = g_accum[0] + np.cumsum(panel)

    # low section: c is smooth in s; high section: interpolate log c against the
    # graded coordinate -log(1-s), which keeps the interpolation error relative
    low_interp = PchipInterpolator(low_grid, c_low, extrapolate=False)
    log_c_high = np.log(g_accum) - (a + 1.0) * np.log(high_grid)
    high_interp = PchipInterpolator(zeta, log_c_high, extrapolate=False)

    def _cached_c(m):
        m = _as_biomass(m)
        scalar = m.ndim == 0
        m = np.atleast_1d(m)
        if m.size and m.max() > cap:
            raise ModelDomainError(
                f"model {name!r}: biomass {float(m.max()):.8f} beyond quadrature range "
                f"(saturation singularity, cap={cap:.8f})"
            )
        out = np.empty_like(m)
        low = m <= 0.5
        out[low] = low_interp(m[low])
        if np.any(~low):
            out[~low] = np.exp(high_interp(-np.log1p(-m[~low])))
        return (float(out[0]) if scalar else out)

    def g(m):
        return _cached_c(m) * np.asarray(m, dtype=float) ** a

    def g_prime(m):
        m2 = _as_biomass(m)
        cval = _cached_c(m2)
        with np.errstate(divide="ignore", invalid="ignore"):
            gp = m2 ** (a - 1.0) * (weight(m2) - cval)
        return np.where(m2 == 0.0, 0.0 if a > 1.0 else cval, gp)

    def log_g(m):
        m2 = np.asarray(m, dtype=float)
        return np.log(_cached_c(m2)) + a * np.log(m2)

    return ModelFunctions(name, params, p, p_prime, g, g_prime, log_g,
                          primitive_cap=min(0.99, cap))


def get_model(selector: str, alphas, a=None, b=None, p_name=None) -> ModelFunctions:
    """Model factory used by configuration files and the harness."""
    if selector == "case1":
        return model_case1(alphas)
    if selector == "case2":
        return model_case2(alphas)
    if selector == "generic":
        if p_name not in P_REGISTRY:
            raise ModelError(f"unknown p function {p_name!r}; choices: {sorted(P_REGISTRY)}")
        if a is None or b is None:
            raise ModelError("generic model requires exponents a and b")
        p, p_prime = P_REGISTRY[p_name]
        params = ModelParams(a=float(a), b=float(b), n_species=len(alphas), alphas=tuple(alphas))
        return model_generic(p, p_prime, params, name=f"generic:{p_name}")
    raise ModelError(f"unknown model selector {selector!r}")


# -- entropy ---------------------------------------------------------------------------


def entropy_density(u, model: ModelFunctions, u_dirichlet) -> float:
    """Relative entropy density h*(u | u^D) of one species vector.

    Uses the adaptive-quadrature path for the biomass integral; this is the
    reference evaluation, the per-step diagnostics use the cached primitive.
    Nonnegative, and zero exactly at u = u^D.
    """
    u = np.asarray(u, dtype=float)
    u_d = np.asarray(u_dirichlet, dtype=float)
    m = float(admissible_biomass(u))
    m_d = float(u_d.sum())
    if np.any(u_d <= 0.0) or m_d >= 1.0:
        raise ModelDomainError("reference state must lie strictly inside the admissible set")
    kl = float(np.sum(xlogy(u, u / u_d) - u + u_d))
    primitive = model.log_g_primitive
    bregman = primitive.quad(m) - primitive.quad(m_d) - float(model.log_g(m_d)) * (m - m_d)
    return kl + bregman
