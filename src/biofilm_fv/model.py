"""Model functions for the saturation-limited cross-diffusion system.

A model is the pair (p, q): p is a decreasing C^1 saturation factor on [0, 1]
with p(1) = 0, and q is induced by

    q(m) = (p(m) / m) * integral_0^m s^a / ((1 - s)^b p(s)^2) ds,   a, b >= 1.

The solver never uses q alone: the fluxes drive the per-species quantity
u_i * g(m) with g = q / p, and g stays finite where q and 1/p individually
degenerate.  This module therefore treats

    G(m) = integral_0^m s^a / ((1 - s)^b p(s)^2) ds,    g(m) = G(m) / m

as the primary objects, with g(0) = 0 by continuity and G'(m) = m^a w(m),
w = 1 / ((1 - m)^b p(m)^2), so that g' = (G' - g) / m follows from g and p.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev


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


def xlogy(x, y):
    """x log y, broadcast, with exactly 0 wherever x = 0 (y = 0 included).

    log is taken only where x != 0, so a zero proportion raises no warning;
    numpy's log may differ from libm's by one ulp.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros(np.broadcast_shapes(x.shape, np.shape(y)))
    return x * np.log(y, out=out, where=x != 0.0)


def equal_diffusivities(alphas) -> bool:
    """The paper's hypothesis for the biomass bound M <= M*: all alpha_i equal."""
    alphas = np.asarray(alphas, dtype=float)
    return bool(np.all(alphas == alphas[0]))


@dataclass(frozen=True)
class ModelParams:
    """Exponents and diffusivities of one model instance; len(alphas) species."""

    a: float
    b: float
    alphas: tuple[float, ...]

    def __post_init__(self):
        # written so that NaN fails every test
        if not (1.0 <= self.a < np.inf and 1.0 <= self.b < np.inf):
            raise ModelError("exponents must satisfy 1 <= a, b < inf")
        if not self.alphas:
            raise ModelError("need one positive diffusivity per species")
        if not all(0.0 < alpha < np.inf for alpha in self.alphas):
            raise ModelError("diffusivities must be positive and finite")

    @property
    def alpha_array(self):
        return np.asarray(self.alphas, dtype=float)


# case1's G is this 20-point Gauss rule below _CASE1_GAUSS_BELOW, 2.2e-15 relative off there,
# and the closed form above; cancellation puts the closed form 7.3e-12 off on [0.01, 0.02]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)
_CASE1_GAUSS_BELOW = 0.1

# split point below which the log-singular part of integral_0^m log g(s) ds
# is handled with the leading power behaviour g(s) ~ C s^a
_LOG_SPLIT = 1e-6

# each halving panel of _PanelInterpolant is split into _PANEL_SPLIT equal
# sub-panels of Chebyshev degree _PANEL_DEGREE; a sub-panel lies at least
# _PANEL_SPLIT of its widths from the saturation singularity, where a low
# degree already reaches round-off and costs fewer Clenshaw sweeps per call
_PANEL_DEGREE = 8
_PANEL_SPLIT = 8


class _PanelInterpolant:
    """Piecewise Chebyshev interpolant of f on [0, cap] for a model with exponent b.

    The coarse breaks halve the distance to s = 1 (0, 1/2, 3/4, ..., cap), so
    every coarse panel is the same number of its own widths away from the
    saturation singularity and one low degree resolves all of them
    (Trefethen, Approximation Theory and Approximation Practice, 2013).
    Below 1/2 the coarse breaks 2^-j, 2 <= j <= ceil(log2 b), resolve the
    turn of log c(s) on the scale 1/b near s = 0; for b <= 2 there are none.
    Each coarse panel is split into ``_PANEL_SPLIT`` equal panels of degree
    ``_PANEL_DEGREE``.  A panel [l, r] maps m to x = ((m - l) - (r - m)) / (r - l),
    which is -1 and 1 to one ulp at its breaks, also where they are not
    binary fractions, next to the cap.  f is sampled once, on a flat array of
    the first-kind Chebyshev points of every panel.
    """

    def __init__(self, f, cap, b):
        lows = 0.5 ** np.arange(np.ceil(np.log2(b)), 1.0, -1.0)
        halvings = 1.0 - 0.5 ** np.arange(1, 64)
        coarse = np.concatenate([[0.0], lows[lows < cap], halvings[halvings < cap], [cap]])
        fractions = np.arange(_PANEL_SPLIT) / _PANEL_SPLIT
        self.breaks = np.append(
            (coarse[:-1, None] + np.diff(coarse)[:, None] * fractions).ravel(), cap)
        self._left, self._right = self.breaks[:-1], self.breaks[1:]
        self._width = self._right - self._left

        x = chebyshev.chebpts1(_PANEL_DEGREE + 1)
        s = 0.5 * (self._left + self._right) + 0.5 * self._width * x[:, None]
        coef = chebyshev.chebvander(x, _PANEL_DEGREE).T @ f(s.ravel()).reshape(s.shape)
        coef[0] /= _PANEL_DEGREE + 1
        coef[1:] /= 0.5 * (_PANEL_DEGREE + 1)
        # degree-major, one column per panel: a column gather hands chebval its
        # (degree, points) coefficients with no transpose
        self._coef = coef

    def antiderivative(self):
        """The antiderivative that vanishes at s = 0, on the same panels."""
        # per-panel antiderivatives in s, zero at the panel's left break
        coef = chebyshev.chebint(self._coef, lbnd=-1.0) * (0.5 * self._width)
        totals = coef.sum(axis=0)  # value at the right break, T_k(1) = 1
        coef[0, 1:] += np.cumsum(totals[:-1])
        out = copy.copy(self)
        out._coef = coef
        return out

    def _panels(self, m, panel):
        """The interpolant at m evaluated on the given panels."""
        left, right = self._left[panel], self._right[panel]
        x = ((m - left) - (right - m)) / self._width[panel]
        return chebyshev.chebval(x, self._coef.take(panel, axis=1), tensor=False)

    def __call__(self, m):
        """The interpolant at m in [0, cap], any shape."""
        return self._panels(m, np.searchsorted(self.breaks[1:-1], m, side="right"))


class _LogGPrimitive:
    """Antiderivative of log g on the model's domain, cached for vectorized diagnostics.

    Splits log g(s) = a log s + phi(s) with phi smooth up to the saturation
    singularity; the a log s part integrates in closed form.  phi is
    interpolated on the halving panels of ``_PanelInterpolant`` up to the
    model's m_max and integrated exactly, so every biomass of the domain is
    evaluated on the panels.
    """

    def __init__(self, model):
        self.a = float(model.params.a)
        self._log_g = model.log_g
        self._in_domain = model.in_domain
        self._phi = _PanelInterpolant(lambda s: self._log_g(s) - self.a * np.log(s),
                                      model.m_max, model.params.b).antiderivative()

    def quad(self, m):
        """Adaptive-quadrature evaluation of integral_0^m log g(s) ds."""
        from scipy import integrate  # only entropy_density, the reference, gets here

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
        m = self._in_domain(m)
        return self.a * (xlogy(m, m) - m) + self._phi(m)


def _weight(m, p, b):
    return 1.0 / ((1.0 - m) ** b * p**2)  # w(m) from p = p(m): G'(m) = m^a w(m)


def g_prime(m, g, p, a, b):
    """g' = (m^a w - g) / m from g = g(m), p = p(m); at m = 0 its limit, w/2 at a = 1, else 0."""
    w = _weight(m, p, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = (m**a * w - g) / m
    return np.where(m == 0.0, 0.5 * w if a == 1.0 else 0.0, val)


class ModelFunctions:
    """Vectorized model functions, immutable after construction.

    The model's domain is 0 <= m <= m_max, with m_max < 1 the largest biomass
    at which g stays representable (``_domain_bound``).  g, g_prime, log_g and
    log_g_primitive accept scalars or arrays; outside the domain (NaN
    included) they raise ModelDomainError naming the model, the argument's
    range and m_max, and inside it they pass the model's closures a float
    array.  ``g = G / m`` is the ratio q/p, with G the cumulative mobility
    integral, and ``log_g`` is the log(g) used by the entropy.  A model
    supplies p, p_prime, g and log_g; ``g_prime`` derives g' from g and p.
    """

    def __init__(self, name, params, p, p_prime, g, log_g, m_max):
        self.name = name
        self.params = params
        self.m_max = float(m_max)
        self.p = p
        self.p_prime = p_prime
        self.g = self._on_domain(g)
        self.g_prime = self._on_domain(lambda m: g_prime(m, g(m), p(m), params.a, params.b))
        self.log_g = self._on_domain(log_g)
        _check_p(p, p_prime, name)  # before any panel is built on p
        self.log_g_primitive = _LogGPrimitive(self)

    def in_domain(self, m):
        """m as a float array; ModelDomainError unless 0 <= m <= m_max."""
        m = np.asarray(m, dtype=float)
        if not ((m >= 0.0) & (m <= self.m_max)).all():  # written so that NaN fails
            raise ModelDomainError(f"model {self.name!r}: biomass out of range: min={m.min()}, "
                                   f"max={m.max()}, m_max={self.m_max}")
        return m

    def _on_domain(self, f):
        return lambda m: f(self.in_domain(m))

    def __repr__(self):
        return f"ModelFunctions({self.name!r}, a={self.params.a}, b={self.params.b})"


def _check_p(p, p_prime, name):
    """ModelError unless p decreases on [0, 1], p(1) = 0 and p_prime fits p at 5 points."""
    grid = np.linspace(0.0, 1.0, 257)
    rising = np.diff(p(grid)) > 1e-12
    if rising.any():
        raise ModelError(f"model {name!r}: p is increasing near m = "
                         f"{grid[int(np.argmax(rising))]:.4f}")
    if abs(float(p(1.0))) > 1e-12 * max(float(p(0.0)), 1.0):
        raise ModelError(f"model {name!r}: p(1) must vanish")
    check = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    fd = (p(check + 1e-6) - p(check - 1e-6)) / 2e-6
    if np.any(np.abs(fd - p_prime(check)) > 1e-3 * (np.abs(fd) + 1e-12)):
        raise ModelError(f"model {name!r}: p_prime inconsistent with p")


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


def _domain_bound(p, b):
    """m_max: the largest m <= 1 - 1e-6 with log w(m) = -b log(1-m) - 2 log p(m) <= 690.

    Up to it w = 1 / ((1-m)^b p(m)^2), and with it g and g', is representable.
    The bracket starts at 0 because for a large b, log w passes the threshold
    below m = 1/2.  Raises ModelError for an empty domain, m_max = 0.
    """
    def log_weight(s):
        # +inf where p underflows or b log(1 - s) overflows, NaN where p < 0; only compared to 690
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return -b * np.log1p(-s) - 2.0 * np.log(p(s))

    m_max = 1.0 - 1e-6
    if log_weight(np.array([m_max]))[0] > 690.0:
        lo, hi = 0.0, m_max
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if log_weight(np.array([mid]))[0] > 690.0:
                hi = mid
            else:
                lo = mid
        m_max = lo
    if m_max == 0.0:
        raise ModelError(f"empty domain: 1 / ((1 - m)^b p(m)^2) overflows for every m > 0 "
                         f"at b = {b}")
    return m_max


# the built-in models' bounds, by the rule every generic model's bound follows
_CASE1_M_MAX = _domain_bound(_p_exp, 2.0)
_CASE2_M_MAX = _domain_bound(_p_linear, 1.0)


# -- built-in model: exponentially singular p ---------------------------------------


def model_case1(alphas=(1.0, 1.0)) -> ModelFunctions:
    """p(x) = exp(-1/(1-x)) with a = b = 2.

    G has the closed form e^{2/(1-m)} (m - 1/2) + e^2/2, which cancels as m
    falls; a 20-point Gauss rule on [0, m], exact to machine precision there,
    takes over below ``_CASE1_GAUSS_BELOW``.
    """
    e2 = np.exp(2.0)
    params = ModelParams(a=2.0, b=2.0, alphas=tuple(alphas))

    def G_prime(m):
        return m**2 / (1.0 - m) ** 2 * np.exp(2.0 / (1.0 - m))

    def closed_form(m):
        expm1_term = np.expm1(2.0 * m / (1.0 - m))
        return e2 * (m * (1.0 + expm1_term) - 0.5 * expm1_term)

    def G(m):
        # the closed form is exactly 0 at m = 0 and finite below the switch, so
        # it runs on the whole array and only the small entries are redone
        # (asarray: a 0-d m gives a scalar, which takes no assignment)
        out = np.asarray(closed_form(m))
        small = m < _CASE1_GAUSS_BELOW
        if small.any():
            out[small] = _small_m_integral(m[small], G_prime)
        return out

    def g(m):
        with np.errstate(invalid="ignore"):
            val = G(m) / m
        return np.where(m == 0.0, 0.0, val)

    def log_g(m):
        return np.log(G(m)) - np.log(m)

    return ModelFunctions("case1", params, _p_exp, _p_exp_prime, g, log_g, _CASE1_M_MAX)


# -- built-in model: linear p ---------------------------------------------------------


def model_case2(alphas=(1.0, 1.0)) -> ModelFunctions:
    """p(x) = 1 - x with a = b = 1; everything is in closed form."""
    params = ModelParams(a=1.0, b=1.0, alphas=tuple(alphas))

    def g(m):
        return m / (2.0 * (1.0 - m) ** 2)

    def log_g(m):
        return np.log(m) - np.log(2.0) - 2.0 * np.log1p(-m)

    return ModelFunctions("case2", params, _p_linear, _p_linear_prime, g, log_g, _CASE2_M_MAX)


# -- generic models -------------------------------------------------------------------

# named p functions available to configuration files
P_REGISTRY = {
    "linear": (_p_linear, _p_linear_prime),
    "quadratic": (lambda x: (1.0 - np.asarray(x, float)) ** 2,
                  lambda x: -2.0 * (1.0 - np.asarray(x, float))),
    "exp": (_p_exp, _p_exp_prime),
}


def _sigma_rule():
    """Composite 10-point Gauss-Legendre rule on [0, 1], panels halving towards both ends.

    Towards 0 the panels resolve sigma^a for any real a >= 1; towards 1 they
    reach 2^-20 < 1 - m_max, which resolves the saturation layer of w(s sigma)
    for every s up to a generic model's m_max.
    """
    levels = 0.5 ** np.arange(20, 0, -1)  # 2^-20, ..., 1/4, 1/2
    breaks = np.concatenate([[0.0], levels, 1.0 - levels[-2::-1], [1.0]])
    x, w = np.polynomial.legendre.leggauss(10)
    half = 0.5 * np.diff(breaks)[:, None]
    return (breaks[:-1, None] + half * (x + 1.0)).ravel(), (half * w).ravel()


_SIGMA_X, _SIGMA_W = _sigma_rule()


def model_generic(p, p_prime, params: ModelParams, name="generic") -> ModelFunctions:
    """Build model functions for a user-supplied p by quadrature.

    G is m^(a+1) c(m) with c(s) = integral_0^1 sigma^a w(s sigma) d sigma and
    w(s) = 1 / ((1 - s)^b p(s)^2).  c is computed once by a fixed composite
    Gauss-Legendre rule in sigma at the Chebyshev points of the halving
    panels of ``_PanelInterpolant``, and log c is interpolated on them; the
    s^a factor stays in closed form.  The panels, and the entropy primitive
    built on the same layout, stop at the model's m_max (``_domain_bound``).
    """
    a, b = params.a, params.b
    m_max = _domain_bound(p, b)
    sigma_weights = _SIGMA_W * _SIGMA_X**a

    def log_c_of(s):
        s_sigma = s[:, None] * _SIGMA_X
        return np.log(_weight(s_sigma, p(s_sigma), b) @ sigma_weights)

    @functools.cache  # built by ModelFunctions' entropy primitive, after it checks p
    def log_c():
        return _PanelInterpolant(log_c_of, m_max, b)

    def g(m):
        return np.exp(log_c()(m)) * m**a

    def log_g(m):
        return log_c()(m) + a * np.log(m)

    return ModelFunctions(name, params, p, p_prime, g, log_g, m_max)


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
        params = ModelParams(a=float(a), b=float(b), alphas=tuple(alphas))
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
