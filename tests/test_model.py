import warnings

import numpy as np
import pytest
from scipy.special import xlogy as scipy_xlogy

from biofilm_fv import (
    BoundaryData,
    ModelDomainError,
    ModelError,
    ModelParams,
    build_interval_mesh,
    entropy_density,
    evaluate,
    get_model,
    model_case1,
    model_case2,
    model_generic,
)
from biofilm_fv import model as model_module
from biofilm_fv.model import ModelFunctions, admissible_biomass, xlogy
from biofilm_fv.oracle import quadrature_g
from conftest import GENERIC_MODELS, named_model

# frozen oracle values (30-digit quadrature of the defining integrals)
H_STAR_CASE2_02_01 = 0.0888060151737645965048222734305
H_STAR_CASE1_PAIR = 0.0261624071882273918258403612467
G1_ORACLE = {
    0.02: 0.00104702436872137380521633169083,
    0.1: 0.0340230860951539317460056809662,
    0.5: 7.38905609893065022723042746058,
    0.9: 215628979.842715734058853162035,
}


# -- built-in models --------------------------------------------------------------


def test_case1_closed_form_values(case1):
    assert float(case1.g(0.5)) == pytest.approx(np.exp(2.0), rel=1e-14)
    for m, ref in G1_ORACLE.items():
        assert float(case1.g(m)) == pytest.approx(ref, rel=1e-11)


def test_case1_singularity_exponent(case1):
    # (-(1-m)^2) p'(m)/p(m) -> 1 towards saturation; stay above the underflow
    # point of p itself (exp(-1/(1-m)) vanishes in double precision near 0.9987)
    for m in (0.9, 0.99, 0.995):
        ratio = -((1.0 - m) ** 2) * float(case1.p_prime(m)) / float(case1.p(m))
        assert ratio == pytest.approx(1.0, rel=1e-12)


def test_case1_quadrature_matches_closed_form(case1):
    for m in np.linspace(0.1, 0.9, 9):
        assert float(case1.g(m)) == pytest.approx(quadrature_g(case1, m), rel=1e-8)


def test_case1_g_matches_adaptive_quadrature_across_the_switch(case1):
    # the closed form cancels as m falls, 7e-12 relative off just above
    # m = 1e-2; the quadrature is within 4e-16 of 40-digit arithmetic on this range
    m = np.linspace(1e-4, 0.3, 400)
    np.testing.assert_allclose(case1.g(m), [quadrature_g(case1, x) for x in m], rtol=1e-13,
                               atol=0.0)


def _case1_G_masked(m):
    """case1's G with the closed form and the Gauss rule each on its own masked copy."""
    out = np.empty_like(m)
    small = m < model_module._CASE1_GAUSS_BELOW
    ms = m[~small]
    expm1_term = np.expm1(2.0 * ms / (1.0 - ms))
    out[~small] = np.exp(2.0) * (ms * (1.0 + expm1_term) - 0.5 * expm1_term)
    out[small] = model_module._small_m_integral(
        m[small], lambda s: s**2 / (1.0 - s) ** 2 * np.exp(2.0 / (1.0 - s)))
    return out


@pytest.mark.parametrize("low, high", [(model_module._CASE1_GAUSS_BELOW, 0.98),
                                       (0.0, 0.99 * model_module._CASE1_GAUSS_BELOW),
                                       (1e-4, 0.5)],
                         ids=["above", "below", "crossing"])
def test_case1_G_is_the_masked_formula_bitwise(case1, low, high):
    # G takes the closed form on the whole array and redoes only the entries
    # below the switch at m = _CASE1_GAUSS_BELOW; the arithmetic per element is the same, so
    # g and log g are bitwise the masked formula's on either side of the
    # switch and across it
    m = np.linspace(low, high, 257)
    G = _case1_G_masked(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        assert np.array_equal(case1.g(m), np.where(m == 0.0, 0.0, G / m))
        # NaN at m = 0 on both sides
        assert np.array_equal(case1.log_g(m), np.log(G) - np.log(m), equal_nan=True)


def test_case2_closed_forms(case2):
    assert float(case2.g(0.5)) == 1.0
    assert float(case2.g(0.0)) == 0.0
    assert float(case2.g_prime(0.5)) == pytest.approx(6.0, rel=1e-14)


def test_case2_derivative_matches_finite_difference(case2):
    h = 1e-5
    fd = (float(case2.g(0.5 + h)) - float(case2.g(0.5 - h))) / (2.0 * h)
    assert float(case2.g_prime(0.5)) == pytest.approx(fd, rel=1e-8)


@pytest.mark.parametrize("model_name", ["case1", "case2"])
def test_g_strictly_increasing(model_name, case1, case2):
    model = case1 if model_name == "case1" else case2
    grid = np.linspace(1e-4, 0.99, 1000)
    values = model.g(grid)
    assert (np.diff(values) > 0.0).all()
    # m * g(m) increasing as well
    assert (np.diff(grid * values) > 0.0).all()


@pytest.mark.parametrize("model_name", ["case1", "case2", *GENERIC_MODELS])
def test_g_prime_matches_finite_differences(model_name):
    model = named_model(model_name)
    grid = np.linspace(0.01, 0.95, 40)
    h = 1e-6
    fd = (model.g(grid + h) - model.g(grid - h)) / (2.0 * h)
    assert np.abs(model.g_prime(grid) - fd).max() <= 1e-6 * np.abs(fd).max()


# g' is derived from g and p for every model; the closed forms it replaced
# stay here as its oracles.  Each bound is about 3x the largest relative
# deviation measured on its 2001-point grid.


def test_derived_g_prime_matches_case1_closed_form(case1):
    # (G' m - G) / m^2 with G' = m^2 e^{2/(1-m)} / (1-m)^2 and G the closed
    # form, which cancels below the switch to the Gauss rule; measured 8.9e-16
    m = np.linspace(model_module._CASE1_GAUSS_BELOW, case1.m_max, 2001)
    G_prime = m**2 / (1.0 - m) ** 2 * np.exp(2.0 / (1.0 - m))
    np.testing.assert_allclose(case1.g_prime(m), (G_prime * m - _case1_G_masked(m)) / m**2,
                               rtol=3e-15, atol=0.0)


def test_derived_g_prime_matches_case2_closed_form(case2):
    # measured 6.7e-16, m = 0 included
    m = np.linspace(0.0, case2.m_max, 2001)
    np.testing.assert_allclose(case2.g_prime(m), (1.0 + m) / (2.0 * (1.0 - m) ** 3),
                               rtol=2e-15, atol=0.0)


@pytest.mark.parametrize("name, builtin, rtol", [
    ("generic:linear", "case2", 1e-14),  # measured 2.9e-15
    ("generic:exp", "case1", 1e-13),  # measured 2.5e-14
])
def test_generic_g_prime_matches_its_builtin_twin(name, builtin, rtol):
    generic, model = named_model(name), named_model(builtin)
    m = np.linspace(0.0, model.m_max, 2001)
    np.testing.assert_allclose(generic.g_prime(m), model.g_prime(m), rtol=rtol, atol=0.0)


@pytest.mark.parametrize("name, limit", [
    ("case2", 0.5), ("generic:linear", 0.5),  # a = 1, p = 1 - m: w(0) / 2
    ("case1", 0.0), ("generic:exp", 0.0), ("generic:quadratic", 0.0),  # a > 1
])
def test_g_prime_at_zero_biomass_is_its_limit(name, limit):
    model = named_model(name)
    assert float(model.g_prime(0.0)) == limit
    assert model.g_prime(np.array([0.0, 0.5]))[0] == limit


def test_p_shape_asserted_on_construction():
    params = ModelParams(a=1.0, b=1.0, alphas=(1.0,))
    with pytest.raises(ModelError):
        model_generic(lambda x: np.asarray(x, float), lambda x: np.ones_like(np.asarray(x, float)), params)


# -- generic models -----------------------------------------------------------------


# the generic models' error against the closed forms on [1e-4, 0.985]; case1's
# own closed form is ~4e-12 off just above its switch to quadrature at m = 1e-2
GENERIC_GRID = np.linspace(1e-4, 0.985, 2001)
GENERIC_TOL = 1e-11


def assert_generic_matches(generic, model):
    for function in ("g", "g_prime"):
        ratio = getattr(generic, function)(GENERIC_GRID) / getattr(model, function)(GENERIC_GRID)
        assert np.abs(ratio - 1.0).max() < GENERIC_TOL, function
    for function in ("log_g", "log_g_primitive"):
        difference = getattr(generic, function)(GENERIC_GRID) - getattr(model, function)(GENERIC_GRID)
        assert np.abs(difference).max() < GENERIC_TOL, function


def test_generic_reproduces_case2(case2):
    params = ModelParams(a=1.0, b=1.0, alphas=(1.0, 1.0))
    generic = model_generic(
        lambda x: 1.0 - np.asarray(x, float),
        lambda x: -np.ones_like(np.asarray(x, float)),
        params,
    )
    assert_generic_matches(generic, case2)
    assert float(generic.g(0.0)) == 0.0


def test_generic_reproduces_case1(case1):
    generic = get_model("generic", (1.0, 1.0), a=2.0, b=2.0, p_name="exp")
    assert_generic_matches(generic, case1)


def test_generic_non_integer_exponent_matches_quadrature():
    model = get_model("generic", (1.0, 1.0), a=1.5, b=1.0, p_name="quadratic")
    for m in np.linspace(1e-4, 0.985, 40):
        assert float(model.g(m)) == pytest.approx(quadrature_g(model, m), rel=1e-12)


@pytest.mark.parametrize("a, b", [(2000.0, 1.0), (1e4, 1.0), (1.0, 2000.0)])
def test_generic_builds_for_large_exponents(a, b):
    # s^a stays in closed form, so 2^(a+1) overflowing is harmless; for a large
    # b, log w passes the overflow threshold below s = 1/2, and so does the cap
    model = get_model("generic", (1.0,), a=a, b=b, p_name="linear")
    ms = np.linspace(0.0, model.m_max, 101)
    for function in ("g", "g_prime", "log_g_primitive"):
        assert np.isfinite(getattr(model, function)(ms)).all(), function
    assert np.isfinite(model.log_g(ms[1:])).all()


@pytest.mark.parametrize("b", [50.0, 100.0, 300.0, 1000.0])
def test_generic_large_b_matches_closed_form(b):
    # p = 1 - s, a = 1: G(m) = integral_0^m s (1-s)^-(b+2) ds
    #                       = (1 + x^b (b m / (1-m) - 1)) / (b (b+1)),  x = 1 / (1-m);
    # log c turns over on the scale 1/b near s = 0, which the panels below 1/2 resolve
    model = get_model("generic", (1.0,), a=1.0, b=b, p_name="linear")
    m = np.linspace(0.02, min(model.m_max, 0.985), 15)
    x = 1.0 / (1.0 - m)
    exact = (1.0 + x**b * (b * m / (1.0 - m) - 1.0)) / (b * (b + 1.0))
    assert model.g(m) * m == pytest.approx(exact, rel=1e-11)


def test_generic_rejects_increasing_p():
    params = ModelParams(a=1.0, b=1.0, alphas=(1.0,))
    with pytest.raises(ModelError, match="p is increasing near m = 0.0000"):
        model_generic(
            lambda x: np.asarray(x, float) * (1.0 - np.asarray(x, float)),
            lambda x: 1.0 - 2.0 * np.asarray(x, float),
            params,
        )


def test_generic_rejects_p_not_vanishing_at_one_before_building_panels(monkeypatch):
    def no_panels(*args, **kwargs):
        raise AssertionError("panels built")

    monkeypatch.setattr(model_module, "_PanelInterpolant", no_panels)
    params = ModelParams(a=1.0, b=1.0, alphas=(1.0,))
    with pytest.raises(ModelError, match="p[(]1[)] must vanish"):
        model_generic(lambda x: 2.0 - np.asarray(x, float),
                      lambda x: -np.ones_like(np.asarray(x, float)), params)


def test_model_functions_reject_increasing_p(case2):
    # the same rule guards a model built without model_generic
    with pytest.raises(ModelError, match="'rising': p is increasing near m = 0.5000"):
        ModelFunctions("rising", case2.params,
                       lambda x: (np.asarray(x, float) - 0.5) ** 2,
                       case2.p_prime, case2.g, case2.log_g, case2.m_max)


def test_a_generic_model_build_checks_p_once(monkeypatch):
    calls = []
    check = model_module._check_p
    monkeypatch.setattr(model_module, "_check_p", lambda *args: calls.append(1) or check(*args))
    get_model("generic", (1.0,), a=2.0, b=2.0, p_name="exp")
    assert len(calls) == 1


def test_generic_domain_error_near_saturation():
    generic = get_model("generic", (1.0,), a=2.0, b=2.0, p_name="exp")
    with pytest.raises(ModelDomainError) as err:
        generic.g(0.9999)
    assert "0.9999" in str(err.value)


def test_exponent_validation():
    with pytest.raises(ModelError):
        ModelParams(a=0.5, b=1.0, alphas=(1.0,))
    with pytest.raises(ModelError):
        ModelParams(a=1.0, b=1.0, alphas=(-1.0,))
    with pytest.raises(ModelError, match="need one positive diffusivity per species"):
        ModelParams(a=1.0, b=1.0, alphas=())


def test_generic_rejects_an_inconsistent_p_prime():
    params = ModelParams(a=1.0, b=1.0, alphas=(1.0,))
    with pytest.raises(ModelError, match="p_prime inconsistent with p"):
        model_generic(lambda x: 1.0 - np.asarray(x, float),
                      lambda x: -2.0 * np.ones_like(np.asarray(x, float)), params)


@pytest.mark.parametrize("a, b, alphas", [
    (np.nan, 1.0, (1.0,)), (1.0, np.nan, (1.0,)), (np.inf, 1.0, (1.0,)), (1.0, np.inf, (1.0,)),
    (1.0, 1.0, (np.nan,)), (1.0, 1.0, (np.inf,)), (1.0, 1.0, (1.0, np.nan)),
])
def test_model_params_reject_nan_and_infinity(a, b, alphas):
    with pytest.raises(ModelError):
        ModelParams(a=a, b=b, alphas=alphas)


def test_generic_model_rejects_a_nan_exponent():
    # it used to build a model whose g is NaN everywhere
    with pytest.raises(ModelError, match="exponents"):
        get_model("generic", (1.0, 1.0), a=np.nan, b=2.0, p_name="linear")


# -- entropy density -----------------------------------------------------------------


def test_xlogy_matches_scipy_on_random_data_with_zeros():
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 1.0, size=(2, 4096))
    y = rng.uniform(0.0, 3.0, size=(2, 4096))
    x[:, ::7] = 0.0
    y[:, ::11] = 1.0
    ours, ref = xlogy(x, y), scipy_xlogy(x, y)
    assert ours.shape == ref.shape
    assert np.all(np.abs(ours - ref) <= 4.5e-16 * np.abs(ref))


def test_xlogy_is_exactly_zero_where_x_is_zero_without_warnings():
    x = np.array([0.0, 0.0, 0.0, 0.5])
    y = np.array([0.0, 0.3, 1.0, 0.25])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = xlogy(x, y)
    assert np.all(out[:3] == 0.0) and not np.signbit(out[:3]).any()
    assert out[3] == pytest.approx(0.5 * np.log(0.25), rel=1e-15)


def test_xlogy_broadcasts_a_species_column():
    rng = np.random.default_rng(5)
    u = rng.uniform(0.0, 0.4, size=(2, 9))
    u[1, 4] = 0.0
    u_d = np.array([[0.1], [0.2]])
    out = xlogy(u, u / u_d)
    assert out.shape == (2, 9)
    rows = np.vstack([xlogy(u[i], u[i] / u_d[i]) for i in range(2)])
    np.testing.assert_allclose(out, rows, rtol=4.5e-16, atol=0.0)
    assert out[1, 4] == 0.0


def test_entropy_zero_at_reference(case1):
    assert entropy_density([0.1, 0.1], case1, [0.1, 0.1]) == pytest.approx(0.0, abs=1e-14)


def test_entropy_positive_away_from_reference(case2):
    rng = np.random.default_rng(7)
    u_d = np.array([0.1, 0.1])
    for _ in range(100):
        u = rng.uniform(0.01, 0.45, size=2)
        if np.abs(u - u_d).max() < 1e-3:
            continue
        assert entropy_density(u, case2, u_d) > 0.0


def test_entropy_frozen_oracle_case2():
    model = model_case2(alphas=(1.0,))
    value = entropy_density([0.2], model, [0.1])
    assert value == pytest.approx(H_STAR_CASE2_02_01, abs=1e-9)


def test_entropy_frozen_oracle_case1():
    model = model_case1()
    value = entropy_density([0.15, 0.05], model, [0.1, 0.1])
    assert value == pytest.approx(H_STAR_CASE1_PAIR, abs=1e-9)


def test_entropy_permutation_invariant(case1):
    u = np.array([0.22, 0.05])
    u_d = np.array([0.08, 0.13])
    assert entropy_density(u, case1, u_d) == pytest.approx(
        entropy_density(u[::-1], case1, u_d[::-1]), rel=1e-14
    )


def test_entropy_domain_errors(case2):
    with pytest.raises(ModelDomainError):
        entropy_density([0.6, 0.5], case2, [0.1, 0.1])
    with pytest.raises(ModelDomainError):
        entropy_density([-0.01, 0.1], case2, [0.1, 0.1])
    with pytest.raises(ModelDomainError, match="reference state must lie strictly inside"):
        entropy_density([0.1, 0.1], case2, [0.0, 0.1])


@pytest.mark.parametrize("u", [[np.nan, 0.1], [[0.1, 0.2], [0.1, np.nan]]],
                         ids=["vector", "cells"])
def test_admissible_biomass_rejects_nan(u):
    # NaN compares false both ways, so the rule must ask for u >= 0 and M < 1
    with pytest.raises(ModelDomainError, match="negative species proportion"):
        admissible_biomass(u)


@pytest.mark.parametrize("selector", ["case1", "case2", "generic:quadratic"])
@pytest.mark.parametrize("function", ["g", "log_g", "g_prime", "log_g_primitive"])
def test_model_functions_reject_nan_biomass(selector, function):
    if selector == "generic:quadratic":
        model = get_model("generic", (1.0, 1.0), a=1.0, b=1.0, p_name="quadratic")
    else:
        model = get_model(selector, (1.0, 1.0))
    evaluate = getattr(model, function)
    with pytest.raises(ModelDomainError, match=f"model '{selector}': biomass out of range"):
        evaluate(np.array([np.nan, 0.2]))
    # past saturation the message names the argument, not a point inside the function
    with pytest.raises(ModelDomainError, match=f"min=0.2, max=1.5, m_max={model.m_max}$"):
        evaluate(np.array([0.2, 1.5]))
    # the domain ends at m_max itself, where every function is still finite
    assert np.isfinite(evaluate(model.m_max))
    with pytest.raises(ModelDomainError, match="biomass out of range"):
        evaluate(model.m_max * (1.0 + 1e-9))


def test_cached_primitive_matches_quadrature(case1, case2):
    for model in (case1, case2):
        for m in (0.05, 0.2, 0.45, 0.8):
            assert float(model.log_g_primitive(m)) == pytest.approx(
                model.log_g_primitive.quad(m), abs=1e-11
            )


@pytest.mark.parametrize("name", ["case1", "case2", "generic:quadratic"])
def test_reference_primitive_at_zero_and_below_the_split(name):
    # at and below _LOG_SPLIT the reference primitive takes no quadrature: 0 at
    # m = 0, else the head m (log g(m) - a), exact for the a log s part of log g
    # and off by m phi(m) - int_0^m phi ~ m^2 phi'/2 for the smooth rest phi
    model = named_model(name)
    primitive = model.log_g_primitive
    assert primitive.quad(0.0) == 0.0

    def phi(s):
        return float(model.log_g(s)) - primitive.a * np.log(s)

    for m in (1e-7, 1e-6):
        head = primitive.quad(m)
        assert head == m * (float(model.log_g(m)) - primitive.a)
        slope = abs(phi(m) - phi(m / 2)) / (m / 2)  # |phi'| on [m/2, m]
        # measured 1.0 to 1.0005 times m^2 |phi'| / 2
        assert abs(head - float(primitive(m))) <= m * m * slope


def test_case2_primitive_closed_form(case2):
    # integral of log g for p = 1-x: (m log m - m) - m log 2 + 2((1-m)log(1-m) + m)
    for m in (0.1, 0.3, 0.6):
        exact = (m * np.log(m) - m) - m * np.log(2.0) + 2.0 * ((1.0 - m) * np.log1p(-m) + m)
        assert float(case2.log_g_primitive(m)) == pytest.approx(exact, abs=1e-12)


def test_primitive_scalar_and_array_calls_agree(case1):
    ms = np.array([0.0, 1e-7, 0.3, 0.5, 0.74, 0.9, 0.989])
    values = case1.log_g_primitive(ms)
    assert [case1.log_g_primitive(float(m)) for m in ms] == list(values)


@pytest.mark.parametrize("selector", ["case1", "case2", "quadratic"])
def test_primitive_panels_continuous_at_breaks(selector):
    if selector == "quadratic":
        model = get_model("generic", (1.0, 1.0), a=2.0, b=2.0, p_name="quadratic")
    else:
        model = get_model(selector, (1.0, 1.0))
    phi = model.log_g_primitive._phi
    breaks = phi.breaks[1:-1]
    panel = np.arange(breaks.size)
    left = phi._panels(breaks, panel)
    right = phi._panels(breaks, panel + 1)
    assert np.abs(left - right).max() <= 1e-14


def test_generic_primitive_matches_quadrature():
    model = get_model("generic", (1.0, 1.0), a=2.0, b=2.0, p_name="quadratic")
    for m in (0.3, 0.7, 0.95, 0.985):
        assert float(model.log_g_primitive(m)) == pytest.approx(
            model.log_g_primitive.quad(m), abs=1e-9
        )


@pytest.mark.parametrize("selector", ["case1", "case2", "generic:exp"])
def test_primitive_panels_reach_the_domain_bound(selector):
    # every model's panels run up to its m_max, so no biomass of its domain
    # falls back to the adaptive quadrature
    if selector == "generic:exp":
        model = get_model("generic", (1.0, 1.0), a=2.0, b=2.0, p_name="exp")
    else:
        model = get_model(selector, (1.0, 1.0))
    primitive = model.log_g_primitive
    ms = np.linspace(0.99, model.m_max, 7)
    expected = [primitive.quad(m) for m in ms]
    primitive.quad = None
    assert primitive(ms) == pytest.approx(expected, abs=1e-11)


# -- edge coefficient -----------------------------------------------------------------


def _interior_psq(m_K, m_L, model):
    """psq_sigma of the interior edge of a two-cell mesh with biomasses m_K and m_L."""
    u = np.array([[m_K, m_L], [m_K, m_L]]) / 2
    ev = evaluate(u, build_interval_mesh(2, "left"), model, BoundaryData((0.1, 0.1)))
    return float(ev.psq[0])


def test_flux_coefficient_equal_arguments(case2):
    assert _interior_psq(0.3, 0.3, case2) == pytest.approx(float(case2.p(0.3)) ** 2, rel=1e-15)


def test_flux_coefficient_lower_bound(case1):
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = rng.uniform(0.0, 0.99, size=2)
        coeff = _interior_psq(a, b, case1)
        assert coeff >= 0.5 * float(case1.p(max(a, b))) ** 2 - 1e-16
