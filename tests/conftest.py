import numpy as np
import pytest

from biofilm_fv import (
    BoundaryData,
    State,
    build_interval_mesh,
    build_rectangle_mesh,
    get_model,
    model_case1,
    model_case2,
)

# the generic models the tests run: (p, a, b); a = b = 1 with linear p is case2,
# a = b = 2 with exp p is case1, and a = 1.5 covers a non-integer power of m
GENERIC_MODELS = {
    "generic:linear": ("linear", 1.0, 1.0),
    "generic:exp": ("exp", 2.0, 2.0),
    "generic:quadratic": ("quadratic", 1.5, 1.0),
}


def named_model(name, alphas=(1.0, 1.0)):
    """case1, case2 or one of ``GENERIC_MODELS`` by name, with the given diffusivities."""
    if name in GENERIC_MODELS:
        p_name, a, b = GENERIC_MODELS[name]
        return get_model("generic", alphas, a=a, b=b, p_name=p_name)
    return get_model(name, alphas)


@pytest.fixture(scope="session")
def case1():
    return model_case1()


@pytest.fixture(scope="session")
def case2():
    return model_case2()


@pytest.fixture(scope="session")
def bdata_01():
    return BoundaryData((0.1, 0.1))


@pytest.fixture
def interval_10():
    return build_interval_mesh(10, "left")


@pytest.fixture
def rect_top(request):
    return build_rectangle_mesh(4, 4, lambda x, y: abs(y - 1.0) < 1e-12)


def make_state(u):
    return State(time=0.0, u=np.asarray(u, dtype=float))
