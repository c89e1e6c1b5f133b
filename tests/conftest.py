import numpy as np
import pytest

from biofilm_fv import (
    BoundaryData,
    State,
    build_interval_mesh,
    build_rectangle_mesh,
    model_case1,
    model_case2,
)


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
