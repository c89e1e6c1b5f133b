"""Whole-scheme oracles: relations between two runs that the exact scheme satisfies.

Each test advances two states with ``advance`` and compares the end states,
on case1 and case2, with fixed and with adaptive steps:

* equal-alpha biomass reduction: with every alpha_i equal, the species
  equations sum to the one-species scheme for the biomass, so sum_i u_i of
  an n-species run is the one-species run from M with contact M^D;
* species permutation: relabelling the species together with their
  (unequal) alpha_i and contact values relabels the solution;
* mirror symmetry: reflecting x -> 1 - x in the data, and in 1D also the
  contact side, reflects the solution, on an interval and on a rectangle.

Each bound is stated from the largest deviation measured over its
parameters.
"""

from pathlib import Path

import numpy as np
import pytest

import biofilm_fv
from biofilm_fv import scheme
from biofilm_fv import (
    BoundaryData,
    IndicatorDatum,
    NewtonConfig,
    State,
    advance,
    build_interval_mesh,
    build_rectangle_mesh,
    get_model,
    load_triangle_mesh_file,
)

T_END = 0.02
POLICIES = {
    "fixed": NewtonConfig(dt_min=1e-3, dt_init=1e-3, dt_max=1e-3),
    "adaptive": NewtonConfig(dt_min=1e-8, dt_init=1e-4, dt_max=4e-3),
}
MODELS = ["case1", "case2"]
ACUTE_PATCH = Path(biofilm_fv.__file__).parent / "data" / "acute_patch.mesh"

# species i sits at BASE[i] with BUMP[i] on its box; the boxes are staggered
# and overlap, and none is symmetric under x -> 1 - x
BASE, BUMP = (0.1, 0.05, 0.08), (0.2, 0.15, 0.1)
BOXES = {1: ((0.1, 0.4), (0.3, 0.7), (0.6, 0.9)),
         2: ((0.1, 0.4, 0.0, 0.5), (0.3, 0.7, 0.2, 0.8), (0.6, 0.9, 0.4, 1.0))}

# the two runs of a relabelling take the same Newton path, relabelled, and
# agree to at most 2.6e-16
RELABEL_TOL = 1e-14
# the n-species Newton stop reads max_i |R_i| and the one-species stop
# |sum_i R_i|, so at NEWTON_TOL = 1e-10 the two runs may end a step one
# iterate apart and differ by up to 3.7e-11 (acute, n = 2, case1, fixed);
# solved to REDUCTION_NEWTON_TOL, where no step is halved, they agree to at
# most 3.3e-16
REDUCTION_NEWTON_TOL = 1e-14
REDUCTION_TOL = 1e-14


def build_mesh(name):
    if name == "interval":
        return build_interval_mesh(32, "left")
    return load_triangle_mesh_file(str(ACUTE_PATCH), lambda x, y: abs(y) < 1e-12)


def initial(mesh, n):
    """The first n species of the staggered boxes, averaged on ``mesh``."""
    datum = IndicatorDatum(base=BASE[:n], bump=BUMP[:n], boxes=BOXES[mesh.dimension][:n])
    return datum.cell_average(mesh)


def end_state(u0, mesh, model_name, alphas, u_d, policy):
    model = get_model(model_name, tuple(alphas))
    state = State(time=0.0, u=np.array(u0, dtype=float))
    return advance(state, T_END, mesh, model, BoundaryData(tuple(u_d)), POLICIES[policy]).u


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("model_name", MODELS)
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("mesh_name", ["interval", "acute"])
def test_equal_diffusivities_reduce_to_the_biomass_run(mesh_name, n, model_name, policy,
                                                       monkeypatch):
    monkeypatch.setattr(scheme, "NEWTON_TOL", REDUCTION_NEWTON_TOL)
    mesh = build_mesh(mesh_name)
    u0 = initial(mesh, n)
    species = end_state(u0, mesh, model_name, (2.0,) * n, BASE[:n], policy)
    biomass = end_state(u0.sum(axis=0, keepdims=True), mesh, model_name, (2.0,),
                        (sum(BASE[:n]),), policy)
    assert np.abs(species.sum(axis=0) - biomass[0]).max() <= REDUCTION_TOL


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("model_name", MODELS)
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("mesh_name", ["interval", "acute"])
def test_permuting_the_species_permutes_the_solution(mesh_name, n, model_name, policy):
    mesh = build_mesh(mesh_name)
    u0 = initial(mesh, n)
    alphas, u_d = np.array([1.0, 5.0, 2.0][:n]), np.array(BASE[:n])
    order = np.roll(np.arange(n), 1)
    reference = end_state(u0, mesh, model_name, alphas, u_d, policy)
    permuted = end_state(u0[order], mesh, model_name, alphas[order], u_d[order], policy)
    assert np.abs(permuted - reference[order]).max() <= RELABEL_TOL


def mirrored_meshes(dimension):
    """Two meshes and the cell permutation that reflects x -> 1 - x between them."""
    if dimension == 1:
        n = 32
        return build_interval_mesh(n, "left"), build_interval_mesh(n, "right"), np.arange(n)[::-1]
    nx = ny = 8
    mesh = build_rectangle_mesh(nx, ny, lambda x, y: abs(y - 1.0) < 1e-12)
    return mesh, mesh, np.arange(nx * ny).reshape(ny, nx)[:, ::-1].ravel()


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("model_name", MODELS)
@pytest.mark.parametrize("dimension", [1, 2])
def test_mirroring_the_data_mirrors_the_solution(dimension, model_name, policy):
    mesh, mirror, flip = mirrored_meshes(dimension)
    u0 = initial(mesh, 2)
    reference = end_state(u0, mesh, model_name, (1.0, 5.0), BASE[:2], policy)
    mirrored = end_state(u0[:, flip], mirror, model_name, (1.0, 5.0), BASE[:2], policy)
    assert np.abs(mirrored[:, flip] - reference).max() <= RELABEL_TOL
