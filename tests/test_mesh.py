import math
from pathlib import Path

import biofilm_fv
import numpy as np
import pytest

from biofilm_fv import (
    AdmissibilityError,
    Mesh,
    MeshError,
    TopologyError,
    build_interval_mesh,
    build_rectangle_mesh,
    load_triangle_mesh,
    load_triangle_mesh_file,
    read_triangle_mesh_file,
    validate_regularity,
    write_triangle_mesh_file,
)

ACUTE_FIXTURE = str(Path(biofilm_fv.__file__).parent / "data" / "acute_patch.mesh")
ALL = lambda x, y: True
TOP = lambda x, y: abs(y - 1.0) < 1e-12


# -- interval meshes ----------------------------------------------------------


def test_interval_mesh_transmissibilities():
    mesh = build_interval_mesh(10, "left")
    assert mesh.n_cells == 10
    assert mesh.interior.size == 9
    # m(sigma) = 1 convention gives tau = 1/h on interior edges
    assert np.all(np.abs(mesh.flux_tau[: mesh.interior.size] - 10.0) < 1e-12)
    assert abs(mesh.total_measure - 1.0) < 1e-15


def test_interval_mesh_two_cells_left():
    mesh = build_interval_mesh(2, "left")
    # one interior edge, the Dirichlet edge at x = 0 (ghost cell 2), and the
    # no-flux edge at x = 1
    assert mesh.edge_L.tolist() == [2, 1, -1]
    assert mesh.interior.tolist() == [1]
    assert mesh.dirichlet.tolist() == [0]
    assert (mesh.edge_K[0], mesh.edge_L[0]) == (0, mesh.n_cells)


def test_interval_mesh_reference_size():
    mesh = build_interval_mesh(5120, "left")
    assert mesh.n_cells == 5120
    assert mesh.n_edges == 5121


def test_interval_mesh_rejects_single_cell():
    with pytest.raises(ValueError):
        build_interval_mesh(1, "left")


def test_interval_regularity():
    # interior incidences give (h/2)/h, boundary ones give 1
    assert build_interval_mesh(10, "left").regularity_xi == pytest.approx(0.5, abs=0)


# -- rectangle meshes ----------------------------------------------------------


def test_rectangle_2x2_geometry():
    mesh = build_rectangle_mesh(2, 2, TOP)
    assert mesh.n_cells == 4
    assert mesh.interior.size == 4
    assert np.allclose(mesh.flux_tau[:4], 1.0)  # tau = 0.5 / 0.5
    assert mesh.dirichlet.size == 2
    assert np.allclose(mesh.flux_tau[4:], 2.0)  # tau = 0.5 / 0.25
    assert np.count_nonzero(mesh.edge_L == -1) == 6


def test_rectangle_unit_partition_and_xi():
    mesh = build_rectangle_mesh(5, 3, TOP)
    assert mesh.total_measure == pytest.approx(1.0, abs=1e-15)
    assert mesh.regularity_xi == 0.5


def test_rectangle_orthogonality_exact():
    mesh = build_rectangle_mesh(3, 3, TOP)
    K, L = mesh.flux_K[: mesh.interior.size], mesh.flux_L[: mesh.interior.size]
    dx = mesh.cell_centers[L] - mesh.cell_centers[K]
    normals = mesh.edge_normals[mesh.interior]
    tangents = np.column_stack([-normals[:, 1], normals[:, 0]])
    assert np.abs(np.einsum("ij,ij->i", dx, tangents)).max() == 0.0


def test_rectangle_3x2_edge_order_and_orientation():
    # cells are numbered row by row; interior edges come cell by cell (right
    # neighbor, then upper neighbor), then the left/right edges of each row
    # and the bottom/top edges of each column
    mesh = build_rectangle_mesh(3, 2, TOP)
    assert mesh.edge_K.tolist() == [0, 0, 1, 1, 2, 3, 4, 0, 2, 3, 5, 0, 3, 1, 4, 2, 5]
    # the top edges are Dirichlet (ghost cell 6), the other boundary edges no-flux (-1)
    assert mesh.edge_L.tolist() == [1, 3, 2, 4, 5, 4, 5] + [-1] * 4 + [-1, 6] * 3
    assert mesh.interior.tolist() == list(range(7))
    assert mesh.dirichlet.tolist() == [12, 14, 16]
    # flux edges: the interior ones, then the top edges with the ghost cell 6
    assert mesh.flux_K.tolist() == [0, 0, 1, 1, 2, 3, 4] + [3, 4, 5]
    assert mesh.flux_L.tolist() == [1, 3, 2, 4, 5, 4, 5] + [6] * 3
    assert mesh.edge_normals.tolist() == [
        [1, 0], [0, 1], [1, 0], [0, 1], [0, 1], [1, 0], [1, 0],
        [-1, 0], [1, 0], [-1, 0], [1, 0],
        [0, -1], [0, 1], [0, -1], [0, 1], [0, -1], [0, 1],
    ]


@pytest.mark.parametrize("build", [
    lambda: build_rectangle_mesh(3, 2, TOP),
    lambda: load_triangle_mesh_file(ACUTE_FIXTURE, lambda x, y: x < 0.3),
], ids=["rectangle-3x2", "acute-patch"])
def test_flux_edges_are_interior_then_dirichlet(build):
    # the contact state is the ghost column n_cells; Neumann edges carry no flux
    mesh = build()
    L = mesh.edge_L
    assert np.count_nonzero(L == -1) > 0
    assert mesh.interior.tolist() == np.flatnonzero((L >= 0) & (L < mesh.n_cells)).tolist()
    assert mesh.dirichlet.tolist() == np.flatnonzero(L == mesh.n_cells).tolist()
    edges = np.concatenate([mesh.interior, mesh.dirichlet])
    assert mesh.flux_K.tolist() == mesh.edge_K[edges].tolist()
    assert mesh.flux_L.tolist() == (
        mesh.edge_L[mesh.interior].tolist() + [mesh.n_cells] * mesh.dirichlet.size
    )
    assert mesh.flux_tau.tolist() == (
        mesh.edge_measures[edges] / mesh.edge_distances[edges]).tolist()
    assert (L[edges] != -1).all()


def test_rectangle_empty_dirichlet_rejected():
    with pytest.raises(MeshError):
        build_rectangle_mesh(3, 3, lambda x, y: False)


def _rectangle_arrays():
    """The constructor arguments of the 3x2 rectangle mesh, as writeable copies."""
    mesh = build_rectangle_mesh(3, 2, TOP)
    names = ("dimension", "cell_centers", "cell_measures", "edge_K", "edge_L", "edge_measures",
             "edge_distances", "edge_center_distances", "edge_normals", "points", "cell_nodes")
    return mesh, {name: np.array(getattr(mesh, name)) for name in names}


# one value of the 3x2 rectangle's arrays changed, and the error Mesh must raise
MESH_DEFECTS = {
    "zero-measure": (lambda mesh, a: np.put(a["cell_measures"], 0, 0.0),
                     TopologyError, "cell 0 has nonpositive measure"),
    "unknown-cell": (lambda mesh, a: np.put(a["edge_L"], 0, mesh.n_cells + 1),
                     TopologyError, "edge 0 references an unknown cell"),
    "zero-distance": (lambda mesh, a: np.put(a["edge_distances"], 0, 0.0),
                      AdmissibilityError, "edge 0 has nonpositive center distance"),
    "shifted-center": (lambda mesh, a: np.add.at(a["cell_centers"], (0, 1), 0.01),
                       AdmissibilityError, "not orthogonal"),
    "kite": (lambda mesh, a: np.multiply.at(a["edge_distances"], mesh.interior, 1.1),
             MeshError, "kite identity"),
    "degenerate": (lambda mesh, a: np.put(a["edge_center_distances"], 0, 0.0),
                   AdmissibilityError, "degenerate"),
    "edge-moment": (lambda mesh, a: np.multiply(a["edge_center_distances"], 1.5,
                                                out=a["edge_center_distances"]),
                    AdmissibilityError, "edge-moment bound"),
}


@pytest.mark.parametrize("defect", list(MESH_DEFECTS))
def test_mesh_rejects_inconsistent_arrays(defect):
    change, error, message = MESH_DEFECTS[defect]
    mesh, arrays = _rectangle_arrays()
    Mesh(**arrays)  # the unchanged arrays build
    change(mesh, arrays)
    with pytest.raises(error, match=message):
        Mesh(**arrays)


def test_dual_cells_partition_domain():
    mesh = build_rectangle_mesh(4, 5, TOP)
    dual_measures = mesh.edge_measures * mesh.edge_distances / 2
    assert dual_measures.sum() == pytest.approx(mesh.total_measure, rel=1e-12)


# -- triangle meshes -------------------------------------------------------------


def equilateral_pair():
    """Rhombus of two unit equilateral triangles sharing a horizontal edge."""
    s3 = math.sqrt(3.0)
    nodes = [(0.0, 0.0), (1.0, 0.0), (0.5, s3 / 2), (0.5, -s3 / 2)]
    return nodes, [(0, 1, 2), (0, 3, 1)]


def test_right_triangles_rejected():
    nodes = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    with pytest.raises(AdmissibilityError) as err:
        load_triangle_mesh(nodes, [(0, 1, 2), (0, 2, 3)], ALL)
    assert "triangle 0" in str(err.value)


def test_equilateral_pair_geometry():
    nodes, tris = equilateral_pair()
    mesh = load_triangle_mesh(nodes, tris, ALL)
    # circumcenter of a unit equilateral triangle sits 1/(2 sqrt(3)) from each edge
    d = 1.0 / (2.0 * math.sqrt(3.0))
    near, far = mesh.edge_center_distances.T
    for dist in np.concatenate([near, far[mesh.interior]]):
        assert dist == pytest.approx(d, rel=1e-12)
    # interior edge: d_sigma = 2 d, hence xi = 1/2 there and 1 on the boundary
    assert mesh.regularity_xi == pytest.approx(0.5, rel=1e-12)
    interior = int(mesh.interior[0])
    assert mesh.edge_distances[interior] == pytest.approx(2.0 * d, rel=1e-12)
    # kite identity: the dual cell m(sigma) d_sigma / 2 is the two triangles
    # of height d over the shared unit edge
    assert mesh.edge_measures[interior] * mesh.edge_distances[interior] / 2.0 == pytest.approx(
        d, rel=1e-12)


def test_triangle_mesh_kite_identity_and_partition():
    mesh = load_triangle_mesh_file(ACUTE_FIXTURE, ALL)
    K, L = mesh.flux_K[: mesh.interior.size], mesh.flux_L[: mesh.interior.size]
    dist = np.linalg.norm(mesh.cell_centers[L] - mesh.cell_centers[K], axis=1)
    md = mesh.edge_measures[mesh.interior] * dist
    dual_measures = mesh.edge_measures * mesh.edge_distances / 2
    assert np.abs(md - 2.0 * dual_measures[mesh.interior]).max() <= 1e-12 * md.max()
    assert dual_measures.sum() == pytest.approx(mesh.total_measure, rel=1e-12)


def test_triangle_mesh_orthogonality_invariant():
    mesh = load_triangle_mesh_file(ACUTE_FIXTURE, ALL)
    K, L = mesh.flux_K[: mesh.interior.size], mesh.flux_L[: mesh.interior.size]
    dx = mesh.cell_centers[L] - mesh.cell_centers[K]
    dist = np.linalg.norm(dx, axis=1)
    normals = mesh.edge_normals[mesh.interior]
    tangents = np.column_stack([-normals[:, 1], normals[:, 0]])
    skew = np.abs(np.einsum("ij,ij->i", dx, tangents))
    assert (skew <= 1e-10 * dist).all()


@pytest.mark.parametrize("nodes, triangles, message", [
    (np.zeros((4, 3)), [(0, 1, 2)], r"nodes must be an \(N, 2\) array"),
    (np.zeros((4, 2)), [(0, 1, 2, 3)], r"triangles must be an \(M, 3\) array"),
], ids=["nodes-3-columns", "triangles-4-columns"])
def test_triangle_arrays_of_the_wrong_shape_rejected(nodes, triangles, message):
    with pytest.raises(TopologyError, match=message):
        load_triangle_mesh(nodes, triangles, ALL)


def test_nonconforming_triangulation_rejected():
    nodes, tris = equilateral_pair()
    with pytest.raises(TopologyError):
        load_triangle_mesh(nodes, tris + [tris[0]], ALL)


def test_acute_fixture_accepted():
    mesh = load_triangle_mesh_file(ACUTE_FIXTURE, ALL)
    assert mesh.regularity_xi > 0.0
    assert validate_regularity(mesh) == mesh.regularity_xi


@pytest.mark.parametrize("build", [
    lambda: build_interval_mesh(6, "left"),
    lambda: build_rectangle_mesh(3, 2, TOP),
    lambda: load_triangle_mesh_file(ACUTE_FIXTURE, ALL),
], ids=["interval", "rectangle", "triangle"])
def test_mesh_arrays_are_read_only(build):
    mesh = build()
    arrays = {name: v for name, v in vars(mesh).items() if isinstance(v, np.ndarray)}
    assert {"cell_centers", "edge_K", "edge_L", "flux_K", "flux_L", "flux_tau"} <= set(arrays)
    for name, array in arrays.items():
        assert not array.flags.writeable, name
    with pytest.raises(ValueError):
        mesh.flux_tau[0] = 1.0


def test_triangle_mesh_leaves_input_arrays_writeable():
    nodes, tris = read_triangle_mesh_file(ACUTE_FIXTURE)
    load_triangle_mesh(nodes, tris, ALL)
    assert nodes.flags.writeable and tris.flags.writeable


def test_mesh_file_round_trip(tmp_path):
    nodes, tris = read_triangle_mesh_file(ACUTE_FIXTURE)
    path = tmp_path / "patch.mesh"
    write_triangle_mesh_file(path, nodes, tris)
    nodes2, tris2 = read_triangle_mesh_file(path)
    assert np.array_equal(nodes, nodes2)
    assert np.array_equal(tris, tris2)


def test_boundary_edges_partition():
    mesh = build_rectangle_mesh(4, 4, TOP)
    boundary = mesh.dirichlet.size + np.count_nonzero(mesh.edge_L == -1)
    assert boundary == 16
    assert mesh.dirichlet.size == 4
    assert mesh.interior.size + boundary == mesh.n_edges


def test_edge_moment_bound_2d():
    mesh = build_rectangle_mesh(6, 4, TOP)
    near, far = mesh.edge_center_distances.T
    acc = (mesh.edge_measures * near).sum() + (mesh.edge_measures * far)[mesh.interior].sum()
    assert acc <= 2.0 * mesh.total_measure + 1e-12
