"""Admissible finite-volume meshes with two-point flux geometry.

Provides structured generators (1D intervals, 2D rectangle lattices) and an
importer for 2D triangulations with circumcenter-based cell centers.  A mesh
is admissible when the segment joining two neighboring cell centers is
orthogonal to their shared edge, which is what makes the two-point flux
consistent.  For triangulations this restricts the triangles to acute ones.

Conventions:
  * a mesh is a struct of flat arrays, one entry per cell or per edge; the
    generators build them directly with index arithmetic,
  * every edge stores one canonical cell ``K`` in ``edge_K`` and its far
    side in ``edge_L``, which is also the edge's kind: the neighbor cell of
    an interior edge, the ghost cell ``n_cells`` of a contact (Dirichlet)
    edge, -1 of a no-flux (Neumann) edge; the normal points from K to L
    (outward on the boundary),
  * 1D edges use the measure convention m(sigma) = 1, so the
    transmissibility reduces to 1/d_sigma.
"""

from __future__ import annotations

import numpy as np

# relative tolerances for the geometric consistency checks
ORTHOGONALITY_RTOL = 1e-10
DUAL_MEASURE_RTOL = 1e-12


class MeshError(Exception):
    """Invalid mesh geometry or configuration."""


class AdmissibilityError(MeshError):
    """Mesh violates the two-point-flux orthogonality requirements."""


class TopologyError(MeshError):
    """Inconsistent mesh connectivity."""


class Mesh:
    """Immutable admissible mesh, stored as flat arrays.

    Per cell: ``cell_centers`` (N, dim) and ``cell_measures``.  Per edge:
    ``edge_K``, ``edge_L``, ``edge_measures`` m(sigma),
    ``edge_distances`` d_sigma (d(x_K, x_L) inside, d(x_K, sigma) on the
    boundary), ``edge_center_distances`` (E, 2) holding d(x_K, sigma) and
    d(x_L, sigma) (0 on the boundary) and ``edge_normals`` (E, dim).
    d_sigma is an input rather than the sum of the two center distances:
    on triangles it is the length of the center segment, and the rounded
    sum can differ from it in the last bit.

    Construction derives the ``interior`` and ``dirichlet`` edge index sets
    and the flux edges ``flux_K``, ``flux_L``, ``flux_tau`` = m(sigma)/d_sigma:
    the interior edges, then the Dirichlet ones, whose ``flux_L`` is the
    ghost column ``n_cells`` holding the contact state (``with_contact``
    appends it, ``jump`` differences across each flux edge).  It validates
    topology and admissibility and makes every array read-only; instances
    are never mutated afterwards.
    """

    def __init__(self, dimension, cell_centers, cell_measures, edge_K, edge_L, edge_measures,
                 edge_distances, edge_center_distances, edge_normals, points=None,
                 cell_nodes=None):
        self.dimension = int(dimension)
        self.points = None if points is None else np.array(points, dtype=float)
        self.cell_nodes = None if cell_nodes is None else np.array(cell_nodes, dtype=np.intp)

        self.cell_measures = np.array(cell_measures, dtype=float)
        self.n_cells = len(self.cell_measures)
        self.cell_centers = np.array(cell_centers, dtype=float).reshape(
            self.n_cells, self.dimension
        )
        self.total_measure = float(self.cell_measures.sum())

        self.edge_K = np.array(edge_K, dtype=np.intp)
        self.edge_L = np.array(edge_L, dtype=np.intp)
        self.n_edges = len(self.edge_K)
        self.edge_measures = np.array(edge_measures, dtype=float)
        self.edge_distances = np.array(edge_distances, dtype=float)
        self.edge_center_distances = np.array(edge_center_distances, dtype=float).reshape(
            self.n_edges, 2
        )
        self.edge_normals = np.array(edge_normals, dtype=float).reshape(
            self.n_edges, self.dimension
        )

        self._check_topology()
        L = self.edge_L
        self.interior = np.flatnonzero((L >= 0) & (L < self.n_cells))
        self.dirichlet = np.flatnonzero(L == self.n_cells)
        if self.dirichlet.size == 0:
            raise MeshError("mesh has no Dirichlet boundary edge (contact boundary required)")
        self._check_geometry()

        flux_edges = np.concatenate([self.interior, self.dirichlet])
        self.flux_K = self.edge_K[flux_edges]
        self.flux_L = self.edge_L[flux_edges]
        self.flux_tau = self.edge_measures[flux_edges] / self.edge_distances[flux_edges]
        self.regularity_xi = validate_regularity(self)

        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    # -- construction-time checks -------------------------------------------------

    def _check_topology(self):
        if self.n_cells < 1:
            raise TopologyError("mesh needs at least one cell")
        if np.any(self.cell_measures <= 0.0):
            bad = int(np.argmin(self.cell_measures))
            raise TopologyError(f"cell {bad} has nonpositive measure")
        K, L, n = self.edge_K, self.edge_L, self.n_cells
        # L = n is the ghost cell of a contact edge, L = -1 a no-flux edge
        unknown = (K < 0) | (K >= n) | (L < -1) | (L > n)
        if np.any(unknown):
            raise TopologyError(f"edge {int(np.argmax(unknown))} references an unknown cell")

    def _check_geometry(self):
        flat = self.edge_distances <= 0.0
        if np.any(flat):
            raise AdmissibilityError(
                f"edge {int(np.argmax(flat))} has nonpositive center distance"
            )
        if self.dimension == 2:
            K = self.edge_K[self.interior]
            L = self.edge_L[self.interior]
            dx = self.cell_centers[L] - self.cell_centers[K]
            dist = np.linalg.norm(dx, axis=1)
            normals = self.edge_normals[self.interior]
            tangents = np.column_stack([-normals[:, 1], normals[:, 0]])
            skew = np.abs(np.einsum("ij,ij->i", dx, tangents))
            bad = skew > ORTHOGONALITY_RTOL * dist
            if np.any(bad):
                eid = int(self.interior[np.argmax(bad)])
                raise AdmissibilityError(
                    f"edge {eid}: center segment not orthogonal to the edge"
                )
            # kite identity m(sigma) d(x_K, x_L) = 2 m(T_sigma) = m(sigma) d_sigma
            md = self.edge_measures[self.interior] * dist
            md_sigma = self.edge_measures[self.interior] * self.edge_distances[self.interior]
            if np.any(np.abs(md - md_sigma) > DUAL_MEASURE_RTOL * np.maximum(md, 1e-300)):
                raise MeshError("interior dual-cell measures violate the kite identity")

    def __repr__(self):
        return (
            f"Mesh(dim={self.dimension}, cells={self.n_cells}, edges={self.n_edges}, "
            f"xi={self.regularity_xi:.3f})"
        )


def with_contact(cell_values, contact_values):
    """Per-cell values with the contact state appended as the ghost column ``n_cells``."""
    return np.concatenate([cell_values, np.expand_dims(contact_values, -1)], axis=-1)


def jump(values, mesh: Mesh):
    """D_sigma of ghost-extended values on every flux edge: far side minus K."""
    return values[..., mesh.flux_L] - values[..., mesh.flux_K]


def validate_regularity(mesh: Mesh) -> float:
    """Smallest ratio d(x_K, sigma) / d_sigma over all cell/edge incidences.

    In 2D additionally asserts the perimeter-vs-area bound
    sum_K sum_{sigma in E_K} m(sigma) d(x_K, sigma) <= 2 m(Omega).
    """
    d = mesh.edge_distances
    near, far = mesh.edge_center_distances.T
    ratios = np.concatenate([near / d, far[mesh.interior] / d[mesh.interior]])
    xi = ratios.min()
    if not np.isfinite(xi) or xi <= 0.0:
        raise AdmissibilityError("degenerate mesh: vanishing center-to-edge distance")
    acc = mesh.edge_measures @ (near + far)
    if mesh.dimension == 2 and acc > 2.0 * mesh.total_measure * (1.0 + 1e-12):
        raise AdmissibilityError("mesh violates the edge-moment bound sum m(sigma) d <= 2 m(Omega)")
    return float(xi)


# -- structured generators ---------------------------------------------------------


def build_interval_mesh(n_cells: int, dirichlet_side: str = "left") -> Mesh:
    """Uniform mesh of (0, 1) with n_cells cells.

    Boundary edges are Dirichlet on the requested side(s) ("left", "right" or
    "both"); the remaining endpoint is a no-flux (Neumann) boundary.  Edge j
    is the left endpoint of cell j.
    """
    if n_cells < 2:
        raise ValueError("interval mesh needs at least 2 cells")
    if dirichlet_side not in ("left", "right", "both"):
        raise ValueError(f"unknown dirichlet_side {dirichlet_side!r}")
    h = 1.0 / n_cells
    cells = np.arange(n_cells)
    left, right = (n_cells if dirichlet_side in ("both", side) else -1
                   for side in ("left", "right"))
    edge_K = np.concatenate([[0], cells])
    edge_L = np.concatenate([[left], cells[1:], [right]])
    distances = np.full(n_cells + 1, h)
    distances[[0, -1]] = h / 2
    center_distances = np.full((n_cells + 1, 2), h / 2)
    center_distances[[0, -1], 1] = 0.0
    normals = np.ones((n_cells + 1, 1))
    normals[0] = -1.0
    return Mesh(1, ((cells + 0.5) * h)[:, None], np.full(n_cells, h), edge_K, edge_L,
                np.ones(n_cells + 1), distances, center_distances, normals)


def _pairs(a, b):
    """Interleave two equally long arrays: a[0], b[0], a[1], b[1], ..."""
    return np.stack([a, b], axis=1).reshape(-1, *np.shape(a)[1:])


def build_rectangle_mesh(nx: int, ny: int, dirichlet_predicate) -> Mesh:
    """Uniform nx x ny rectangle mesh of the unit square.

    ``dirichlet_predicate`` receives the midpoint (x, y) of each boundary edge
    and selects the contact boundary; everything else is a no-flux boundary.

    Cell ``iy * nx + ix`` is the one in column ix and row iy.  Interior edges
    come first, cell by cell: the edge to its right (normal +x), then the
    edge above it (normal +y).  Then come the left and right edges of every
    row, and the bottom and top edges of every column.
    """
    if nx < 2 or ny < 2:
        raise ValueError("rectangle mesh needs nx, ny >= 2")
    hx, hy = 1.0 / nx, 1.0 / ny
    cells = np.arange(nx * ny)
    ix, iy = cells % nx, cells // nx
    rows, cols = np.arange(ny), np.arange(nx)

    present = _pairs(ix < nx - 1, iy < ny - 1)
    vertical = np.tile([True, False], nx * ny)[present]
    inner_K = np.repeat(cells, 2)[present]
    inner_L = inner_K + np.where(vertical, 1, nx)
    inner_measures = np.where(vertical, hy, hx)
    inner_distances = np.where(vertical, hx, hy)
    inner_normals = np.where(vertical[:, None], [1.0, 0.0], [0.0, 1.0])

    x_mid, y_mid = (cols + 0.5) * hx, (rows + 0.5) * hy
    bnd_K = np.concatenate([_pairs(rows * nx, rows * nx + nx - 1),
                            _pairs(cols, (ny - 1) * nx + cols)])
    mid_x = np.concatenate([_pairs(np.zeros(ny), np.ones(ny)), _pairs(x_mid, x_mid)])
    mid_y = np.concatenate([_pairs(y_mid, y_mid), _pairs(np.zeros(nx), np.ones(nx))])
    bnd_L = [nx * ny if dirichlet_predicate(x, y) else -1
             for x, y in zip(mid_x.tolist(), mid_y.tolist())]
    bnd_measures = np.concatenate([np.full(2 * ny, hy), np.full(2 * nx, hx)])
    bnd_distances = np.concatenate([np.full(2 * ny, hx / 2), np.full(2 * nx, hy / 2)])
    bnd_normals = np.concatenate([np.tile([[-1.0, 0.0], [1.0, 0.0]], (ny, 1)),
                                  np.tile([[0.0, -1.0], [0.0, 1.0]], (nx, 1))])

    n_inner = len(inner_K)
    distances = np.concatenate([inner_distances, bnd_distances])
    center_distances = np.column_stack([distances, distances])
    center_distances[:n_inner] /= 2
    center_distances[n_inner:, 1] = 0.0

    # corner grid for the VTK writer; corners run counterclockwise from (ix, iy)
    xs, ys = np.meshgrid(np.linspace(0.0, 1.0, nx + 1), np.linspace(0.0, 1.0, ny + 1))
    corner = iy * (nx + 1) + ix
    return Mesh(
        2,
        np.column_stack([(ix + 0.5) * hx, (iy + 0.5) * hy]),
        np.full(nx * ny, hx * hy),
        np.concatenate([inner_K, bnd_K]),
        np.concatenate([inner_L, bnd_L]),
        np.concatenate([inner_measures, bnd_measures]),
        distances,
        center_distances,
        np.concatenate([inner_normals, bnd_normals]),
        points=np.column_stack([xs.ravel(), ys.ravel()]),
        cell_nodes=np.column_stack([corner, corner + 1, corner + nx + 2, corner + nx + 1]),
    )


# -- triangle meshes ----------------------------------------------------------------


def _circumcenters(a, b, c):
    """Circumcenters of the triangles with corners a, b, c, each (M, 2)."""
    (ax, ay), (bx, by), (cx, cy) = a.T, b.T, c.T
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay)
          + (cx**2 + cy**2) * (ay - by)) / d
    uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx)
          + (cx**2 + cy**2) * (bx - ax)) / d
    return np.column_stack([ux, uy])


def _dot(x, y):
    """Row-wise dot products, rounded as ``x[k] @ y[k]`` rounds them."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _norm(x):
    return np.sqrt(_dot(x, x))


def load_triangle_mesh(nodes, triangles, dirichlet_predicate) -> Mesh:
    """Build an admissible mesh from a conforming triangulation.

    Cell centers are circumcenters, so every triangle must be strictly acute;
    otherwise the center-to-edge distance degenerates and the two-point flux
    loses consistency.  Obtuse or right triangles raise AdmissibilityError
    naming the offending triangle, broken connectivity and non-finite
    coordinates raise TopologyError.  Edges are ordered by their sorted node
    pair.
    """
    nodes = np.asarray(nodes, dtype=float)
    triangles = np.asarray(triangles, dtype=np.intp)
    if nodes.ndim != 2 or nodes.shape[1] != 2:
        raise TopologyError("nodes must be an (N, 2) array")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise TopologyError("triangles must be an (M, 3) array")
    finite = np.isfinite(nodes).all(axis=1)
    if not finite.all():
        raise TopologyError(f"node {int(np.argmin(finite))} has a non-finite coordinate")
    if triangles.size and (triangles.min() < 0 or triangles.max() >= len(nodes)):
        raise TopologyError("triangle references a node that does not exist")

    a, b, c = nodes[triangles[:, 0]], nodes[triangles[:, 1]], nodes[triangles[:, 2]]
    areas = 0.5 * np.abs((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                         - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1]))
    degenerate = areas < 1e-14
    not_acute = np.zeros(len(triangles), dtype=bool)
    for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
        e1, e2 = v - u, w - u
        not_acute |= _dot(e1, e2) <= 1e-12 * _norm(e1) * _norm(e2)
    bad = np.flatnonzero(degenerate | not_acute)
    if bad.size:
        t = int(bad[0])
        if degenerate[t]:
            raise TopologyError(f"triangle {t} is degenerate (zero area)")
        raise AdmissibilityError(f"triangle {t} is not acute (circumcenter not strictly inside)")
    centers = _circumcenters(a, b, c)

    # side map: every triangle side as a sorted node pair, grouped by a stable
    # sort so that each group lists its triangles in index order
    sides = np.sort(triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    owners = np.repeat(np.arange(len(triangles)), 3)
    order = np.lexsort((sides[:, 1], sides[:, 0]))
    sides, owners = sides[order], owners[order]
    starts = np.flatnonzero(np.r_[True, np.any(sides[1:] != sides[:-1], axis=1)][: len(sides)])
    counts = np.diff(np.r_[starts, len(sides)])
    u, v = sides[starts].T
    inner = counts == 2
    K = owners[starts]
    L = np.where(inner, owners[np.minimum(starts + 1, len(owners) - 1)], K)

    pa, pb = nodes[u], nodes[v]
    mid = 0.5 * (pa + pb)
    measures = _norm(pb - pa)
    tangent = (pb - pa) / measures[:, None]
    normals = np.column_stack([tangent[:, 1], -tangent[:, 0]])
    sK = _dot(centers[K] - mid, normals)
    sL = _dot(centers[L] - mid, normals)

    crowded = counts > 2
    same_side = inner & (sK * sL >= 0.0)
    on_edge = (counts == 1) & (np.abs(sK) <= 1e-14)
    bad = np.flatnonzero(crowded | same_side | on_edge)
    if bad.size:
        e = int(bad[0])
        if crowded[e]:
            raise TopologyError(f"edge ({u[e]}, {v[e]}) is shared by more than two triangles")
        if same_side[e]:
            raise AdmissibilityError(
                f"triangles {K[e]} and {L[e]}: circumcenters on the same side of their shared edge"
            )
        raise AdmissibilityError(
            f"triangle {K[e]}: circumcenter lies on boundary edge ({u[e]}, {v[e]})"
        )

    # orient interior normals from K towards L, boundary normals outward
    swap = inner & (sK > 0)
    K, L = np.where(swap, L, K), np.where(swap, K, L)
    sK, sL = np.where(swap, sL, sK), np.where(swap, sK, sL)
    normals = np.where((~inner & (sK > 0))[:, None], -normals, normals)
    center_distances = np.column_stack([np.abs(sK), np.where(inner, np.abs(sL), 0.0)])
    distances = np.where(inner, _norm(centers[L] - centers[K]), np.abs(sK))
    L[~inner] = [len(triangles) if dirichlet_predicate(x, y) else -1
                 for x, y in mid[~inner].tolist()]
    return Mesh(2, centers, areas, K, L, measures, distances, center_distances, normals,
                points=nodes, cell_nodes=triangles)


# -- triangle mesh file format -------------------------------------------------------
#
#   nodes <N> triangles <M>
#   x y          (N lines)
#   i j k        (M lines, 0-based)


def read_triangle_mesh_file(path):
    """Nodes and triangles of a mesh file; malformed content raises TopologyError."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            tokens = fh.read().split()
        except UnicodeDecodeError:
            raise TopologyError(f"{path}: mesh file is not ASCII text") from None
    header = f"{path}: expected header 'nodes <N> triangles <M>'"
    if len(tokens) < 4 or tokens[0] != "nodes" or tokens[2] != "triangles":
        raise TopologyError(header)
    try:
        n, m = int(tokens[1]), int(tokens[3])
    except ValueError:
        raise TopologyError(header) from None
    if n < 0 or m < 0:
        raise TopologyError(header)
    body = tokens[4:]
    if len(body) != 2 * n + 3 * m:
        raise TopologyError(f"{path}: truncated mesh file")
    try:
        nodes = np.array(body[: 2 * n], dtype=float).reshape(n, 2)
    except ValueError:
        raise TopologyError(f"{path}: node coordinates must be numbers") from None
    try:
        triangles = np.array(body[2 * n :], dtype=np.intp).reshape(m, 3)
    except ValueError:
        raise TopologyError(f"{path}: triangle node indices must be integers") from None
    return nodes, triangles


def write_triangle_mesh_file(path, nodes, triangles):
    nodes = np.asarray(nodes, dtype=float)
    triangles = np.asarray(triangles, dtype=np.intp)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"nodes {len(nodes)} triangles {len(triangles)}\n")
        for x, y in nodes:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        for i, j, k in triangles:
            fh.write(f"{int(i)} {int(j)} {int(k)}\n")


def load_triangle_mesh_file(path, dirichlet_predicate) -> Mesh:
    nodes, triangles = read_triangle_mesh_file(path)
    return load_triangle_mesh(nodes, triangles, dirichlet_predicate)
