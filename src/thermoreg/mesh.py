"""Structured triangulations of the rectangular room.

The room is the unit square with an inlet on the left edge and an outlet
on the right edge.  Meshes carry two nodal layouts at once: the quadratic
(P2) grid with ``n`` nodes per direction and the linear (P1) vertex
subgrid with ``(n+1)/2`` nodes per direction.  Every grid cell is cut
along the same diagonal, so node orderings and connectivity are fully
deterministic functions of ``n``.
"""

import dataclasses
import functools
import numbers
from dataclasses import dataclass

import numpy as np

# Node/edge tags.
INTERIOR = 0
INLET = 1
OUTLET = 2
WALL = 3

# Tolerance for "strictly inside a boundary segment"; grid spacings are
# >= 1/80 in practice so this cleanly separates endpoint hits.
_SEG_EPS = 1e-12

# Largest block that nested_dissection_order numbers without bisecting it;
# 16 gave the fastest Taylor-Hood saddle factorization at n = 41..81.
ND_LEAF_NODES = 16


@dataclass(frozen=True)
class BoundarySegment:
    """Axis-aligned segment on the unit-square boundary.

    ``side`` is one of ``left``, ``right``, ``bottom``, ``top``; ``lo`` and
    ``hi`` bound the coordinate that varies along that side.
    """

    side: str
    lo: float
    hi: float

    def __post_init__(self):
        if self.side not in ("left", "right", "bottom", "top"):
            raise ValueError(f"unknown side {self.side!r}")
        if not (0.0 <= self.lo < self.hi <= 1.0):
            raise ValueError(f"segment [{self.lo}, {self.hi}] must have positive length inside [0, 1]")


@dataclass(frozen=True)
class Geometry:
    """Unit-square room with inlet and outlet boundary segments.

    Defaults follow the reference configuration: inlet on the left edge
    over 0.1 <= y <= 0.4, outlet on the right edge over 0.5 <= y <= 0.9.
    """

    inlet: BoundarySegment = BoundarySegment("left", 0.1, 0.4)
    outlet: BoundarySegment = BoundarySegment("right", 0.5, 0.9)

    def __post_init__(self):
        if self.inlet.side == self.outlet.side:
            no_overlap = self.inlet.hi <= self.outlet.lo or self.outlet.hi <= self.inlet.lo
            if not no_overlap:
                raise ValueError("inlet and outlet segments must be disjoint")


@dataclass(frozen=True)
class Mesh:
    """Structured right-triangle mesh with P1/P2 nodal layouts.

    Attributes
    ----------
    n : int
        P2 nodes per direction; the vertex grid has ``(n+1)/2`` per direction.
    p2_nodes, p1_nodes : (N, 2) float arrays
        Node coordinates, row-major by (y, x).
    triangles : (ntri, 6) int array
        P2 connectivity per triangle: three vertices followed by the
        midpoints of the opposite edges (m0 opposite v0, etc.).
    tri_p1 : (ntri, 3) int array
        Vertex connectivity in P1 numbering (same triangle order).
    boundary_edges : (nbe, 3) int array
        P2 node triples (vertex, midpoint, vertex) along the boundary.
    edge_tags : (nbe,) int array
        INLET/OUTLET/WALL per boundary edge.
    node_tags : (n*n,) int array
        INTERIOR for interior nodes, else INLET/OUTLET/WALL.
    """

    n: int
    p2_nodes: np.ndarray
    p1_nodes: np.ndarray
    triangles: np.ndarray
    tri_p1: np.ndarray
    boundary_edges: np.ndarray
    edge_tags: np.ndarray
    node_tags: np.ndarray

    @property
    def num_p2(self):
        return self.p2_nodes.shape[0]

    @property
    def num_p1(self):
        return self.p1_nodes.shape[0]

    @functools.cached_property
    def p2_couplings(self):
        """CSR pattern of the P2 node pairs that share a triangle, computed once.

        Returns ``(indptr, indices, slot)``: row ``i`` holds the sorted
        columns ``indices[indptr[i]:indptr[i + 1]]``, and ``slot[e, a, b]``
        (int32) is the position in ``indices`` of the pair
        ``(triangles[e, a], triangles[e, b])``.  Every P2 element matrix
        assembles onto this pattern.
        """
        np2 = self.num_p2
        tri = self.triangles
        keys = (tri[:, :, None] * np2 + tri[:, None, :]).ravel()
        pairs, slot = np.unique(keys, return_inverse=True)
        indptr = np.zeros(np2 + 1, dtype=np.int32)
        np.cumsum(np.bincount(pairs // np2, minlength=np2), out=indptr[1:])
        indices = (pairs % np2).astype(np.int32)
        return indptr, indices, slot.astype(np.int32).reshape(tri.shape[0], 6, 6)


def build_structured_mesh(geometry, n):
    """Triangulate the unit square with ``n`` P2 nodes per direction.

    ``n`` must be an odd integer >= 5 so that the P2 grid contains the
    vertex grid.  Every cell of the ``(n-1)/2 x (n-1)/2`` vertex grid is
    split along its bottom-left to top-right diagonal.  Returns a mesh
    with boundary nodes and edges already classified against ``geometry``.
    """
    if not isinstance(n, numbers.Integral) or n < 5 or n % 2 == 0:
        raise ValueError(f"n must be an odd integer >= 5, got {n!r}")

    m = (n + 1) // 2  # vertices per direction
    coords_1d = np.linspace(0.0, 1.0, n)
    xg, yg = np.meshgrid(coords_1d, coords_1d, indexing="xy")
    p2_nodes = np.column_stack([xg.ravel(), yg.ravel()])  # id = iy*n + ix

    coords_p1 = np.linspace(0.0, 1.0, m)
    xg1, yg1 = np.meshgrid(coords_p1, coords_p1, indexing="xy")
    p1_nodes = np.column_stack([xg1.ravel(), yg1.ravel()])

    def p2_id(ix, iy):
        return iy * n + ix

    def p1_id(ix, iy):
        # P2 grid coordinates of a vertex are even.
        return (iy // 2) * m + ix // 2

    ncell = m - 1
    triangles = np.empty((2 * ncell * ncell, 6), dtype=np.int64)
    tri_p1 = np.empty((2 * ncell * ncell, 3), dtype=np.int64)
    k = 0
    for j in range(ncell):
        for i in range(ncell):
            x0, y0 = 2 * i, 2 * j  # P2 grid coords of the cell's lower-left vertex
            v00 = (x0, y0)
            v10 = (x0 + 2, y0)
            v11 = (x0 + 2, y0 + 2)
            v01 = (x0, y0 + 2)
            # Lower triangle (v00, v10, v11), midpoints opposite each vertex.
            vs = (v00, v10, v11)
            ms = ((x0 + 2, y0 + 1), (x0 + 1, y0 + 1), (x0 + 1, y0))
            triangles[k] = [p2_id(*p) for p in vs + ms]
            tri_p1[k] = [p1_id(*p) for p in vs]
            k += 1
            # Upper triangle (v00, v11, v01).
            vs = (v00, v11, v01)
            ms = ((x0 + 1, y0 + 2), (x0, y0 + 1), (x0 + 1, y0 + 1))
            triangles[k] = [p2_id(*p) for p in vs + ms]
            tri_p1[k] = [p1_id(*p) for p in vs]
            k += 1

    boundary_edges = _boundary_edges(n)

    mesh = Mesh(
        n=n,
        p2_nodes=p2_nodes,
        p1_nodes=p1_nodes,
        triangles=triangles,
        tri_p1=tri_p1,
        boundary_edges=boundary_edges,
        edge_tags=np.full(boundary_edges.shape[0], WALL, dtype=np.int8),
        node_tags=np.zeros(n * n, dtype=np.int8),
    )
    return classify_boundary(mesh, geometry)


def _boundary_edges(n):
    """P2 node triples (vertex, midpoint, vertex) along the four sides.

    Sides are walked bottom, right, top, left; within a side edges run in
    increasing coordinate order, which keeps the enumeration deterministic.
    """
    edges = []
    last = n - 1
    for k in range(0, last, 2):  # bottom (y=0) and top (y=1)
        edges.append((k, k + 1, k + 2))
    for k in range(0, last, 2):  # right (x=1)
        edges.append((k * n + last, (k + 1) * n + last, (k + 2) * n + last))
    for k in range(0, last, 2):  # top
        edges.append((last * n + k, last * n + k + 1, last * n + k + 2))
    for k in range(0, last, 2):  # left (x=0)
        edges.append((k * n, (k + 1) * n, (k + 2) * n))
    return np.array(edges, dtype=np.int64)


def _side_of(x, y):
    if x == 0.0:
        return "left"
    if x == 1.0:
        return "right"
    if y == 0.0:
        return "bottom"
    if y == 1.0:
        return "top"
    return None


def classify_boundary(mesh, geometry):
    """Tag boundary nodes and edges as inlet, outlet, or wall.

    A node is tagged inlet/outlet only if it lies strictly inside the
    respective segment; segment endpoints are walls.  A boundary edge is
    tagged by its midpoint, so an edge whose closure lies in the segment
    belongs to it.  Returns a new mesh with tags filled.
    """
    nodes = mesh.p2_nodes
    node_tags = np.zeros(mesh.num_p2, dtype=np.int8)

    n = mesh.n
    ij = np.arange(mesh.num_p2)
    on_boundary = (ij % n == 0) | (ij % n == n - 1) | (ij < n) | (ij >= n * (n - 1))

    def segment_tag(x, y):
        side = _side_of(x, y)
        along = y if side in ("left", "right") else x
        for seg, tag in ((geometry.inlet, INLET), (geometry.outlet, OUTLET)):
            if side == seg.side and seg.lo + _SEG_EPS < along < seg.hi - _SEG_EPS:
                return tag
        return WALL

    for i in np.flatnonzero(on_boundary):
        node_tags[i] = segment_tag(nodes[i, 0], nodes[i, 1])

    edge_tags = np.empty(mesh.boundary_edges.shape[0], dtype=np.int8)
    for e, (_, mid, _) in enumerate(mesh.boundary_edges):
        edge_tags[e] = segment_tag(nodes[mid, 0], nodes[mid, 1])

    return dataclasses.replace(mesh, node_tags=node_tags, edge_tags=edge_tags)


def nested_dissection_order(n):
    """P2 node ids of the ``n x n`` grid in nested-dissection order.

    The grid is bisected recursively across its longer side on the even
    (vertex) grid line nearest the middle; no triangle has nodes on both
    sides of such a line, so the two halves do not couple.  Each half is
    numbered first, then the separator (George, SIAM J. Numer. Anal. 1973).
    Blocks of at most ``ND_LEAF_NODES`` nodes, or with no even line inside,
    are numbered row by row.  Returns a permutation of ``range(n * n)``.
    """
    parts = []

    def visit(x0, x1, y0, y1):  # half-open node ranges
        if (x1 - x0) * (y1 - y0) > ND_LEAF_NODES:
            axes = ((x0, x1, True), (y0, y1, False))
            if x1 - x0 < y1 - y0:
                axes = axes[::-1]
            for lo, hi, vertical in axes:
                # Even lines with nodes on both sides inside [lo, hi).
                lines = np.arange(lo + 1 + (lo + 1) % 2, hi - 1, 2)
                if lines.size:
                    s = int(lines[np.argmin(np.abs(lines - (lo + hi) // 2))])
                    if vertical:
                        visit(x0, s, y0, y1)
                        visit(s + 1, x1, y0, y1)
                        parts.append(np.arange(y0, y1) * n + s)
                    else:
                        visit(x0, x1, y0, s)
                        visit(x0, x1, s + 1, y1)
                        parts.append(s * n + np.arange(x0, x1))
                    return
        parts.append((np.arange(y0, y1)[:, None] * n + np.arange(x0, x1)).ravel())

    visit(0, n, 0, n)
    return np.concatenate(parts)

