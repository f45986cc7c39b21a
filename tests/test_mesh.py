import numpy as np
import pytest

from thermoreg.fem import element_jacobians
from thermoreg.mesh import (
    INLET,
    OUTLET,
    WALL,
    Geometry,
    build_structured_mesh,
    nested_dissection_order,
)


def test_node_counts_and_spacing(geometry):
    mesh = build_structured_mesh(geometry, 81)
    assert mesh.num_p2 == 6561
    assert np.allclose(np.diff(np.unique(mesh.p2_nodes[:, 0])), 0.0125, rtol=0, atol=1e-15)
    assert build_structured_mesh(geometry, 41).num_p2 == 1681


def test_smallest_mesh_counts(mesh5):
    assert mesh5.num_p2 == 25
    assert mesh5.num_p1 == 9
    assert mesh5.triangles.shape[0] == 8
    # Cells run row by row, each as its lower then its upper triangle, both
    # starting at the cell's lower-left vertex.
    assert mesh5.triangles[[0, 1, -1]].tolist() == [[0, 2, 12, 7, 6, 1], [0, 12, 10, 11, 5, 6], [12, 24, 22, 23, 17, 18]]


@pytest.mark.parametrize("n", [4, 3, 6, 80, 21.5, 21.0, "21"])
def test_invalid_n_rejected(geometry, n):
    with pytest.raises(ValueError):
        build_structured_mesh(geometry, n)


def test_numpy_integer_n_accepted(geometry):
    assert build_structured_mesh(geometry, np.int64(21)).num_p2 == 441


@pytest.mark.parametrize("n", [5, 11, 21, 41])
def test_areas_sum_to_domain(geometry, n):
    mesh = build_structured_mesh(geometry, n)
    areas = 0.5 * element_jacobians(mesh)[0]  # det J is twice the signed area
    assert np.all(areas > 0)
    assert abs(areas.sum() - 1.0) < 1e-12


def test_edge_sharing(mesh11):
    # Interior vertex edges shared by exactly two triangles, boundary by one.
    counts = {}
    for tri in mesh11.tri_p1:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            key = tuple(sorted((tri[a], tri[b])))
            counts[key] = counts.get(key, 0) + 1
    assert set(counts.values()) <= {1, 2}
    n_boundary = sum(1 for v in counts.values() if v == 1)
    # 4 sides x (m-1) cells per side
    m = (mesh11.n + 1) // 2
    assert n_boundary == 4 * (m - 1)


def test_boundary_tag_counts(geometry):
    mesh = build_structured_mesh(geometry, 81)
    tags = mesh.node_tags
    assert np.sum(tags == WALL) == 266
    assert np.sum((tags == INLET) | (tags == OUTLET)) == 54


def test_half_open_endpoint_convention(geometry):
    mesh = build_structured_mesh(geometry, 81)

    def tag_at(x, y):
        idx = np.argmin(np.sum((mesh.p2_nodes - [x, y]) ** 2, axis=1))
        assert np.allclose(mesh.p2_nodes[idx], [x, y], atol=1e-12)
        return mesh.node_tags[idx]

    assert tag_at(0.0, 0.25) == INLET
    assert tag_at(1.0, 0.5) == WALL  # outlet endpoint
    assert tag_at(0.0, 0.1) == WALL  # inlet endpoint
    assert tag_at(1.0, 0.7) == OUTLET
    assert tag_at(0.5, 0.0) == WALL


def test_inlet_edges_cover_inlet_range(geometry, mesh41):
    # Inlet edges, selected by their midpoint's tag, cover exactly [0.1, 0.4]
    # on the left side: total length 0.3.
    sel = mesh41.node_tags[mesh41.boundary_edges[:, 1]] == INLET
    pa = mesh41.p2_nodes[mesh41.boundary_edges[sel, 0]]
    pb = mesh41.p2_nodes[mesh41.boundary_edges[sel, 2]]
    lengths = np.linalg.norm(pb - pa, axis=1)
    assert abs(lengths.sum() - 0.3) < 1e-12
    ys = np.concatenate([pa[:, 1], pb[:, 1]])
    assert ys.min() == pytest.approx(0.1, abs=1e-12)
    assert ys.max() == pytest.approx(0.4, abs=1e-12)


def test_determinism(geometry):
    m1 = build_structured_mesh(geometry, 21)
    m2 = build_structured_mesh(geometry, 21)
    assert np.array_equal(m1.p2_nodes, m2.p2_nodes)
    assert np.array_equal(m1.triangles, m2.triangles)
    assert np.array_equal(m1.node_tags, m2.node_tags)


def test_every_boundary_node_tagged(mesh21):
    coords = mesh21.p2_nodes
    on_b = (
        (coords[:, 0] == 0.0) | (coords[:, 0] == 1.0) | (coords[:, 1] == 0.0) | (coords[:, 1] == 1.0)
    )
    assert np.all(mesh21.node_tags[on_b] != 0)
    assert np.all(mesh21.node_tags[~on_b] == 0)


@pytest.mark.parametrize("n", [5, 11, 41])
def test_local_numbering_by_geometry(geometry, n):
    mesh = build_structured_mesh(geometry, n)
    # Node 3+i of a triangle is the midpoint of the edge opposite vertex i.
    pts = mesh.p2_nodes[mesh.triangles]
    for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        assert np.allclose(pts[:, 3 + i], 0.5 * (pts[:, j] + pts[:, k]), rtol=0, atol=1e-15)
    assert np.array_equal(mesh.p1_nodes[mesh.tri_p1], pts[:, :3])
    # Boundary edges: middle node at the midpoint, sides walked bottom,
    # right, top, left, each in increasing coordinate.
    ends = mesh.p2_nodes[mesh.boundary_edges]
    assert np.allclose(ends[:, 1], 0.5 * (ends[:, 0] + ends[:, 2]), rtol=0, atol=1e-15)
    s = np.linspace(0.0, 1.0, (n + 1) // 2)
    for end, along in ((0, s[:-1]), (2, s[1:])):
        zero, one = np.zeros_like(along), np.ones_like(along)
        sides = [(along, zero), (one, along), (along, one), (zero, along)]
        assert np.allclose(ends[:, end], np.concatenate([np.column_stack(c) for c in sides]), rtol=0, atol=1e-15)


@pytest.mark.parametrize("side", ["inlet", "outlet"])
def test_geometry_takes_no_ranges(side):
    # The openings are constants: the inlet velocity feeds no other inlet.
    with pytest.raises(TypeError):
        Geometry(**{side: (0.5, 0.9)})


@pytest.mark.parametrize("n", [1, 3, 5, 11, 21, 41])
def test_nested_dissection_order_is_permutation(n):
    # n <= 3 is one leaf: the grid is numbered row by row.
    order = nested_dissection_order(n)
    assert np.array_equal(np.sort(order), np.arange(n * n))
    if n * n <= 16:
        assert np.array_equal(order, np.arange(n * n))


def test_nested_dissection_top_separator_is_middle_vertex_line():
    # At n=41 the first cut is the vertical line x = 20: its nodes come last,
    # after every node left of it and then every node right of it.
    n = 41
    order = nested_dissection_order(n)
    ix = order % n
    assert np.array_equal(order[-n:], np.arange(n) * n + 20)
    half = (n * n - n) // 2
    assert np.all(ix[:half] < 20) and np.all(ix[half:-n] > 20)


def test_p2_couplings_are_the_triangle_node_pairs(mesh11):
    indptr, indices, slot = mesh11.p2_couplings
    tri = mesh11.triangles
    np2 = mesh11.num_p2
    rows = np.repeat(np.arange(np2), np.diff(indptr))
    pairs = set(zip(np.repeat(tri, 6, axis=1).ravel().tolist(), np.tile(tri, (1, 6)).ravel().tolist()))
    assert sorted(pairs) == list(zip(rows.tolist(), indices.tolist()))
    assert slot.dtype == np.int32 and slot.shape == (tri.shape[0], 6, 6)
    assert np.array_equal(rows[slot], np.broadcast_to(tri[:, :, None], slot.shape))
    assert np.array_equal(indices[slot], np.broadcast_to(tri[:, None, :], slot.shape))
    assert mesh11.p2_couplings is mesh11.p2_couplings
