import dataclasses

import numpy as np
import pytest
import sympy

from thermoreg import fem
from thermoreg.mesh import INLET, INTERIOR, OUTLET, WALL, build_structured_mesh


# ---------------------------------------------------------------------------
# Quadrature

def _rule_degree6():
    """12-point rule exact to degree 6 (Dunavant); the measuring instrument of the L2 error test."""
    g1 = (0.873821971016996, 0.063089014491502, 0.050844906370207 / 2.0)
    g2 = (0.501426509658179, 0.249286745170910, 0.116786275726379 / 2.0)
    a3, b3 = 0.053145049844816, 0.310352451033785
    c3 = 1.0 - a3 - b3
    w3 = 0.082851075618374 / 2.0
    pts, wts = [], []
    for (a, b, w) in (g1, g2):
        pts += [[a, b, b], [b, a, b], [b, b, a]]
        wts += [w, w, w]
    for p in ((a3, b3, c3), (a3, c3, b3), (b3, a3, c3), (b3, c3, a3), (c3, a3, b3), (c3, b3, a3)):
        pts.append(list(p))
        wts.append(w3)
    return np.array(pts), np.array(wts)


@pytest.mark.parametrize("degree", [5, 6])
def test_quadrature_exact_for_monomials(degree):
    points, weights = fem.triangle_rule() if degree == 5 else _rule_degree6()
    assert np.all(weights > 0)
    assert abs(weights.sum() - 0.5) < 1e-14
    # Reference-triangle integral of x^a y^b is a! b! / (a + b + 2)!.
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            x = points[:, 1]
            y = points[:, 2]
            approx = np.sum(weights * x**a * y**b)
            import math

            exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            assert abs(approx - exact) < 1e-14, (a, b)


def test_edge_rule_exactness():
    t, w = fem.edge_rule()
    for k in range(6):
        assert abs(np.sum(w * t**k) - 1.0 / (k + 1)) < 1e-14


# ---------------------------------------------------------------------------
# Element-level oracles (symbolic integration over the reference triangle)

def _sympy_reference_integrals():
    x, y = sympy.symbols("x y")
    lam = [1 - x - y, x, y]
    mass = sympy.zeros(3, 3)
    stiff = sympy.zeros(3, 3)
    grads = [(-1, -1), (1, 0), (0, 1)]
    for i in range(3):
        for j in range(3):
            mass[i, j] = sympy.integrate(lam[i] * lam[j], (y, 0, 1 - x), (x, 0, 1))
            stiff[i, j] = sympy.Rational(1, 2) * (grads[i][0] * grads[j][0] + grads[i][1] * grads[j][1])
    return mass, stiff


def test_p1_element_matrices_match_symbolic_oracle():
    mass_sym, stiff_sym = _sympy_reference_integrals()
    # Reference triangle has area 1/2; scale mass to a unit-area triangle.
    mass_unit_area = np.array(mass_sym, dtype=float) * 2.0
    assert np.allclose(mass_unit_area, np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 12.0, atol=1e-15)
    assert np.allclose(np.array(stiff_sym, dtype=float), 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]]), atol=1e-15)
    # The quadrature pipeline reproduces the symbolic values on the reference element.
    points, weights = fem.triangle_rule()
    basis = points  # the P1 functions are the barycentric coordinates
    mass_quad = np.einsum("q,qi,qj->ij", weights, basis, basis)
    assert np.allclose(mass_quad, np.array(mass_sym, dtype=float), atol=1e-15)


def test_p2_basis_is_interpolatory():
    # Basis evaluated at its own nodes is the identity.
    nodes = np.array(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]], dtype=float
    )
    assert np.allclose(fem.p2_basis(nodes), np.eye(6), atol=1e-15)


# ---------------------------------------------------------------------------
# Global assembly

def test_mass_partition_of_unity(mesh21):
    m = fem.assemble_mass(mesh21)
    ones = np.ones(mesh21.num_p2)
    assert abs(ones @ m @ ones - 1.0) < 1e-12


def test_mass_row_sums_are_basis_integrals(mesh11):
    # Row sums of M equal integral(phi_i) by partition of unity.
    m = fem.assemble_mass(mesh11)
    points, weights = fem.triangle_rule()
    basis = fem.p2_basis(points)
    det, _ = fem.element_jacobians(mesh11)
    local = np.einsum("q,qi,e->ei", weights, basis, det)
    integrals = np.zeros(mesh11.num_p2)
    np.add.at(integrals, mesh11.triangles.ravel(), local.ravel())
    assert np.allclose(np.asarray(m.sum(axis=1)).ravel(), integrals, atol=1e-14)


def test_mass_spd(mesh11):
    m = fem.assemble_mass(mesh11).toarray()
    assert np.allclose(m, m.T, atol=1e-15)
    assert np.linalg.eigvalsh(m).min() > 0


def test_stiffness_kernel_constants(mesh21):
    k = fem.assemble_stiffness(mesh21)
    assert np.max(np.abs(k @ np.ones(mesh21.num_p2))) < 1e-13


@pytest.mark.parametrize("n", [11, 21, 41])
def test_precontracted_stiffness_and_divergence_match_quadrature(geometry, n):
    # Direct quadrature at the physical points, scattered without dropping
    # anything but exact zeros.
    mesh = build_structured_mesh(geometry, n)
    det, _ = fem.element_jacobians(mesh)
    points, weights = fem.triangle_rule()
    grads = fem.physical_grads(mesh, points)
    local = np.einsum("q,eqid,eqjd,e->eij", weights, grads, grads, det)
    refs = [fem._scatter(local, mesh.triangles, mesh.triangles, (mesh.num_p2, mesh.num_p2))]
    for c in range(2):
        local = np.einsum("q,qa,eqj,e->eaj", weights, points, grads[:, :, :, c], det)
        refs.append(fem._scatter(local, mesh.tri_p1, mesh.triangles, (mesh.num_p1, mesh.num_p2)))
    for mat, ref in zip([fem.assemble_stiffness(mesh), *fem.assemble_divergence(mesh)], refs):
        scale = np.abs(ref.data).max()
        assert np.abs((mat - ref).toarray()).max() <= 1e-13 * scale
        # The reference's pattern, less the rounding residue of couplings
        # that vanish in exact arithmetic; every nonzero entry is a true one.
        # The stiffness stores those couplings as exact zeros.
        ref.data[np.abs(ref.data) <= 1e-13 * scale] = 0.0
        ref.eliminate_zeros()
        mat = mat.copy()
        mat.eliminate_zeros()
        assert np.array_equal(mat.indptr, ref.indptr) and np.array_equal(mat.indices, ref.indices)
        assert np.abs(mat.data).min() >= 1e-2 * scale


def test_dirichlet_energy_of_manufactured_solution(geometry):
    # theta = sin(pi x) sin(pi y) has Dirichlet energy pi^2 / 2; the nodal
    # interpolant's discrete energy converges at O(h^2).
    errs = []
    for n in (11, 21, 41):
        mesh = build_structured_mesh(geometry, n)
        k = fem.assemble_stiffness(mesh)
        theta = np.sin(np.pi * mesh.p2_nodes[:, 0]) * np.sin(np.pi * mesh.p2_nodes[:, 1])
        errs.append(abs(theta @ k @ theta - np.pi**2 / 2.0))
    assert errs[0] < 0.05
    # Order check between successive refinements (h halves).
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_advection_zero_velocity(mesh11):
    n = fem.assemble_advection(mesh11, np.zeros((mesh11.num_p2, 2)))
    assert not np.any(n.data)


def test_advection_constant_velocity_linear_field(mesh11):
    # v = (1, 0), theta = x: (N theta)_i = integral(phi_i) = (M 1)_i exactly.
    vel = np.zeros((mesh11.num_p2, 2))
    vel[:, 0] = 1.0
    n = fem.assemble_advection(mesh11, vel)
    theta = mesh11.p2_nodes[:, 0].copy()
    m = fem.assemble_mass(mesh11)
    assert np.allclose(n @ theta, m @ np.ones(mesh11.num_p2), atol=1e-14)


def test_advection_dimension_mismatch(mesh11):
    with pytest.raises(ValueError):
        fem.assemble_advection(mesh11, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        fem.assemble_convection(mesh11, np.zeros((3, 2)))


def test_precontracted_convection_matches_quadrature(mesh11, rng):
    # Direct degree-5 quadrature of N(v) and G_cd(v) at the physical points.
    vel = rng.standard_normal((mesh11.num_p2, 2))
    points, weights = fem.triangle_rule()
    phi = fem.p2_basis(points)
    grads = fem.physical_grads(mesh11, points)
    det, _ = fem.element_jacobians(mesh11)
    tri = mesh11.triangles
    shape = (mesh11.num_p2, mesh11.num_p2)
    vq = np.einsum("eid,qi->eqd", vel[tri], phi)
    local = np.einsum("q,qi,eqd,eqjd,e->eij", weights, phi, vq, grads, det)
    n_ref = fem._scatter(local, tri, tri, shape).toarray()
    n, g = fem.assemble_convection(mesh11, vel)
    scale = np.abs(n_ref).max()
    assert np.abs(n.toarray() - n_ref).max() <= 1e-13 * scale
    assert np.abs(fem.assemble_advection(mesh11, vel).toarray() - n_ref).max() <= 1e-13 * scale
    for c in range(2):
        dv = np.einsum("ei,eqid->eqd", vel[tri, c], grads)
        for d in range(2):
            local = np.einsum("q,qi,qj,eq,e->eij", weights, phi, phi, dv[:, :, d], det)
            g_ref = fem._scatter(local, tri, tri, shape).toarray()
            assert np.abs(g[c, d].toarray() - g_ref).max() <= 1e-13 * np.abs(g_ref).max()


def test_convection_blocks_share_the_p2_coupling_pattern(mesh11, rng):
    # Every P2 x P2 matrix lies on the couplings, which lets the flow's
    # Jacobian gather their data arrays without sampling.
    indptr, indices, _ = mesh11.p2_couplings
    vel = rng.standard_normal((mesh11.num_p2, 2))
    n, g = fem.assemble_convection(mesh11, vel)
    adv = fem.assemble_advection(mesh11, vel)
    for mat in (fem.assemble_mass(mesh11), fem.assemble_stiffness(mesh11), adv, n, *g.values()):
        assert np.array_equal(mat.indptr, indptr) and np.array_equal(mat.indices, indices)
        assert mat.indices is not indices  # a caller may edit its matrix in place
    assert np.array_equal(adv.data, n.data)


# ---------------------------------------------------------------------------
# Loads

def test_domain_load_c1_total(mesh41):
    c1 = fem.ShapeSpec("indicator-rectangle", bounds=(0.7, 0.9, 0.1, 0.3), amplitude=0.2**-2)
    load = fem.assemble_load_domain(mesh41, c1)
    assert abs(load.sum() - 1.0) < 1e-10


def test_domain_load_control_shape_total(mesh41):
    b = fem.ShapeSpec("indicator-rectangle", bounds=(0.0, 0.05, 0.1, 0.4))
    load = fem.assemble_load_domain(mesh41, b)
    assert abs(load.sum() - 0.015) < 1e-12


def test_domain_load_outside_support_warns(mesh11):
    shape = fem.ShapeSpec("indicator-rectangle", bounds=(2.0, 3.0, 2.0, 3.0))
    with pytest.warns(UserWarning):
        load = fem.assemble_load_domain(mesh11, shape)
    assert not np.any(load)


def test_boundary_load_inlet_length(mesh41):
    bd = fem.ShapeSpec("boundary-indicator")
    load = fem.assemble_load_boundary(mesh41, INLET, bd)
    assert abs(load.sum() - 0.3) < 1e-12
    out = fem.assemble_load_boundary(mesh41, OUTLET, bd)
    assert abs(out.sum() - 0.4) < 1e-12


def test_boundary_load_zero_shape(mesh11):
    bd = fem.ShapeSpec("boundary-indicator", amplitude=0.0)
    load = fem.assemble_load_boundary(mesh11, INLET, bd)
    assert not np.any(load)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "boundary-indicator", "amplitude": np.nan},
        {"kind": "indicator-rectangle", "bounds": (0.7, 0.9, 0.1, 0.3), "amplitude": np.inf},
        {"kind": "indicator-rectangle", "bounds": (0.7, np.nan, 0.1, 0.3)},
        {"kind": "indicator-rectangle", "bounds": (-np.inf, 0.9, 0.1, 0.3)},
        {"kind": "indicator-rectangle", "bounds": (0.9, 0.7, 0.1, 0.3)},
        {"kind": "indicator-rectangle", "bounds": (0.7, 0.7, 0.1, 0.3)},
        {"kind": "indicator-rectangle", "bounds": (0.7, 0.9, 0.3, 0.1)},
        {"kind": "indicator-rectangle", "bounds": (0.7, 0.9, 0.2, 0.2)},
        {"kind": "boundary-indicator", "bounds": (0.0, 1.0, 0.0, 1.0)},
    ],
    ids=[
        "nan-amplitude", "inf-amplitude", "nan-bound", "inf-bound", "x-reversed", "x-empty", "y-reversed", "y-empty",
        "boundary-bounds",
    ],
)
def test_shape_spec_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        fem.ShapeSpec(**kwargs)


def test_boundary_edges_take_their_midpoint_node_tag(mesh11):
    # The node tags are the one source of boundary tags: with every boundary
    # node a wall, no edge is left on the inlet.
    walls = np.where(mesh11.node_tags != INTERIOR, WALL, INTERIOR).astype(np.int8)
    mesh = dataclasses.replace(mesh11, node_tags=walls)
    with pytest.raises(ValueError):
        fem.assemble_load_boundary(mesh, INLET, fem.ShapeSpec("boundary-indicator"))


def test_boundary_load_unknown_tag(mesh11):
    with pytest.raises(ValueError):
        fem.assemble_load_boundary(mesh11, 77, fem.ShapeSpec("boundary-indicator"))


# ---------------------------------------------------------------------------
# Dirichlet reduction: the plant keeps the nodes off the walls

def test_reduction_dimensions(geometry):
    mesh81 = build_structured_mesh(geometry, 81)
    assert 6293 <= np.count_nonzero(mesh81.node_tags != WALL) <= 6301
    mesh41 = build_structured_mesh(geometry, 41)
    assert 1545 <= np.count_nonzero(mesh41.node_tags != WALL) <= 1553


# ---------------------------------------------------------------------------
# Interpolation accuracy

def test_l2_projection_error_order(geometry):
    # L2 projection error of sin(pi x) sin(pi y) decreases at O(h^3) for P2.
    errors = []
    for n in (11, 21, 41):
        mesh = build_structured_mesh(geometry, n)
        points, weights = _rule_degree6()
        pts = fem.physical_points(mesh, points)
        exact = np.sin(np.pi * pts[..., 0]) * np.sin(np.pi * pts[..., 1])
        basis = fem.p2_basis(points)
        det, _ = fem.element_jacobians(mesh)
        rhs_local = np.einsum("q,qi,eq,e->ei", weights, basis, exact, det)
        rhs = np.zeros(mesh.num_p2)
        np.add.at(rhs, mesh.triangles.ravel(), rhs_local.ravel())
        m = fem.assemble_mass(mesh)
        from scipy.sparse.linalg import spsolve

        proj = spsolve(m.tocsc(), rhs)
        approx = np.einsum("qi,ei->eq", basis, proj[mesh.triangles])
        err2 = np.einsum("q,eq,e->", weights, (approx - exact) ** 2, det)
        errors.append(np.sqrt(err2))
    ratio1 = errors[0] / errors[1]
    ratio2 = errors[1] / errors[2]
    assert abs(ratio1 - 8.0) < 0.15 * 8.0
    assert abs(ratio2 - 8.0) < 0.15 * 8.0
