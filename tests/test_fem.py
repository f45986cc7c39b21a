import numpy as np
import pytest
import sympy

from thermoreg import fem
from thermoreg.mesh import INLET, OUTLET, WALL, Geometry, build_structured_mesh


# ---------------------------------------------------------------------------
# Quadrature

@pytest.mark.parametrize("degree", [2, 5, 6])
def test_quadrature_exact_for_monomials(degree):
    rule = fem.triangle_rule(degree)
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 0.5) < 1e-14
    # Reference-triangle integral of x^a y^b is a! b! / (a + b + 2)!.
    for a in range(rule.degree + 1):
        for b in range(rule.degree + 1 - a):
            x = rule.points[:, 1]
            y = rule.points[:, 2]
            approx = np.sum(rule.weights * x**a * y**b)
            import math

            exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            assert abs(approx - exact) < 1e-14, (a, b)


def test_edge_rule_exactness():
    t, w = fem.edge_rule(3)
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
    rule = fem.triangle_rule(2)
    basis = fem.p1_basis(rule.points)
    mass_quad = np.einsum("q,qi,qj->ij", rule.weights, basis, basis)
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
    m = fem.assemble_mass(mesh21, "P2")
    ones = np.ones(mesh21.num_p2)
    assert abs(ones @ m @ ones - 1.0) < 1e-12
    m1 = fem.assemble_mass(mesh21, "P1")
    ones1 = np.ones(mesh21.num_p1)
    assert abs(ones1 @ m1 @ ones1 - 1.0) < 1e-12


def test_mass_row_sums_are_basis_integrals(mesh11):
    # Row sums of M equal integral(phi_i) by partition of unity.
    m = fem.assemble_mass(mesh11, "P2")
    rule = fem.triangle_rule(5)
    basis = fem.p2_basis(rule.points)
    det, _ = fem.element_jacobians(mesh11)
    local = np.einsum("q,qi,e->ei", rule.weights, basis, det)
    integrals = np.zeros(mesh11.num_p2)
    np.add.at(integrals, mesh11.triangles.ravel(), local.ravel())
    assert np.allclose(np.asarray(m.sum(axis=1)).ravel(), integrals, atol=1e-14)


def test_mass_spd(mesh11):
    m = fem.assemble_mass(mesh11, "P2").toarray()
    assert np.allclose(m, m.T, atol=1e-15)
    assert np.linalg.eigvalsh(m).min() > 0


def test_stiffness_kernel_constants(mesh21):
    k = fem.assemble_stiffness(mesh21, "P2")
    assert np.max(np.abs(k @ np.ones(mesh21.num_p2))) < 1e-13
    k1 = fem.assemble_stiffness(mesh21, "P1")
    assert np.max(np.abs(k1 @ np.ones(mesh21.num_p1))) < 1e-13


def test_dirichlet_energy_of_manufactured_solution(geometry):
    # theta = sin(pi x) sin(pi y) has Dirichlet energy pi^2 / 2; the nodal
    # interpolant's discrete energy converges at O(h^2).
    errs = []
    for n in (11, 21, 41):
        mesh = build_structured_mesh(geometry, n)
        k = fem.assemble_stiffness(mesh, "P2")
        theta = np.sin(np.pi * mesh.p2_nodes[:, 0]) * np.sin(np.pi * mesh.p2_nodes[:, 1])
        errs.append(abs(theta @ k @ theta - np.pi**2 / 2.0))
    assert errs[0] < 0.05
    # Order check between successive refinements (h halves).
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_advection_zero_velocity(mesh11):
    n = fem.assemble_advection(mesh11, np.zeros((mesh11.num_p2, 2)))
    assert n.nnz == 0


def test_advection_constant_velocity_linear_field(mesh11):
    # v = (1, 0), theta = x: (N theta)_i = integral(phi_i) = (M 1)_i exactly.
    vel = np.zeros((mesh11.num_p2, 2))
    vel[:, 0] = 1.0
    n = fem.assemble_advection(mesh11, vel)
    theta = mesh11.p2_nodes[:, 0].copy()
    m = fem.assemble_mass(mesh11, "P2")
    assert np.allclose(n @ theta, m @ np.ones(mesh11.num_p2), atol=1e-14)


def test_advection_dimension_mismatch(mesh11):
    with pytest.raises(ValueError):
        fem.assemble_advection(mesh11, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        fem.assemble_convection(mesh11, np.zeros((3, 2)))


def test_precontracted_convection_matches_quadrature(mesh11, rng):
    # Direct degree-5 quadrature of N(v) and G_cd(v) at the physical points.
    vel = rng.standard_normal((mesh11.num_p2, 2))
    rule = fem.triangle_rule(5)
    phi = fem.p2_basis(rule.points)
    grads = fem.physical_grads(mesh11, rule, "P2")
    det, _ = fem.element_jacobians(mesh11)
    tri = mesh11.triangles
    shape = (mesh11.num_p2, mesh11.num_p2)
    vq = np.einsum("eid,qi->eqd", vel[tri], phi)
    local = np.einsum("q,qi,eqd,eqjd,e->eij", rule.weights, phi, vq, grads, det)
    n_ref = fem._scatter(local, tri, tri, shape).toarray()
    n, g = fem.assemble_convection(mesh11, vel)
    scale = np.abs(n_ref).max()
    assert np.abs(n.toarray() - n_ref).max() <= 1e-13 * scale
    assert np.abs(fem.assemble_advection(mesh11, vel).toarray() - n_ref).max() <= 1e-13 * scale
    for c in range(2):
        dv = np.einsum("ei,eqid->eqd", vel[tri, c], grads)
        for d in range(2):
            local = np.einsum("q,qi,qj,eq,e->eij", rule.weights, phi, phi, dv[:, :, d], det)
            g_ref = fem._scatter(local, tri, tri, shape).toarray()
            assert np.abs(g[c, d].toarray() - g_ref).max() <= 1e-13 * np.abs(g_ref).max()


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


def test_boundary_load_unknown_tag(mesh11):
    with pytest.raises(ValueError):
        fem.assemble_load_boundary(mesh11, 77, fem.ShapeSpec("boundary-indicator"))


def test_boundary_load_quadrature_convergence():
    # The assembled load of the smooth inlet bump converges to the exact
    # edge integral (adaptive-quadrature oracle) under mesh refinement.
    from scipy.integrate import quad

    from thermoreg.flow import inlet_profile_value

    exact, _ = quad(inlet_profile_value, 0.5, 0.9, limit=400, epsabs=1e-14)
    shape = fem.ShapeSpec("inlet-flux-profile")
    errs = []
    for n in (21, 81, 321):
        mesh = build_structured_mesh(Geometry(), n)
        load = fem.assemble_load_boundary(mesh, OUTLET, shape, npoints=3)
        errs.append(abs(load.sum() - exact))
    assert errs[1] < 0.1 * errs[0]
    assert errs[2] < 0.1 * errs[1]
    assert errs[2] < 1e-6


# ---------------------------------------------------------------------------
# Dirichlet reduction

def test_reduction_dimensions(geometry):
    mesh81 = build_structured_mesh(geometry, 81)
    red = fem.dirichlet_reduction(mesh81)
    assert 6293 <= red.size <= 6301
    mesh41 = build_structured_mesh(geometry, 41)
    red41 = fem.dirichlet_reduction(mesh41)
    assert 1545 <= red41.size <= 1553


def test_reduction_identity_when_no_dirichlet(mesh11):
    red = fem.dirichlet_reduction(mesh11, tags=(77,))
    assert red.size == mesh11.num_p2
    m = fem.assemble_mass(mesh11)
    assert (red.matrix(m) != m.tocsr()).nnz == 0


def test_reduction_covering_everything_rejected(mesh11):
    with pytest.raises(ValueError):
        fem.dirichlet_reduction(mesh11, tags=(0, INLET, OUTLET, WALL))


def test_inflate_roundtrip(mesh11, rng):
    red = fem.dirichlet_reduction(mesh11)
    x = rng.standard_normal(red.size)
    full = red.inflate(x)
    assert full.shape == (mesh11.num_p2,)
    assert np.array_equal(red.vector(full), x)
    dropped = np.setdiff1d(np.arange(mesh11.num_p2), red.free)
    assert not np.any(full[dropped])


# ---------------------------------------------------------------------------
# Interpolation accuracy

def test_l2_projection_error_order(geometry):
    # L2 projection error of sin(pi x) sin(pi y) decreases at O(h^3) for P2.
    errors = []
    for n in (11, 21, 41):
        mesh = build_structured_mesh(geometry, n)
        rule = fem.triangle_rule(6)
        pts = fem.physical_points(mesh, rule)
        exact = np.sin(np.pi * pts[..., 0]) * np.sin(np.pi * pts[..., 1])
        basis = fem.p2_basis(rule.points)
        det, _ = fem.element_jacobians(mesh)
        rhs_local = np.einsum("q,qi,eq,e->ei", rule.weights, basis, exact, det)
        rhs = np.zeros(mesh.num_p2)
        np.add.at(rhs, mesh.triangles.ravel(), rhs_local.ravel())
        m = fem.assemble_mass(mesh, "P2")
        from scipy.sparse.linalg import spsolve

        proj = spsolve(m.tocsc(), rhs)
        approx = np.einsum("qi,ei->eq", basis, proj[mesh.triangles])
        err2 = np.einsum("q,eq,e->", rule.weights, (approx - exact) ** 2, det)
        errors.append(np.sqrt(err2))
    ratio1 = errors[0] / errors[1]
    ratio2 = errors[1] / errors[2]
    assert abs(ratio1 - 8.0) < 0.15 * 8.0
    assert abs(ratio2 - 8.0) < 0.15 * 8.0


# ---------------------------------------------------------------------------
# Export

def test_matrix_export_roundtrip(tmp_path, mesh5):
    m = fem.assemble_mass(mesh5)
    path = tmp_path / "mass.coo"
    fem.export_matrix_coo(m, path)
    back = fem.read_matrix_coo(path, shape=m.shape)
    assert np.allclose(back.toarray(), m.toarray(), atol=0)
