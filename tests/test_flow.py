import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from thermoreg import fem, flow
from thermoreg.errors import ConvergenceError
from thermoreg.mesh import INLET, OUTLET, BoundarySegment, Geometry, build_structured_mesh


# ---------------------------------------------------------------------------
# Inlet profile

def test_profile_midpoint_value():
    # exp(-1e-4 / 0.04^2) = exp(-0.0625) at the support midpoint y = 0.7.
    val = flow.inlet_profile_value(0.7)
    assert val == pytest.approx(np.exp(-0.0625), rel=1e-14)


def test_profile_vanishes_at_support_endpoints():
    vals = flow.inlet_profile_value(np.array([0.5, 0.9, 0.3, 0.95, 0.5 + 1e-9]))
    assert np.all(vals[:4] == 0.0) or np.all(vals[:2] == 0.0)
    assert vals[2] == 0.0 and vals[3] == 0.0
    assert vals[4] < 1e-300 or vals[4] == 0.0


def test_profile_remap_identity():
    vx_remap, vy = flow.inlet_profile(0.25, remap=True)
    assert vx_remap == pytest.approx(flow.inlet_profile_value(0.65), rel=1e-15)
    assert vy == 0.0
    vx_raw, _ = flow.inlet_profile(0.25, remap=False)
    assert vx_raw == 0.0  # literal formula has no support on the inlet


# ---------------------------------------------------------------------------
# Stokes

def test_stokes_zero_inflow(mesh21, geometry):
    zero = lambda y: (np.zeros_like(y), np.zeros_like(y))
    st = flow.solve_stokes(mesh21, geometry, re=10.0, inlet_data=zero)
    assert np.max(np.abs(st.velocity)) < 1e-12
    assert np.max(np.abs(st.pressure)) < 1e-12


def test_stokes_poiseuille_exact():
    geo = Geometry(inlet=BoundarySegment("left", 0.0, 1.0), outlet=BoundarySegment("right", 0.0, 1.0))
    mesh = build_structured_mesh(geo, 21)
    para = lambda y: (4.0 * y * (1.0 - y), np.zeros_like(y))
    re = 10.0
    st = flow.solve_stokes(mesh, geo, re=re, inlet_data=para)
    vx_exact = 4.0 * mesh.p2_nodes[:, 1] * (1.0 - mesh.p2_nodes[:, 1])
    assert np.max(np.abs(st.velocity[:, 0] - vx_exact)) < 1e-8
    assert np.max(np.abs(st.velocity[:, 1])) < 1e-8
    p_exact = 8.0 * (1.0 - mesh.p1_nodes[:, 0]) / re
    assert np.max(np.abs(st.pressure - p_exact)) < 1e-8


def test_stokes_mass_balance(mesh21, geometry):
    st = flow.solve_stokes(mesh21, geometry, re=100.0)
    fin = flow.boundary_flux(mesh21, st.velocity, INLET)
    fout = flow.boundary_flux(mesh21, st.velocity, OUTLET)
    assert fin < 0 < fout
    assert abs(fin + fout) < 1e-10


def test_stokes_divergence_free(mesh21, geometry):
    st = flow.solve_stokes(mesh21, geometry, re=100.0)
    vnorm = max(np.linalg.norm(st.velocity), 1.0)
    assert st.divergence_norm / vnorm < 1e-10


# ---------------------------------------------------------------------------
# Navier-Stokes

def test_ns_small_reynolds_matches_stokes(mesh11, geometry):
    # The convective correction vanishes linearly in Re.
    diffs = []
    for re in (1e-3, 1e-4):
        st = flow.solve_stokes(mesh11, geometry, re=re)
        ns = flow.solve_navier_stokes(mesh11, geometry, re=re, initial=st)
        diffs.append(np.max(np.abs(ns.velocity - st.velocity)))
    assert diffs[1] < 1e-6
    assert diffs[1] < 0.2 * diffs[0]


@pytest.fixture(scope="module")
def ns41(geometry):
    mesh = build_structured_mesh(geometry, 41)
    return mesh, flow.solve_navier_stokes(mesh, geometry, re=100.0)


def test_ns_newton_quadratic_tail(ns41):
    _, ns = ns41
    assert ns.newton_iterations <= 10
    hist = ns.residual_history
    # Quadratic tail: number of correct digits roughly doubles over the
    # final steps (log-residual ratio near 2).
    ratios = [np.log(hist[k + 1]) / np.log(hist[k]) for k in range(1, len(hist) - 1) if hist[k] < 1e-2]
    assert any(1.5 <= r <= 3.0 for r in ratios)


def test_ns_newton_monotone_decrease(ns41):
    _, ns = ns41
    hist = ns.residual_history
    assert all(hist[k + 1] < hist[k] for k in range(1, len(hist) - 1))


def test_ns_divergence(ns41):
    mesh, ns = ns41
    assert ns.divergence_norm < 1e-9


def test_ns_no_slip_exact(ns41):
    mesh, ns = ns41
    from thermoreg.mesh import WALL

    walls = mesh.node_tags == WALL
    assert np.max(np.abs(ns.velocity[walls])) == 0.0


def test_ns_outlet_free(ns41):
    # Stress-free outlet: velocity there is not pinned to zero.
    mesh, ns = ns41
    outlet = mesh.node_tags == OUTLET
    assert np.max(np.abs(ns.velocity[outlet])) > 1e-3


@pytest.mark.parametrize("n", [11, 21, 41])
def test_saddle_order_is_permutation_of_unknowns(geometry, n):
    mesh = build_structured_mesh(geometry, n)
    prob = flow._SaddleProblem(mesh, 100.0)
    np2 = mesh.num_p2
    unknown = np.ones(2 * np2 + mesh.num_p1, dtype=bool)
    unknown[prob.fixed] = False
    unknown[np2 + prob.fixed] = False
    assert np.array_equal(np.sort(prob.order), np.flatnonzero(unknown))


def test_ns_matches_colamd_reference(ns41):
    # The same Newton iteration on the unpermuted system, solved with
    # SuperLU's default COLAMD column ordering.
    mesh, ns = ns41
    prob = flow._SaddleProblem(mesh, 100.0)
    prob.order = np.sort(prob.order)
    v, p = prob.initial_state()
    v, p = prob.apply_update(v, p, spla.spsolve(prob.jacobian(), -prob.residual(v, p)))
    for _ in range(ns.newton_iterations):
        adv, g = fem.assemble_convection(mesh, v)
        v, p = prob.apply_update(v, p, spla.spsolve(prob.jacobian(adv, g), -prob.residual(v, p, adv)))
    assert np.linalg.norm(ns.velocity - v) <= 1e-12 * np.linalg.norm(v)
    assert np.linalg.norm(ns.pressure - p) <= 1e-12 * np.linalg.norm(p)


def test_singular_stokes_system_is_typed(mesh11, geometry, monkeypatch):
    # A viscous operator with its pattern but zero values: SuperLU finds an
    # exactly zero pivot, which spsolve reports only as a warning.
    stiffness = fem.assemble_stiffness(mesh11, "P2")
    zero = sp.csr_matrix((np.zeros(stiffness.nnz), stiffness.indices, stiffness.indptr), shape=stiffness.shape)
    monkeypatch.setattr(fem, "assemble_stiffness", lambda mesh, space: zero)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ConvergenceError, match="Stokes: saddle system is singular"):
            flow.solve_stokes(mesh11, geometry, re=1.0)
    assert not caught


def test_singular_newton_jacobian_reports_step(mesh11, geometry, monkeypatch):
    # A convection matrix that cancels the viscous block leaves the Jacobian
    # without a velocity block.
    visc = fem.assemble_stiffness(mesh11, "P2") / 100.0
    zero = sp.csr_matrix(visc.shape)
    blocks = (-visc, {(c, d): zero for c in range(2) for d in range(2)})
    monkeypatch.setattr(fem, "assemble_convection", lambda mesh, v: blocks)
    with pytest.raises(ConvergenceError, match="Newton step 1: saddle system is singular") as exc:
        flow.solve_navier_stokes(mesh11, geometry, re=100.0)
    assert exc.value.iterations == 1
    assert exc.value.residual == 1.0


def test_ns_nonconvergence_reports_residual(mesh11, geometry):
    with pytest.raises(ConvergenceError) as exc:
        flow.solve_navier_stokes(mesh11, geometry, re=100.0, max_iter=1)
    assert exc.value.residual is not None


def test_invalid_reynolds(mesh11, geometry):
    with pytest.raises(ValueError):
        flow.solve_navier_stokes(mesh11, geometry, re=-1.0)


# ---------------------------------------------------------------------------
# Restriction

def test_restrict_same_mesh_identity(mesh21, geometry):
    st = flow.solve_stokes(mesh21, geometry, re=50.0)
    out = flow.restrict_velocity(st, mesh21)
    assert np.array_equal(out, st.velocity)


def test_restrict_nested_grids(geometry, mesh41, mesh21):
    st = flow.solve_stokes(mesh41, geometry, re=50.0)
    out = flow.restrict_velocity(st, mesh21)
    # Shared grid points carry identical values.
    for k in (0, 7, 100, mesh21.num_p2 - 1):
        iy, ix = divmod(k, mesh21.n)
        src_idx = 2 * iy * mesh41.n + 2 * ix
        assert np.array_equal(out[k], st.velocity[src_idx])


def test_restrict_constant_field(mesh41, mesh21):
    st = flow.FlowState(mesh=mesh41, velocity=np.full((mesh41.num_p2, 2), 3.5), pressure=np.zeros(mesh41.num_p1), residual_norm=0.0)
    out = flow.restrict_velocity(st, mesh21)
    assert np.allclose(out, 3.5, atol=0)


def test_evaluate_p2_reproduces_quadratics(mesh11):
    pts = np.array([[0.13, 0.57], [0.5, 0.5], [0.99, 0.01], [0.0, 1.0]])
    x, y = mesh11.p2_nodes[:, 0], mesh11.p2_nodes[:, 1]
    coeffs = 1.0 + 2 * x - y + x * y + 0.5 * x**2
    vals = flow.evaluate_p2(mesh11, coeffs, pts)
    exact = 1.0 + 2 * pts[:, 0] - pts[:, 1] + pts[:, 0] * pts[:, 1] + 0.5 * pts[:, 0] ** 2
    assert np.allclose(vals, exact, atol=1e-13)


@pytest.mark.parametrize("point", [[-1e-12, 0.5], [0.5, 1.0 + 1e-12], [1.5, 0.2], [np.nan, 0.5]])
def test_evaluate_p2_rejects_points_outside_square(mesh11, point):
    coeffs = np.ones(mesh11.num_p2)
    with pytest.raises(ValueError):
        flow.evaluate_p2(mesh11, coeffs, np.array([[0.5, 0.5], point]))


def test_evaluate_p2_top_right_edges_use_last_cell(mesh11):
    pts = np.array([[1.0, 1.0], [1.0, 0.37], [0.61, 1.0]])
    x, y = mesh11.p2_nodes[:, 0], mesh11.p2_nodes[:, 1]
    vals = flow.evaluate_p2(mesh11, x * y - y**2, pts)
    assert np.allclose(vals, pts[:, 0] * pts[:, 1] - pts[:, 1] ** 2, atol=1e-13)


# ---------------------------------------------------------------------------
# Export

def test_velocity_export_roundtrip(tmp_path, mesh11, geometry):
    st = flow.solve_stokes(mesh11, geometry, re=10.0)
    path = tmp_path / "velocity.csv"
    flow.save_velocity(st, path)
    back = flow.load_velocity(path, mesh11)
    assert np.array_equal(back, st.velocity)


def test_velocity_load_rejects_wrong_mesh(tmp_path, mesh11, mesh21, geometry):
    st = flow.solve_stokes(mesh11, geometry, re=10.0)
    path = tmp_path / "velocity.csv"
    flow.save_velocity(st, path)
    with pytest.raises(ValueError):
        flow.load_velocity(path, mesh21)
