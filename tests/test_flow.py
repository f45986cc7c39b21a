import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from thermoreg import fem, flow
from thermoreg.errors import ConvergenceError
from thermoreg.mesh import INLET, OUTLET, build_structured_mesh


# ---------------------------------------------------------------------------
# Inlet profile

def test_profile_midpoint_value():
    # exp(-1e-4 / 0.04^2) = exp(-0.0625) at the shifted support's midpoint y = 0.3.
    vx, vy = flow.inlet_profile(0.3)
    assert vx == pytest.approx(np.exp(-0.0625), rel=1e-14)
    assert vy == 0.0


def test_profile_vanishes_at_support_endpoints():
    vx, vy = flow.inlet_profile(np.array([0.1, 0.5, -0.1, 0.55, 0.1 + 1e-9]))
    assert np.all(vx[:4] == 0.0)
    assert vx[4] < 1e-300 or vx[4] == 0.0
    assert np.all(vy == 0.0)


@pytest.mark.parametrize("n", [11, 21, 41, 81])
def test_every_inlet_node_takes_inflow(geometry, n):
    # The profile and the mesh's inlet tags are fixed separately; every
    # tagged inlet node must lie inside the profile's support.
    mesh = build_structured_mesh(geometry, n)
    vx, _ = flow.inlet_profile(mesh.p2_nodes[mesh.node_tags == INLET, 1])
    assert vx.size > 0 and vx.min() > 0.0


# ---------------------------------------------------------------------------
# Stokes

def test_stokes_zero_inflow(mesh21, monkeypatch):
    zero = lambda y: (np.zeros_like(y), np.zeros_like(y))
    monkeypatch.setattr(flow, "inlet_profile", zero)
    st = flow.solve_stokes(mesh21, re=10.0)
    assert np.max(np.abs(st.velocity)) < 1e-12
    assert np.max(np.abs(st.pressure)) < 1e-12


def test_stokes_poiseuille_exact(mesh21, monkeypatch):
    # A channel: the inner nodes of the left column are inlet, of the right outlet.
    tags = mesh21.node_tags.reshape(21, 21).copy()
    tags[1:-1, 0] = INLET
    tags[1:-1, -1] = OUTLET
    mesh = dataclasses.replace(mesh21, node_tags=tags.ravel())
    para = lambda y: (4.0 * y * (1.0 - y), np.zeros_like(y))
    monkeypatch.setattr(flow, "inlet_profile", para)
    re = 10.0
    st = flow.solve_stokes(mesh, re=re)
    vx_exact = 4.0 * mesh.p2_nodes[:, 1] * (1.0 - mesh.p2_nodes[:, 1])
    assert np.max(np.abs(st.velocity[:, 0] - vx_exact)) < 1e-8
    assert np.max(np.abs(st.velocity[:, 1])) < 1e-8
    p_exact = 8.0 * (1.0 - mesh.p1_nodes[:, 0]) / re
    assert np.max(np.abs(st.pressure - p_exact)) < 1e-8


def test_stokes_mass_balance(mesh21):
    # Outward fluxes: the inlet is on the left edge and the outlet on the
    # right, so the normal velocity is -vx and +vx.  The edge rule integrates
    # the quadratic trace exactly.
    st = flow.solve_stokes(mesh21, re=100.0)
    indicator = fem.ShapeSpec("boundary-indicator")
    fin = -fem.assemble_load_boundary(mesh21, INLET, indicator) @ st.velocity[:, 0]
    fout = fem.assemble_load_boundary(mesh21, OUTLET, indicator) @ st.velocity[:, 0]
    assert fin < 0 < fout
    assert abs(fin + fout) < 1e-10


def test_stokes_divergence_free(mesh21):
    st = flow.solve_stokes(mesh21, re=100.0)
    vnorm = max(np.linalg.norm(st.velocity), 1.0)
    assert st.divergence_norm / vnorm < 1e-10


# ---------------------------------------------------------------------------
# Navier-Stokes

def test_ns_small_reynolds_matches_stokes(mesh11):
    # The convective correction vanishes linearly in Re.
    diffs = []
    for re in (1e-3, 1e-4):
        st = flow.solve_stokes(mesh11, re=re)
        ns = flow.solve_navier_stokes(mesh11, re=re, initial=st)
        diffs.append(np.max(np.abs(ns.velocity - st.velocity)))
    assert diffs[1] < 1e-6
    assert diffs[1] < 0.2 * diffs[0]


def test_ns_newton_quadratic_tail(flow41):
    assert flow41.newton_iterations <= 10
    hist = flow41.residual_history
    # Quadratic tail: number of correct digits roughly doubles over the
    # final steps (log-residual ratio near 2).
    ratios = [np.log(hist[k + 1]) / np.log(hist[k]) for k in range(1, len(hist) - 1) if hist[k] < 1e-2]
    assert any(1.5 <= r <= 3.0 for r in ratios)


def test_ns_newton_monotone_decrease(flow41):
    hist = flow41.residual_history
    assert all(hist[k + 1] < hist[k] for k in range(1, len(hist) - 1))


def test_ns_divergence(flow41):
    assert flow41.divergence_norm < 1e-9


def test_ns_no_slip_exact(mesh41, flow41):
    from thermoreg.mesh import WALL

    walls = mesh41.node_tags == WALL
    assert np.max(np.abs(flow41.velocity[walls])) == 0.0


def test_ns_outlet_free(mesh41, flow41):
    # Stress-free outlet: velocity there is not pinned to zero.
    outlet = mesh41.node_tags == OUTLET
    assert np.max(np.abs(flow41.velocity[outlet])) > 1e-3


@pytest.mark.parametrize("n", [11, 21, 41])
def test_saddle_order_is_permutation_of_unknowns(geometry, n):
    mesh = build_structured_mesh(geometry, n)
    prob = flow._SaddleProblem(mesh, 100.0)
    np2 = mesh.num_p2
    unknown = np.ones(2 * np2 + mesh.num_p1, dtype=bool)
    unknown[prob.fixed] = False
    unknown[np2 + prob.fixed] = False
    assert np.array_equal(np.sort(prob.order), np.flatnonzero(unknown))


def test_saddle_pattern_build_keeps_int32_transients(mesh41):
    # The pattern build holds only int32 index arrays over the source
    # entries, besides the int64 results of flatnonzero and lexsort.
    mesh41.p2_couplings  # computed once per mesh, outside the traced region
    tracemalloc.start()
    try:
        flow._SaddleProblem(mesh41, 100.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.5e6


def test_ns_matches_colamd_reference(mesh41, flow41, monkeypatch):
    # The same Newton iteration on the unpermuted system, solved with
    # SuperLU's default COLAMD column ordering.
    mesh, ns = mesh41, flow41
    saddle_order = flow._saddle_order
    monkeypatch.setattr(flow, "_saddle_order", lambda mesh, fixed: np.sort(saddle_order(mesh, fixed)))
    prob = flow._SaddleProblem(mesh, 100.0)
    v, p = prob.initial_state()
    v, p = prob.apply_update(v, p, spla.spsolve(prob.jacobian(), -prob.residual(v, p)))
    for _ in range(ns.newton_iterations):
        adv, g = fem.assemble_convection(mesh, v)
        v, p = prob.apply_update(v, p, spla.spsolve(prob.jacobian(adv, g), -prob.residual(v, p, adv)))
    assert np.linalg.norm(ns.velocity - v) <= 1e-12 * np.linalg.norm(v)
    assert np.linalg.norm(ns.pressure - p) <= 1e-12 * np.linalg.norm(p)


def _block_jacobian(prob, adv=None, g=None):
    # The saddle matrix assembled block by block and permuted to solve order.
    if adv is None:
        blocks = [[prob.visc, None], [None, prob.visc]]
    else:
        a = prob.visc + adv
        blocks = [[a + g[0, 0], g[0, 1]], [g[1, 0], a + g[1, 1]]]
    jac = sp.bmat([blocks[0] + [-prob.dx.T], blocks[1] + [-prob.dy.T], [prob.dx, prob.dy, None]], format="csr")
    jac = jac[prob.order][:, prob.order].tocsc()
    jac.eliminate_zeros()  # the stiffness stores its vanishing couplings as zeros
    return jac


@pytest.mark.parametrize("n", [11, 21])
def test_gathered_jacobian_matches_block_assembly(geometry, n):
    mesh = build_structured_mesh(geometry, n)
    prob = flow._SaddleProblem(mesh, 100.0)
    adv, g = fem.assemble_convection(mesh, flow.solve_stokes(mesh, re=100.0).velocity)
    for args in ((), (adv, g)):
        got, want = prob.jacobian(*args), _block_jacobian(prob, *args)
        assert abs(got - want).max() <= 1e-14 * abs(want).max()
    stokes, want = prob.jacobian(), _block_jacobian(prob)
    assert np.array_equal(stokes.indptr, want.indptr) and np.array_equal(stokes.indices, want.indices)


def test_singular_stokes_system_is_typed(mesh11, monkeypatch):
    # A viscous operator with its pattern but zero values: SuperLU finds an
    # exactly zero pivot, which spsolve reports only as a warning.
    stiffness = fem.assemble_stiffness(mesh11)
    zero = sp.csr_matrix((np.zeros(stiffness.nnz), stiffness.indices, stiffness.indptr), shape=stiffness.shape)
    monkeypatch.setattr(fem, "assemble_stiffness", lambda mesh: zero)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ConvergenceError, match="Stokes: saddle system is singular"):
            flow.solve_stokes(mesh11, re=1.0)
    assert not caught


def test_singular_newton_jacobian_reports_step(mesh11, monkeypatch):
    # A convection matrix that cancels the viscous block leaves the Jacobian
    # without a velocity block.
    visc = fem.assemble_stiffness(mesh11) / 100.0
    blocks = (-visc, {(c, d): visc * 0.0 for c in range(2) for d in range(2)})
    monkeypatch.setattr(fem, "assemble_convection", lambda mesh, v: blocks)
    with pytest.raises(ConvergenceError, match="Newton step 1: saddle system is singular") as exc:
        flow.solve_navier_stokes(mesh11, re=100.0)
    assert exc.value.iterations == 1
    assert exc.value.residual == 1.0


def test_non_finite_newton_update_is_typed(mesh11, monkeypatch):
    # A sparse solve that returns NaN (from the Stokes initial state, so the
    # first solve patched is Newton step 1's) stops the iteration there.
    initial = flow.solve_stokes(mesh11, re=100.0)
    monkeypatch.setattr(spla, "spsolve", lambda jac, rhs, **kwargs: np.full(rhs.shape, np.nan))
    with pytest.raises(ConvergenceError, match="^Newton step 1 produced non-finite values$") as exc:
        flow.solve_navier_stokes(mesh11, re=100.0, initial=initial)
    assert exc.value.iterations == 1
    assert exc.value.residual == 1.0


def test_ns_nonconvergence_reports_residual(mesh11):
    with pytest.raises(ConvergenceError) as exc:
        flow.solve_navier_stokes(mesh11, re=100.0, max_iter=1)
    assert exc.value.residual is not None


@pytest.mark.parametrize("max_iter", [1.5, -1, True, "3"], ids=["float", "negative", "bool", "str"])
def test_bad_max_iter_rejected(mesh11, max_iter):
    with pytest.raises(ValueError, match="max_iter"):
        flow.solve_navier_stokes(mesh11, re=100.0, max_iter=max_iter)


def test_invalid_reynolds(mesh11):
    with pytest.raises(ValueError):
        flow.solve_navier_stokes(mesh11, re=-1.0)


@pytest.mark.parametrize("solve", [flow.solve_stokes, flow.solve_navier_stokes])
@pytest.mark.parametrize("re", [0.0, -1.0, np.nan, np.inf])
def test_reynolds_must_be_positive_and_finite(mesh11, solve, re):
    with pytest.raises(ValueError, match="Reynolds number"):
        solve(mesh11, re=re)


def test_ns_converges_on_last_allowed_step(mesh41, flow41):
    # The iterate of step max_iter is tested too: allowing exactly the steps
    # the solve needs returns the same iterates and history.
    mesh, ns = mesh41, flow41
    again = flow.solve_navier_stokes(mesh, re=100.0, max_iter=ns.newton_iterations)
    assert again.newton_iterations == ns.newton_iterations
    assert again.residual_history == ns.residual_history
    assert np.array_equal(again.velocity, ns.velocity)
    assert np.array_equal(again.pressure, ns.pressure)
    with pytest.raises(ConvergenceError) as exc:
        flow.solve_navier_stokes(mesh, re=100.0, max_iter=ns.newton_iterations - 1)
    assert exc.value.residual == ns.residual_history[-2]


def test_ns_nan_initial_state_is_not_converged(mesh11):
    # A NaN residual passes no convergence test, so Newton steps and fails.
    initial = flow.solve_stokes(mesh11, re=100.0)
    initial.velocity[60, 0] = np.nan
    with pytest.raises(ConvergenceError, match="Newton step 1"):
        flow.solve_navier_stokes(mesh11, re=100.0, initial=initial)


@pytest.mark.parametrize("case", ["coarser-mesh", "short-pressure"])
def test_ns_initial_state_of_another_shape_rejected(mesh11, mesh21, case):
    if case == "coarser-mesh":
        initial = flow.solve_stokes(mesh11, re=100.0)
    else:
        initial = flow.solve_stokes(mesh21, re=100.0)
        initial.pressure = initial.pressure[:-1]
    with pytest.raises(ValueError, match=r"initial state has shapes .*need \(\(441, 2\), \(121,\)\)"):
        flow.solve_navier_stokes(mesh21, re=100.0, initial=initial)


# ---------------------------------------------------------------------------
# Restriction

def test_restrict_same_mesh_identity(mesh21):
    st = flow.solve_stokes(mesh21, re=50.0)
    out = flow.restrict_velocity(st, mesh21)
    assert np.array_equal(out, st.velocity)


def test_restrict_nested_grids(mesh41, mesh21):
    st = flow.solve_stokes(mesh41, re=50.0)
    out = flow.restrict_velocity(st, mesh21)
    # Shared grid points carry identical values.
    for k in (0, 7, 100, mesh21.num_p2 - 1):
        iy, ix = divmod(k, mesh21.n)
        src_idx = 2 * iy * mesh41.n + 2 * ix
        assert np.array_equal(out[k], st.velocity[src_idx])


def test_restrict_constant_field(mesh41, mesh21):
    st = flow.FlowState(mesh=mesh41, velocity=np.full((mesh41.num_p2, 2), 3.5), pressure=np.zeros(mesh41.num_p1))
    out = flow.restrict_velocity(st, mesh21)
    assert np.allclose(out, 3.5, atol=0)


@pytest.mark.parametrize("flow_n, n", [(41, 31), (21, 41)])
def test_restrict_rejects_meshes_not_nested_in_the_flow_grid(geometry, flow_n, n):
    # 40 is no multiple of 30, and a finer grid is never nested in a coarser one.
    src = build_structured_mesh(geometry, flow_n)
    st = flow.FlowState(mesh=src, velocity=np.zeros((src.num_p2, 2)), pressure=np.zeros(src.num_p1))
    with pytest.raises(ValueError, match="not nested"):
        flow.restrict_velocity(st, build_structured_mesh(geometry, n))
