"""Steady incompressible flow in the room: Stokes and Navier-Stokes.

The velocity is discretized with quadratic elements (two components per
P2 node) and the pressure with linear elements on the vertex grid
(Taylor-Hood).  Walls carry no-slip conditions, the inlet the fixed
profile of :func:`inlet_profile`, and the outlet the natural stress-free
condition.  The nonlinear problem is solved by a Newton iteration with
the full convection Jacobian, started from the Stokes solution.

Every saddle system is factored by SuperLU with the unknowns (vx, vy, p)
ordered by a nested dissection of the grid nodes
(:func:`mesh.nested_dissection_order`) and no further column ordering;
SuperLU's threshold partial pivoting handles the zero pressure block.
At n=61 this gives 1.07M nonzeros in L+U against 1.68M for COLAMD.
"""

import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fem
from .errors import ConvergenceError
from .mesh import INLET, WALL, nested_dissection_order

# The printed inlet profile is supported on 0.5 < y < 0.9 while the inlet
# spans 0.1 <= y <= 0.4.  Shifted down by 0.4, its support 0.1 < y < 0.5
# meets the inlet, and the wall nodes at y >= 0.4 cut it off.
_PROFILE_LO = 0.5
_PROFILE_HI = 0.9
_REMAP_SHIFT = 0.4
# Newton stops when the residual has dropped by this factor relative to
# the first iterate.
_NEWTON_TOL = 1e-10


def inlet_profile(y):
    """Inlet velocity (vx, vy) at height ``y`` on the left wall.

    vx is the printed bump exp(-1e-4 / ((0.5 - s)(0.9 - s))^2) at
    s = y + 0.4, positive for 0.1 < y < 0.5 and 0 elsewhere; vy is 0.
    The wall nodes at y >= 0.4 are pinned to 0, so the inflow is cut off
    near its peak: at n=41 the top inlet node (y = 0.375) gets 0.919 and
    the wall node above it 0.  An affine map of the bump onto the inlet
    would make the data continuous, but would move every number after it.
    Near y = 0.1 the bump underflows to exactly 0 (for y up to about
    0.1 + 9.2e-4).  From n = 219 on (229, 239, ...; 184 of the odd n up to
    1001) the lowest tagged inlet node lies there and carries no inflow;
    ``test_every_inlet_node_takes_inflow`` covers n <= 81 only.
    """
    s = np.asarray(y, dtype=float) + _REMAP_SHIFT
    inside = (s > _PROFILE_LO) & (s < _PROFILE_HI)
    vx = np.zeros_like(s)
    ss = s[inside]
    vx[inside] = np.exp(-1e-4 / ((_PROFILE_LO - ss) * (_PROFILE_HI - ss)) ** 2)
    return vx, np.zeros_like(vx)


@dataclass
class FlowState:
    """Converged velocity/pressure pair on a mesh."""

    mesh: object
    velocity: np.ndarray  # (num_p2, 2)
    pressure: np.ndarray  # (num_p1,)
    residual_history: list = field(default_factory=list)
    divergence_norm: float = 0.0
    newton_iterations: int = 0


def _dirichlet_velocity(mesh):
    """Dirichlet node set and values: zero on walls, profile on the inlet."""
    fixed = np.flatnonzero((mesh.node_tags == WALL) | (mesh.node_tags == INLET))
    values = np.zeros((fixed.size, 2))
    inlet_sel = mesh.node_tags[fixed] == INLET
    values[inlet_sel] = np.column_stack(inlet_profile(mesh.p2_nodes[fixed[inlet_sel], 1]))
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


def _saddle_pattern(mesh, dx, dy, order):
    """Saddle matrix pattern in solve order, as CSC ``(indptr, indices, shape)``, and its gather map.

    Entry k of the pattern takes its value from entry ``source[k]`` of the
    source vector [xx, xy, yx, yy couplings, -Dx^T, -Dy^T, Dx, Dy] of
    ``_SaddleProblem.jacobian``.  Every index array is int32.
    """
    np2 = mesh.num_p2
    indptr, indices, _ = mesh.p2_couplings
    rows = np.repeat(np.arange(np2, dtype=np.int32), np.diff(indptr))
    dx, dy = dx.tocoo(), dy.tocoo()
    p = 2 * np2
    place = np.full(p + mesh.num_p1, -1, dtype=np.int32)
    place[order] = np.arange(order.size, dtype=np.int32)
    # Solve-order row and column of each source entry (-1 for a fixed unknown).
    r = place[np.concatenate([rows, rows, rows + np2, rows + np2, dx.col, dy.col + np2, dx.row + p, dy.row + p])]
    c = place[np.concatenate([indices, indices + np2, indices, indices + np2, dx.row + p, dy.row + p, dx.col, dy.col + np2])]
    kept = np.flatnonzero((r >= 0) & (c >= 0)).astype(np.int32)
    r, c = r[kept], c[kept]
    by_column = np.lexsort((r, c))
    col_ptr = np.zeros(order.size + 1, dtype=np.int32)
    np.cumsum(np.bincount(c, minlength=order.size), out=col_ptr[1:])
    return (col_ptr, r[by_column], (order.size, order.size)), kept[by_column]


class _SaddleProblem:
    """Assembled Taylor-Hood operators, boundary data and the solve order.

    The saddle matrix has one pattern in solve order, built once: the P2
    couplings (``mesh.p2_couplings``) in each of the four velocity blocks,
    and the divergence blocks.  ``fem`` assembles the viscous and convection
    matrices on those couplings, so a Jacobian gathers their ``data`` arrays
    and the divergence values into that pattern as they are, with no sparse
    assembly per Newton step.
    """

    def __init__(self, mesh, re):
        if not (np.isfinite(re) and re > 0):
            raise ValueError(f"Reynolds number must be positive and finite, got {re!r}")
        self.mesh = mesh
        self.visc = fem.assemble_stiffness(mesh) / re
        self.dx, self.dy = fem.assemble_divergence(mesh)
        self.fixed, self.fixed_values = _dirichlet_velocity(mesh)
        self._visc = self.visc.data
        self._div = np.concatenate([-self.dx.data, -self.dy.data, self.dx.data, self.dy.data])
        self.order = _saddle_order(mesh, self.fixed)
        self._pattern, self._source = _saddle_pattern(mesh, self.dx, self.dy, self.order)

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
        """Saddle matrix in solve order: Stokes without ``adv``, else the Newton Jacobian.

        Entries that vanish are dropped, so the Stokes matrix keeps the
        pattern of its viscous and divergence blocks alone.
        """
        if adv is None:
            zero = np.zeros_like(self._visc)
            velocity = [self._visc, zero, zero, self._visc]
        else:
            a = self._visc + adv.data
            velocity = [a + g[0, 0].data, g[0, 1].data, g[1, 0].data, a + g[1, 1].data]
        indptr, indices, shape = self._pattern
        data = np.concatenate(velocity + [self._div])[self._source]
        jac = sp.csc_matrix((data, indices.copy(), indptr.copy()), shape=shape)
        jac.eliminate_zeros()
        return jac

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
    return FlowState(
        mesh=prob.mesh,
        velocity=v,
        pressure=p,
        residual_history=[np.linalg.norm(prob.residual(v, p))],
        divergence_norm=prob.divergence_norm(v),
    )


def solve_stokes(mesh, re=1.0):
    """Steady Stokes flow as the Newton initial guess.

    The saddle-point system is solved directly; the stress-free outlet
    leaves no pressure nullspace.  The boundary data comes from the mesh
    tags.  ``re`` must be positive and finite (``ValueError``).  A singular
    system raises :class:`ConvergenceError`.
    """
    return _solve_stokes(_SaddleProblem(mesh, re))


def solve_navier_stokes(mesh, re=100.0, initial=None, max_iter=25):
    """Steady Navier-Stokes via Newton iteration on the full Jacobian.

    Starts from ``initial`` (default: the Stokes solution) and stops when
    the nonlinear residual has dropped by 1e-10 relative to the first
    iterate or below an absolute floor (the initial guess may already
    solve the problem); convergence is tested after every step, the last
    allowed one included.  Raises :class:`ConvergenceError`
    carrying the last residual when ``max_iter`` steps do not converge, or
    carrying the step and its residual when a Jacobian is singular.
    ``max_iter`` must be an integer >= 0 and not a bool, and ``initial``
    must hold a (num_p2, 2) velocity and a (num_p1,) pressure of ``mesh``
    (``ValueError``).
    """
    if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral) or max_iter < 0:
        raise ValueError(f"max_iter must be an integer >= 0, got {max_iter!r}")
    need = ((mesh.num_p2, 2), (mesh.num_p1,))
    if initial is not None and (shapes := (np.shape(initial.velocity), np.shape(initial.pressure))) != need:
        raise ValueError(f"initial state has shapes {shapes}, need {need}")
    prob = _SaddleProblem(mesh, re)
    if initial is None:
        initial = _solve_stokes(prob)
    v = initial.velocity.copy()
    p = initial.pressure.copy()
    # Enforce the boundary data exactly on the initial iterate.
    v[prob.fixed] = prob.fixed_values

    # The achievable residual floor scales with the viscous operator.
    atol_eff = 1e-12 * max(1.0, np.abs(prob.visc.data).max())
    adv, g = fem.assemble_convection(mesh, v)
    res = prob.residual(v, p, adv)
    scale = max(np.linalg.norm(res), atol_eff)
    history = [np.linalg.norm(res) / scale]
    step = 0
    while not (history[-1] <= _NEWTON_TOL or history[-1] * scale <= atol_eff):  # a NaN residual keeps stepping
        if step == max_iter:
            raise ConvergenceError(
                f"Navier-Stokes Newton did not reach {_NEWTON_TOL:g} in {max_iter} iterations",
                residual=history[-1],
                iterations=max_iter,
            )
        step += 1
        delta = prob.solve(prob.jacobian(adv, g), -res, f"Newton step {step}", residual=history[-1], iterations=step)
        v, p = prob.apply_update(v, p, delta)
        adv, g = fem.assemble_convection(mesh, v)
        res = prob.residual(v, p, adv)
        history.append(np.linalg.norm(res) / scale)
    return FlowState(
        mesh=mesh,
        velocity=v,
        pressure=p,
        residual_history=history,
        divergence_norm=prob.divergence_norm(v),
        newton_iterations=len(history) - 1,
    )


def restrict_velocity(flow, target_mesh):
    """Velocity coefficients of ``flow`` on a temperature mesh nested in its grid.

    The target P2 grid must be the flow grid or a coarsening of it by a
    whole ratio, ``(n_flow - 1) % (n - 1) == 0``; every target node is then
    a flow node, whose coefficients are copied exactly.  Any other mesh
    raises ``ValueError``.
    """
    src = flow.mesh
    if (src.n - 1) % (target_mesh.n - 1):
        raise ValueError(f"a mesh with n={target_mesh.n} is not nested in the flow grid with n={src.n}")
    ratio = (src.n - 1) // (target_mesh.n - 1)
    iy, ix = divmod(np.arange(target_mesh.num_p2), target_mesh.n)
    return flow.velocity[ratio * (iy * src.n + ix)]
