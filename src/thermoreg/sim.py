"""Closed-loop assembly, time integration, and tracking diagnostics.

The closed loop couples the sparse generalized plant with a small dense
controller.  Time stepping is the trapezoidal rule; the plant block of the
step matrix is factorized once by sparse LU with minimum-degree ordering on
its symmetric pattern (``MMD_AT_PLUS_A``), and because the plant/controller
coupling blocks have rank equal to the input/output dimensions, each step
costs one sparse back-substitution plus small dense algebra (block Schur
complement on the controller part).
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg import blas, lapack

from .errors import ConvergenceError
from .plant import PENCIL_ORDERING


# ---------------------------------------------------------------------------
# Exogenous signals

@dataclass(frozen=True)
class SignalSpec:
    """Finite cosine/sine expansions of the reference and disturbance.

    Coefficient arrays have shape (q, p) and (q, d); frequencies may
    include 0 for constant terms (plain evaluation), though controllers
    built here regulate only positive frequencies.
    """

    frequencies: tuple
    ref_cos: np.ndarray
    ref_sin: np.ndarray
    dist_cos: np.ndarray
    dist_sin: np.ndarray

    def __post_init__(self):
        q = len(self.frequencies)
        for name in ("ref_cos", "ref_sin", "dist_cos", "dist_sin"):
            arr = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            if arr.shape[0] != q:
                arr = arr.reshape(q, -1)
            object.__setattr__(self, name, arr)

    @property
    def p(self):
        return self.ref_cos.shape[1]

    @property
    def d(self):
        return self.dist_cos.shape[1]


def paper_signals():
    """Reference sin(t) + 2 cos(2t) and disturbance 1.5 cos(3t)."""
    return SignalSpec(
        frequencies=(1.0, 2.0, 3.0),
        ref_cos=[[0.0], [2.0], [0.0]],
        ref_sin=[[1.0], [0.0], [0.0]],
        dist_cos=[[0.0], [0.0], [1.5]],
        dist_sin=[[0.0], [0.0], [0.0]],
    )


def eval_signals(spec, t):
    """Evaluate (y_r, w_d) at time(s) ``t``; shapes (p, ...) and (d, ...)."""
    t = np.asarray(t, dtype=float)
    w = np.asarray(spec.frequencies, dtype=float)
    cos = np.cos(np.multiply.outer(w, t))  # (q, ...)
    sin = np.sin(np.multiply.outer(w, t))
    y_r = np.tensordot(spec.ref_cos.T, cos, axes=1) + np.tensordot(spec.ref_sin.T, sin, axes=1)
    w_d = np.tensordot(spec.dist_cos.T, cos, axes=1) + np.tensordot(spec.dist_sin.T, sin, axes=1)
    return y_r, w_d


# ---------------------------------------------------------------------------
# Closed loop

@dataclass
class ClosedLoop:
    """Generalized plant (sparse) in feedback with a dense controller.

    State x_e = (x, z); mass diag(M, I); drift [[A, B K], [G2 C, G1]];
    exogenous input (w_d, y_r) enters through [[B_d, 0], [0, -G2]] and the
    error reads e = C x - y_r (both feedthroughs vanish).
    """

    plant: object
    ctrl: object

    def __post_init__(self):
        p = self.plant.observation.shape[0]
        m = self.plant.control.shape[1]
        if self.ctrl.g2.shape[1] != p:
            raise ValueError(f"controller expects {self.ctrl.g2.shape[1]} errors, plant has {p} outputs")
        if self.ctrl.k.shape[0] != m:
            raise ValueError(f"controller produces {self.ctrl.k.shape[0]} inputs, plant takes {m}")

    @property
    def dims(self):
        return self.plant.drift.shape[0], self.ctrl.dim


def assemble_closed_loop(plant, ctrl):
    """Wire the plant and controller blocks; both stay in their native formats."""
    return ClosedLoop(plant=plant, ctrl=ctrl)


def zero_controller(p=1, m=1):
    """Trivial controller (K = 0, G2 = 0); closes the loop without feedback."""
    from .controller import ControllerRealization

    return ControllerRealization(
        g1=np.zeros((1, 1)), g2=np.zeros((1, p)), k=np.zeros((m, 1)), label="zero"
    )


def closed_loop_dense(cl):
    """Dense closed-loop drift in mass-normalized coordinates (desk scale)."""
    from .plant import to_standard_form

    std = to_standard_form(cl.plant)
    top = np.hstack([std.a, std.b @ cl.ctrl.k])
    bottom = np.hstack([cl.ctrl.g2 @ std.c, cl.ctrl.g1])
    return np.vstack([top, bottom])


def closed_loop_abscissa(cl):
    from .lti import spectral_abscissa

    return spectral_abscissa(closed_loop_dense(cl))


# ---------------------------------------------------------------------------
# Simulation

@dataclass
class SimulationResult:
    t: np.ndarray
    y: np.ndarray        # (nt, p)
    y_ref: np.ndarray    # (nt, p)
    error: np.ndarray    # (nt, p)
    u: np.ndarray        # (nt, m)
    theta_min: float
    theta_max: float
    snapshots: dict = field(default_factory=dict)  # time -> full P2 nodal field
    state_final: np.ndarray = None
    controller_final: np.ndarray = None
    controller_label: str = ""


def default_initial_state(plant):
    """Constant-1 temperature field: all retained coefficients are one.

    The wall values stay pinned at zero, which the Dirichlet reduction
    encodes by omission.
    """
    return np.ones(plant.drift.shape[0])


def simulate(cl, signals, t_end, dt, x0=None, z0=None, snapshot_times=()):
    """Trapezoidal integration of the closed loop over [0, t_end].

    The step system is solved through a block Schur complement: the plant
    block ``M/dt - A/2`` is factorized sparsely once, with the minimum-degree
    ordering on its symmetric pattern (``plant.PENCIL_ORDERING``), and the
    controller-size complement densely once.  Each step then costs one
    sparse solve, one sparse product and a few dense matrix-vector products.
    Exogenous signals are sampled at half-steps.  A snapshot at time ``ts``
    holds the field at the first step time at or after ``ts``.

    ``t_end`` must be a whole number of steps and every snapshot time must
    lie in ``[0, t_end]``; otherwise, and for non-finite initial states
    ``x0`` or ``z0``, ``ValueError`` is raised.  Raises
    :class:`ConvergenceError` with the index and time of the first step
    whose plant or controller state is non-finite.
    """
    if not (0.0 < dt <= t_end < np.inf):
        raise ValueError("need dt > 0 and finite t_end >= dt")
    steps = t_end / dt
    nsteps = int(round(steps))
    if abs(steps - nsteps) > 1e-9 * steps:
        raise ValueError(f"t_end={t_end} is not a whole number of steps dt={dt}")
    snap_left = sorted(float(ts) for ts in snapshot_times)
    if not all(0.0 <= ts <= t_end for ts in snap_left):
        raise ValueError(f"snapshot times must lie in [0, t_end={t_end}]")
    plant, ctrl = cl.plant, cl.ctrl
    n, nz = cl.dims
    m = plant.control.shape[1]
    p = plant.observation.shape[0]

    x = default_initial_state(plant) if x0 is None else np.asarray(x0, dtype=float).copy()
    z = np.zeros(nz) if z0 is None else np.asarray(z0, dtype=float).copy()
    if x.shape != (n,) or z.shape != (nz,):
        raise ValueError("initial state dimensions do not match the closed loop")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z))):
        raise ValueError("initial state must be finite")

    times = dt * np.arange(nsteps + 1)
    half_times = times[:-1] + 0.5 * dt
    y_ref_all, _ = eval_signals(signals, times)
    y_ref_half, w_d_half = eval_signals(signals, half_times)

    b_mat = plant.control            # (n, m)
    c_mat = plant.observation        # (p, n)
    g1, g2, k_mat = ctrl.g1, ctrl.g2, ctrl.k

    e_minus = (plant.mass / dt - 0.5 * plant.drift).tocsc()
    e_plus = (plant.mass / dt + 0.5 * plant.drift).tocsr()
    lu = spla.splu(e_minus, permc_spec=PENCIL_ORDERING)
    # x+ = E-^-1 b1 + (E-^-1 B) K z+ / 2, and b1 = E+ x + F [z; w_d].  Both
    # tall blocks are column-major, which is what BLAS gemv streams fastest.
    wk_half = np.asfortranarray(0.5 * lu.solve(b_mat) @ k_mat)               # (n, nz)
    f_mat = np.asfortranarray(np.hstack([0.5 * b_mat @ k_mat, plant.disturbance]))  # (n, nz + d)
    eye_z = np.eye(nz)
    schur = (eye_z / dt - 0.5 * g1) - 0.5 * g2 @ (c_mat @ wk_half)
    schur_lu, schur_piv, info = lapack.dgetrf(schur)
    if info > 0:
        raise ValueError(f"controller step matrix is singular for dt={dt}")
    gz_plus = eye_z / dt + 0.5 * g1
    g2_half = 0.5 * g2
    g2_ref = (g2 @ y_ref_half).T                         # (nsteps, nz)
    zw = np.empty(f_mat.shape[1])
    zw_dist = w_d_half.T                                 # (nsteps, d)

    y = np.empty((nsteps + 1, p))
    u = np.empty((nsteps + 1, m))
    cx = c_mat @ x
    y[0] = cx
    u[0] = k_mat @ z
    theta_min = min(0.0, x.min())
    theta_max = max(0.0, x.max())
    snapshots = {}
    while snap_left and snap_left[0] <= 1e-12:
        snapshots[snap_left.pop(0)] = plant.reduction.inflate(x)

    # During a blow-up the step products meet 0 * inf before the guard below
    # reports the step; numpy's warnings about that would only be noise.
    with np.errstate(invalid="ignore", over="ignore"):
        for i in range(nsteps):
            zw[:nz] = z
            zw[nz:] = zw_dist[i]
            b1 = blas.dgemv(1.0, f_mat, zw, beta=1.0, y=e_plus @ x, overwrite_y=True)
            y1 = lu.solve(b1)
            rhs_z = gz_plus @ z + g2_half @ (cx + c_mat @ y1) - g2_ref[i]
            # LAPACK carries a blow-up through to z and x without a check of
            # its own; the guard below reports it with its step.
            z = lapack.dgetrs(schur_lu, schur_piv, rhs_z)[0]
            x = blas.dgemv(1.0, wk_half, z, beta=1.0, y=y1, overwrite_y=True)
            # NaN propagates through min and +-inf shows in min or max, so
            # the extrema double as the finiteness check on x.
            x_lo, x_hi = x.min(), x.max()
            if not (math.isfinite(x_lo) and math.isfinite(x_hi) and np.isfinite(z).all()):
                raise ConvergenceError(f"non-finite state at step {i + 1} (t={times[i + 1]:.3f})")
            theta_min = min(theta_min, x_lo)
            theta_max = max(theta_max, x_hi)
            cx = c_mat @ x
            y[i + 1] = cx
            u[i + 1] = k_mat @ z
            while snap_left and snap_left[0] <= times[i + 1] + 1e-12:
                snapshots[snap_left.pop(0)] = plant.reduction.inflate(x)

    y_ref = y_ref_all.T
    return SimulationResult(
        t=times,
        y=y,
        y_ref=y_ref,
        error=y - y_ref,
        u=u,
        theta_min=float(theta_min),
        theta_max=float(theta_max),
        snapshots=snapshots,
        state_final=x,
        controller_final=z,
        controller_label=ctrl.label,
    )


# ---------------------------------------------------------------------------
# Diagnostics

@dataclass
class TrackingMetrics:
    sup_tail: float
    decay_rate: float
    theta_min: float
    theta_max: float


def window_max_error(res, t0, t1):
    """Largest error norm over the time window [t0, t1]."""
    sel = (res.t >= t0 - 1e-12) & (res.t <= t1 + 1e-12)
    if not np.any(sel):
        raise ValueError("window contains no samples")
    return float(np.max(np.linalg.norm(res.error[sel], axis=1)))


def tracking_metrics(res, tail_fraction=0.2):
    """Sup of the tail error, fitted envelope decay rate, state extrema.

    The decay rate is the least-squares slope of log peak-envelope of
    |e(t)|, or of log |e(t)| itself when fewer than two peaks stand out;
    identically zero error reports an infinite rate.  ``ValueError`` is
    raised when fewer than two samples carry a nonzero error.
    """
    if res.t.size == 0:
        raise ValueError("empty simulation result")
    enorm = np.linalg.norm(res.error, axis=1)
    t_tail = res.t[-1] - tail_fraction * (res.t[-1] - res.t[0])
    sup_tail = float(np.max(enorm[res.t >= t_tail - 1e-12]))

    emax = enorm.max()
    if emax < 1e-300:
        rate = np.inf
    else:
        interior = (enorm[1:-1] >= enorm[:-2]) & (enorm[1:-1] >= enorm[2:])
        idx = np.flatnonzero(interior) + 1
        idx = idx[enorm[idx] > emax * 1e-12]
        if idx.size < 2:
            idx = np.flatnonzero(enorm > emax * 1e-12)
        if idx.size < 2:
            raise ValueError("envelope fit needs at least two samples with nonzero error")
        rate = float(-np.polyfit(res.t[idx], np.log(enorm[idx]), 1)[0])
    return TrackingMetrics(
        sup_tail=sup_tail,
        decay_rate=rate,
        theta_min=res.theta_min,
        theta_max=res.theta_max,
    )


# ---------------------------------------------------------------------------
# Export

def save_trajectory(res, path):
    """Write ``t,y,y_r,e,u`` rows (single-output loops)."""
    if res.y.shape[1] != 1 or res.u.shape[1] != 1:
        raise ValueError("trajectory CSV export expects scalar input and output")
    with open(path, "w") as f:
        f.write("t,y,y_r,e,u\n")
        for i in range(res.t.size):
            f.write(
                f"{res.t[i]:.17g},{res.y[i, 0]:.17g},{res.y_ref[i, 0]:.17g},"
                f"{res.error[i, 0]:.17g},{res.u[i, 0]:.17g}\n"
            )


def save_snapshot(mesh, field_full, path):
    """Write ``x,y,theta`` per P2 node (wall zeros already reinstated)."""
    with open(path, "w") as f:
        f.write("x,y,theta\n")
        for (xx, yy), val in zip(mesh.p2_nodes, field_full):
            f.write(f"{xx:.17g},{yy:.17g},{val:.17g}\n")
