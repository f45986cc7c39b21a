"""Closed-loop assembly, time integration, and tracking diagnostics.

The closed loop couples the sparse generalized plant with a small dense
controller.  Time stepping is the trapezoidal rule; the step matrix is
factorized once, and because the plant/controller coupling blocks have
rank equal to the input/output dimensions, each step costs one sparse
back-substitution plus small dense algebra (block Schur complement on
the controller part).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .errors import ConvergenceError


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
    block ``M/dt - A/2`` is factorized sparsely once, the controller-size
    complement densely once.  Exogenous signals are sampled at half-steps.

    Raises :class:`ConvergenceError` with the index and time of the first
    step whose plant or controller state is non-finite.  Non-finite initial
    states ``x0`` or ``z0`` raise ``ValueError``.
    """
    if dt <= 0 or t_end < dt:
        raise ValueError("need dt > 0 and t_end >= dt")
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

    nsteps = int(round(t_end / dt))
    times = dt * np.arange(nsteps + 1)
    half_times = times[:-1] + 0.5 * dt
    y_ref_all, w_d_all = eval_signals(signals, times)
    y_ref_half, w_d_half = eval_signals(signals, half_times)

    b_mat = plant.control            # (n, m)
    bd_mat = plant.disturbance       # (n, d)
    c_mat = plant.observation        # (p, n)
    g1, g2, k_mat = ctrl.g1, ctrl.g2, ctrl.k

    e_minus = (plant.mass / dt - 0.5 * plant.drift).tocsc()
    e_plus = (plant.mass / dt + 0.5 * plant.drift).tocsr()
    lu = spla.splu(e_minus)
    w_cols = lu.solve(b_mat)         # E11^-1 B, (n, m)
    eye_z = np.eye(nz)
    schur = (eye_z / dt - 0.5 * g1) - 0.25 * g2 @ (c_mat @ w_cols) @ k_mat
    schur_lu = sla.lu_factor(schur)
    gz_plus = eye_z / dt + 0.5 * g1

    y = np.empty((nsteps + 1, p))
    u = np.empty((nsteps + 1, m))
    theta_min = min(0.0, x.min())
    theta_max = max(0.0, x.max())
    snapshots = {}
    snap_left = sorted(float(ts) for ts in snapshot_times)

    def record(i):
        y[i] = c_mat @ x
        u[i] = k_mat @ z

    record(0)
    # During a blow-up the step products meet 0 * inf before the guard below
    # reports the step; numpy's warnings about that would only be noise.
    with np.errstate(invalid="ignore", over="ignore"):
        for i in range(nsteps):
            b1 = e_plus @ x + 0.5 * b_mat @ (k_mat @ z) + bd_mat @ w_d_half[:, i]
            b2 = gz_plus @ z + g2 @ (0.5 * (c_mat @ x) - y_ref_half[:, i])
            y1 = lu.solve(b1)
            rhs_z = b2 + 0.5 * g2 @ (c_mat @ y1)
            # No scipy finiteness scan: a blow-up passes through to z and x and
            # is reported by the guard below with its step.
            z = sla.lu_solve(schur_lu, rhs_z, check_finite=False)
            x = y1 + 0.5 * w_cols @ (k_mat @ z)
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z))):
                raise ConvergenceError(f"non-finite state at step {i + 1} (t={times[i + 1]:.3f})")
            theta_min = min(theta_min, x.min())
            theta_max = max(theta_max, x.max())
            record(i + 1)
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
    |e(t)|; identically zero error reports an infinite rate.
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
        if idx.size >= 2:
            slope = np.polyfit(res.t[idx], np.log(enorm[idx]), 1)[0]
            rate = float(-slope)
        else:
            good = enorm > emax * 1e-12
            slope = np.polyfit(res.t[good], np.log(enorm[good]), 1)[0]
            rate = float(-slope)
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
