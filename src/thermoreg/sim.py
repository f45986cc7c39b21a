"""Closed-loop assembly, time integration, and tracking diagnostics.

The closed loop couples the sparse generalized plant with a small dense
controller; neither has a feedthrough term.  Its spectral abscissa comes
from the dense drift in mass-normalized coordinates (desk scale).  Time
stepping is the trapezoidal rule.  The plant block of the step matrix is
factorized once, transposed, by sparse LU with minimum-degree ordering on
its symmetric pattern (``MMD_AT_PLUS_A``), and solved in SuperLU's
transposed mode.  The plant/controller coupling has rank m + d
(inputs plus disturbances), so each step costs one sparse product, one
sparse solve, one rank-(m + d) update of the plant state and small dense
algebra on the controller (a block Schur complement).  Every run starts
from the experiment's initial state: the uniform temperature of
:func:`default_initial_state` and the controller at rest (z = 0).
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg import blas, lapack

from .errors import ConvergenceError
from .lti import spectral_abscissa
from .plant import PENCIL_ORDERING, to_standard_form


# ---------------------------------------------------------------------------
# Exogenous signals

@dataclass(frozen=True)
class SignalSpec:
    """Finite cosine/sine expansions of the reference and disturbance.

    Coefficient arrays have shape (q, p) and (q, d), with the cosine and
    sine arrays of one signal equally wide; any other shape, and any
    non-finite frequency or coefficient, raises ``ValueError``.
    Frequencies may include 0 for constant terms (plain evaluation), though
    controllers built here regulate only positive frequencies.
    """

    frequencies: tuple
    ref_cos: np.ndarray
    ref_sin: np.ndarray
    dist_cos: np.ndarray
    dist_sin: np.ndarray

    def __post_init__(self):
        q = len(self.frequencies)
        if not np.all(np.isfinite(np.asarray(self.frequencies, dtype=float))):
            raise ValueError(f"frequencies must be finite, got {self.frequencies!r}")
        for name in ("ref_cos", "ref_sin", "dist_cos", "dist_sin"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 2 or arr.shape[0] != q:
                raise ValueError(f"{name} must be 2-D with one row per frequency ({q}), got shape {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, arr)
        for cos, sin in ((self.ref_cos, self.ref_sin), (self.dist_cos, self.dist_sin)):
            if cos.shape != sin.shape:
                raise ValueError(f"cosine and sine coefficients differ in shape: {cos.shape} and {sin.shape}")


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


def assemble_closed_loop(plant, ctrl):
    """Wire the plant and controller blocks; both stay in their native formats."""
    return ClosedLoop(plant=plant, ctrl=ctrl)


def closed_loop_abscissa(cl):
    """Spectral abscissa of the dense closed-loop drift in mass-normalized coordinates."""
    std = to_standard_form(cl.plant)
    ctrl = cl.ctrl
    return spectral_abscissa(np.block([[std.a, std.b @ ctrl.k], [ctrl.g2 @ std.c, ctrl.g1]]))


# ---------------------------------------------------------------------------
# Simulation

@dataclass
class SimulationResult:
    """Sampled signals of :func:`simulate`, from the uniform temperature and the controller at rest."""

    t: np.ndarray
    y: np.ndarray        # (nt, p)
    error: np.ndarray    # (nt, p)
    u: np.ndarray        # (nt, m)


def default_initial_state(plant):
    """Constant-1 temperature field: all retained coefficients are one.

    The wall values stay pinned at zero, which the plant's coordinates
    encode by omission.
    """
    return np.ones(plant.drift.shape[0])


def simulate(cl, signals, t_end, dt):
    """Trapezoidal integration of the closed loop over [0, t_end].

    The plant starts from :func:`default_initial_state` and the controller
    from z = 0.

    The step system is solved through a block Schur complement.  The plant
    block ``E- = M/dt - A/2`` is factorized sparsely once, as its transpose
    with the minimum-degree ordering on its symmetric pattern
    (``plant.PENCIL_ORDERING``), and solved in SuperLU's transposed mode,
    which reads the factors faster.  The controller-size complement is
    factorized densely once.  The controller acts on the plant through
    ``S [B, B_d]`` with ``S = E-^-1``, an n x (m + d) block, so each step
    costs one sparse product, one sparse solve, one rank-(m + d) update and
    a few controller-size products.
    Exogenous signals are sampled at half-steps.  No temperature field is
    kept along the way: the result holds y, u and the error.

    ``t_end`` must be a whole number of steps, and the signals as wide as
    the plant's outputs and disturbance inputs; otherwise ``ValueError`` is
    raised.  Raises :class:`ConvergenceError` with the index and time of the
    first step whose plant or controller state is non-finite.
    """
    if not (0.0 < dt <= t_end < np.inf):
        raise ValueError("need dt > 0 and finite t_end >= dt")
    steps = t_end / dt
    nsteps = int(round(steps))
    if abs(steps - nsteps) > 1e-9 * steps:
        raise ValueError(f"t_end={t_end} is not a whole number of steps dt={dt}")
    plant, ctrl = cl.plant, cl.ctrl
    nz = ctrl.dim
    m = plant.control.shape[1]
    p = plant.observation.shape[0]
    d = plant.disturbance.shape[1]
    widths = (signals.ref_cos.shape[1], signals.dist_cos.shape[1])
    if widths != (p, d):
        raise ValueError(f"signals have (reference, disturbance) widths {widths}, the plant needs {(p, d)}")

    x = default_initial_state(plant)
    z = np.zeros(nz)

    times = dt * np.arange(nsteps + 1)
    half_times = times[:-1] + 0.5 * dt
    y_ref_all, _ = eval_signals(signals, times)
    y_ref_half, w_d_half = eval_signals(signals, half_times)

    b_mat = plant.control            # (n, m)
    c_mat = plant.observation        # (p, n)
    g1, g2, k_mat = ctrl.g1, ctrl.g2, ctrl.k

    # SuperLU's transposed solve reads L and U by gathers instead of
    # scatters, so the pencil E- = M/dt - A/2 is factored transposed and
    # solved with "T".
    lu = spla.splu((plant.mass / dt - 0.5 * plant.drift).T.tocsc(), permc_spec=PENCIL_ORDERING)
    # E- x+ = E+ x + B K (z + z+) / 2 + B_d w_d, so with S = E-^-1 and
    # v = [K (z + z+); w_d], x+ = h + S [B/2, B_d] v, where
    # h = S E+ x = S (2 M / dt) x - x because E+ = 2 M / dt - E-, so no
    # second pencil is stored.  The coupling has rank m + d: only the
    # n x (m + d) block S [B/2, B_d] is kept.
    mass2 = plant.mass * (2.0 / dt)
    sbb = np.asfortranarray(lu.solve(np.hstack([0.5 * b_mat, plant.disturbance]), trans="T"))
    csbb = c_mat @ sbb                                   # (p, m + d)
    # Controller step: (I/dt - G1/2) z+ - G2 C (x + x+) / 2 = (I/dt + G1/2) z - G2 y_r,
    # with C x+ = C h + C S [B/2, B_d] v.  Its matrices are I/dt -+ P with
    # P = G1/2 + G2 C S B K / 4.  The LU of I/dt - P overwrites its
    # column-major input, so only two nz x nz arrays are kept.
    g2_half = 0.5 * g2
    gz = 0.5 * g1
    gz += g2_half @ csbb[:, :m] @ k_mat
    schur = np.negative(gz, order="F")
    schur.flat[:: nz + 1] += 1.0 / dt
    schur_lu, schur_piv, info = lapack.dgetrf(schur, overwrite_a=True)
    if info > 0:
        raise ValueError(f"controller step matrix is singular for dt={dt}")
    gz.flat[:: nz + 1] += 1.0 / dt
    # With cx = C x and ch = C h, the right-hand side is
    # (I/dt + P) z + G2 (cx + ch + C S B_d w_d - 2 y_r) / 2.
    forcing = (csbb[:, m:] @ w_d_half - 2.0 * y_ref_half).T  # (nsteps, p)
    v_all = np.zeros((nsteps, m + d))
    v_all[:, m:] = w_d_half.T

    y = np.empty((nsteps + 1, p))
    u = np.empty((nsteps + 1, m))
    cx = c_mat @ x
    y[0] = cx
    u[0] = k_mat @ z

    # During a blow-up the step products meet 0 * inf before the guard below
    # reports the step; numpy's warnings about that would only be noise.
    with np.errstate(invalid="ignore", over="ignore"):
        for i in range(nsteps):
            h = lu.solve(mass2 @ x, trans="T")
            h -= x
            ch = c_mat @ h
            # LAPACK carries a blow-up through to z and x without a check of
            # its own; the guard below reports it with its step.
            z = lapack.dgetrs(schur_lu, schur_piv, gz @ z + g2_half @ (cx + ch + forcing[i]))[0]
            uz = k_mat @ z
            v = v_all[i]
            v[:m] = u[i] + uz
            x = blas.dgemv(1.0, sbb, v, beta=1.0, y=h, overwrite_y=True)
            if not (np.isfinite(x).all() and np.isfinite(z).all()):
                raise ConvergenceError(f"non-finite state at step {i + 1} (t={times[i + 1]:.3f})")
            cx = ch + csbb @ v
            y[i + 1] = cx
            u[i + 1] = uz

    return SimulationResult(t=times, y=y, error=y - y_ref_all.T, u=u)


# ---------------------------------------------------------------------------
# Diagnostics

@dataclass
class TrackingMetrics:
    sup_tail: float
    decay_rate: float


def window_max_error(res, t0, t1):
    """Largest error norm over the time window [t0, t1]."""
    sel = (res.t >= t0 - 1e-12) & (res.t <= t1 + 1e-12)
    if not np.any(sel):
        raise ValueError("window contains no samples")
    return float(np.max(np.linalg.norm(res.error[sel], axis=1)))


def tracking_metrics(res):
    """Sup of the tail error and fitted envelope decay rate.

    The tail is the last fifth of the simulated horizon.  The decay rate
    is the least-squares slope of log peak-envelope of |e(t)|, or of
    log |e(t)| itself when fewer than two peaks stand out;
    identically zero error reports an infinite rate.  ``ValueError`` is
    raised when fewer than two samples carry a nonzero error.
    """
    if res.t.size == 0:
        raise ValueError("empty simulation result")
    enorm = np.linalg.norm(res.error, axis=1)
    t_tail = res.t[-1] - 0.2 * (res.t[-1] - res.t[0])
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
    return TrackingMetrics(sup_tail=sup_tail, decay_rate=rate)

