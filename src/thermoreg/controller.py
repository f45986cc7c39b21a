"""Robust output-regulation controllers built around an internal model.

Two designs are provided.  The dual observer-based controller combines a
state-feedback gain from a shifted control Riccati equation, an output
injection computed from the filter Riccati equation of the internal
model/plant cascade, and a balanced-truncation reduction of the
stabilized observer system.  Both Riccati equations have unit weights and
the decay margin ``_DECAY_MARGIN``.  The low-gain controller only needs plant
transfer values at the regulated frequencies.  Both controllers carry a
copy of the signal dynamics (eigenvalues +-i w_k), which is what makes
the regulation robust to plant perturbations.
"""

import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import lti
from .lti import StateSpace

# Shift of both Riccati equations of the dual observer design: each closed
# loop decays faster than exp(-_DECAY_MARGIN t).
_DECAY_MARGIN = 1.0


@dataclass(frozen=True)
class InternalModel:
    """Block-skew realization of the signal dynamics.

    ``g1`` is block diagonal with blocks [[0, w I_p], [-w I_p, 0]] and
    ``k1`` stacks [I_p, 0_p] horizontally, one pair per frequency.
    """

    g1: np.ndarray
    k1: np.ndarray
    frequencies: tuple
    p: int

    @property
    def dim(self):
        return self.g1.shape[0]


def build_internal_model(frequencies, p=1):
    """Internal model for one or more distinct positive finite frequencies and an integer output dimension p >= 1.

    K1 observes every such model (Hautus): G1's eigenvectors for +-i w_k are ``[a; +-i a]`` on the
    block of w_k, and K1 maps them to ``a``.  Other input raises ``ValueError``.
    """
    freqs = tuple(float(w) for w in frequencies)
    if isinstance(p, bool) or not isinstance(p, numbers.Integral) or p < 1:
        raise ValueError(f"output dimension must be an integer of at least 1, got {p!r}")
    if not freqs:
        raise ValueError("an internal model needs at least one frequency")
    if not all(np.isfinite(w) and w > 0 for w in freqs):
        raise ValueError(f"frequencies must be positive and finite, got {freqs}")
    if len(set(freqs)) != len(freqs):
        raise ValueError("frequencies must be distinct")
    q = len(freqs)
    dim = 2 * p * q
    g1 = np.zeros((dim, dim))
    k1 = np.zeros((p, dim))
    eye = np.eye(p)
    for k, w in enumerate(freqs):
        base = 2 * p * k
        g1[base : base + p, base + p : base + 2 * p] = w * eye
        g1[base + p : base + 2 * p, base : base + p] = -w * eye
        k1[:, base : base + p] = eye
    return InternalModel(g1=g1, k1=k1, frequencies=freqs, p=p)


@dataclass
class ControllerRealization:
    """Finite-dimensional error-feedback controller (G1, G2, K)."""

    g1: np.ndarray  # state matrix
    g2: np.ndarray  # error input map
    k: np.ndarray   # control output map

    @property
    def dim(self):
        return self.g1.shape[0]

    def as_statespace(self):
        """Controller transfer function u = K (sI - G1)^-1 G2 e as a StateSpace (G1, G2, K)."""
        return StateSpace(a=self.g1, b=self.g2, c=self.k)


@dataclass
class DualObserverSynthesis:
    """Full and reduced controllers plus the synthesis diagnostics."""

    full: ControllerRealization
    reduced: ControllerRealization
    reduction: lti.BalancedReduction
    control_riccati: lti.RiccatiSolution
    filter_riccati: lti.RiccatiSolution


def _wire_dual(im, g2n, a_k, l_gain, c_k, k2):
    """Assemble the controller equations around the internal model.

    z1' = G1 z1 + G2 C_K z2 + G2 e
    z2' = (A_K + L C_K) z2 + L e
    u   = K1 z1 - K2 z2
    """
    nz = im.dim + a_k.shape[0]
    g1 = np.zeros((nz, nz))
    g1[: im.dim, : im.dim] = im.g1
    g1[: im.dim, im.dim :] = g2n @ c_k
    g1[im.dim :, im.dim :] = a_k + l_gain @ c_k
    g2 = np.vstack([g2n, l_gain])
    k = np.hstack([im.k1, -k2])
    return ControllerRealization(g1=g1, g2=g2, k=k)


def _cascade_schur(im, b, t, z):
    """Real Schur pair ``(T_s, Z_s)`` of the cascade ``[[G1, 0], [B K1, A]]``.

    Built from ``A^T = Z T Z^T`` as :func:`synthesize_dual_observer`
    describes, unshifted and in Fortran order; ``t`` and ``z`` are only read.
    """
    n, d = t.shape[0], im.dim
    t_g, z_g = sla.schur(im.g1, output="real")
    z_rev = z[:, ::-1]
    t_s = np.zeros((n + d, n + d), order="F")
    t_s[:n, :n] = t.T[::-1, ::-1]
    t_s[:n, n:] = z_rev.T @ (b @ (im.k1 @ z_g))
    t_s[n:, n:] = t_g
    z_s = np.zeros((n + d, n + d), order="F")
    z_s[:d, n:] = z_g
    z_s[d:, :n] = z_rev
    return t_s, z_s


def synthesize_dual_observer(design, im, r=10):
    """Dual observer-based controller from a standard-form design plant.

    The state feedback solves
    ``(A + aI)^T X + X (A + aI) - X B B^T X + I = 0`` and the output
    injection the filter equation of the cascade ``(A_s, C_s)``, both with
    ``a = _DECAY_MARGIN`` and identity weights on the design space
    (mass-weighted coordinates).  Only this function knows ``a``: :mod:`lti`
    solves on the drifts ``A + aI`` and ``A_s + aI``, so a negative
    ``closed_loop_decay`` certifies decay faster than ``exp(-a t)``.  ``r``
    must pass :func:`lti.check_reduced_order` with N.  Returns the unreduced
    controller of order ``im.dim + N``, the balanced-truncated controller of
    order ``im.dim + r``, and the reduction diagnostics.

    One order-N real Schur form, ``A^T = Z T Z^T``, serves both Riccati
    initializers.  The control solve takes it shifted.  The internal
    model/plant cascade ``[[G1, 0], [B K1, A]]`` is block lower-triangular,
    so its Schur pair follows from that form and a small one of
    ``G1 = Z_g T_g Z_g^T``: with P the order reversal,
    ``A = (Z P)(P T^T P)(Z P)^T``, where ``P T^T P`` is again
    quasi-upper-triangular with standardized 2x2 blocks, and the cascade in
    its (internal model, plant) state order is ``Z_s T_s Z_s^T`` with
    ``T_s = [[P T^T P, (Z P)^T B K1 Z_g], [0, T_g]]`` and
    ``Z_s = [[0, Z_g], [Z P, 0]]``.  The shift adds ``a`` to the diagonals of
    T and T_s.  Both pairs are overwritten by the solves that take them.

    The order-N arrays are built in the order they are needed, and each is
    dropped after its last use: the Schur form of ``A^T`` and the cascade's
    pair from it; the shifted drift ``A + aI`` (a copy with its diagonal
    shifted), which lives only through the control solve; the cascade drift
    ``A_s + aI``, built after that solve and dropped after the filter solve;
    then the BT input ``A + B K2``.  Each Schur pair is handed to its solve
    with no reference kept here, so the solve releases it after its first
    exact step.
    """
    n = design.order
    p = design.c.shape[0]
    if design.b.shape[1] != p:
        raise ValueError("dual observer design requires as many inputs as outputs")
    if p != im.p:
        raise ValueError("internal model output dimension does not match the plant")
    lti.check_reduced_order(r, n)  # before the Riccati solves, not after them

    # (o) the one order-N Schur form, and the cascade's pair built from it,
    # both shifted by the margin.  Each pair is popped into the solve that
    # takes it, so no reference is left here and the solve releases it.
    t, z = sla.schur(design.a.T, output="real")
    t_s, z_s = _cascade_schur(im, design.b, t, z)
    for shifted in (t, t_s):
        shifted[np.diag_indices_from(shifted)] += _DECAY_MARGIN
    pairs = [(t, z), (t_s, z_s)]
    del t, z, t_s, z_s, shifted

    # (i) state feedback from the control Riccati equation
    a_shift = design.a.copy()
    a_shift[np.diag_indices(n)] += _DECAY_MARGIN
    ctrl_sol = lti.solve_riccati_control(a_shift, design.b, schur=pairs.pop(0))
    del a_shift
    k2 = -design.b.T @ ctrl_sol.x

    # (ii) output injection from the filter Riccati equation of the internal
    # model / plant cascade
    ns = im.dim + n
    a_s = np.zeros((ns, ns))
    a_s[: im.dim, : im.dim] = im.g1
    a_s[im.dim :, : im.dim] = design.b @ im.k1
    a_s[im.dim :, im.dim :] = design.a
    a_s[np.diag_indices_from(a_s)] += _DECAY_MARGIN
    c_s = np.hstack([np.zeros((p, im.dim)), design.c])
    fil_sol = lti.solve_riccati_filter(a_s, c_s, schur=pairs.pop())
    del a_s
    g2l = -fil_sol.x @ c_s.T
    g2n = g2l[: im.dim]
    l_n = g2l[im.dim :]

    # (iii) balanced truncation of the stabilized observer system
    a_kn = design.a + design.b @ k2
    bt_input = StateSpace(a=a_kn, b=l_n, c=np.vstack([design.c, k2]))
    reduction = lti.balanced_truncation(bt_input, r)
    c_kr = reduction.system.c[:p]
    k2r = reduction.system.c[p:]

    # (iv) wire both realizations
    full = _wire_dual(im, g2n, a_kn, l_n, design.c, k2)
    reduced = _wire_dual(im, g2n, reduction.system.a, reduction.system.b, c_kr, k2r)
    return DualObserverSynthesis(
        full=full,
        reduced=reduced,
        reduction=reduction,
        control_riccati=ctrl_sol,
        filter_riccati=fil_sol,
    )


def synthesize_low_gain(transfer_values, frequencies, eps):
    """Low-gain robust controller from plant transfer values at +-i w_k.

    G1 is the internal model, G2 stacks [-I_p; 0_p] blocks, and
    K = eps * [Re(P(iw_k)^-1), Im(P(iw_k)^-1)]_k, with ``eps`` positive and finite
    and every value a finite, invertible p x p matrix (``ValueError`` otherwise);
    p is the row count of the first value.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"low-gain parameter must be positive and finite, got {eps!r}")
    values = [np.atleast_2d(np.asarray(v)) for v in transfer_values]
    p = values[0].shape[0] if values else 1
    im = build_internal_model(frequencies, p)
    q = len(im.frequencies)
    if len(values) != q:
        raise ValueError("need one transfer value per frequency")
    g2 = np.zeros((im.dim, p))
    k0 = np.zeros((p, im.dim))
    for j, pval in enumerate(values):
        w = im.frequencies[j]
        if pval.shape != (p, p):
            raise ValueError(f"plant transfer value at frequency {w} has shape {pval.shape}, need {(p, p)}")
        if not np.all(np.isfinite(pval)):
            raise ValueError(f"plant transfer value at frequency {w} is not finite")
        cond = np.linalg.cond(pval)
        if not np.isfinite(cond) or cond > 1e12:
            raise ValueError(
                f"plant transfer value at frequency {w} is singular "
                "(transmission zero at a regulated frequency)"
            )
        pinv = np.linalg.inv(pval)
        base = 2 * p * j
        g2[base : base + p] = -np.eye(p)
        k0[:, base : base + p] = pinv.real
        k0[:, base + p : base + 2 * p] = pinv.imag
    return ControllerRealization(g1=im.g1, g2=g2, k=eps * k0)


def internal_model_eigenvalues_present(ctrl, frequencies, tol=1e-8):
    """Check that +-i w_k all appear in the controller state-matrix spectrum (``ValueError`` for no w_k)."""
    if len(frequencies) == 0:  # all([]) would pass any controller
        raise ValueError("the internal-model check needs at least one frequency")
    eigs = np.linalg.eigvals(ctrl.g1)
    targets = [1j * w for w in frequencies] + [-1j * w for w in frequencies]
    return all(np.min(np.abs(eigs - t)) < tol for t in targets)

