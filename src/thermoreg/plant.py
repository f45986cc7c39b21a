"""Discretized temperature dynamics as a generalized state-space plant.

The semidiscrete model is ``M theta' = A theta + B u + B_d w_d`` with
``y = C theta`` on the P2 nodes off the walls (pinned at zero), where
``A = -(alpha K + N)`` combines diffusion (alpha = 1/(Re Pr)) and
advection by the steady flow field.  The Neumann disturbance enters
directly as the alpha-scaled inlet boundary load, so both feedthrough
terms vanish.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fem
from .flow import restrict_velocity
from .lti import StateSpace
from .mesh import INLET, WALL

# Column ordering for sparse LU of pencils ``a M + b A``: the P2 pattern is
# structurally symmetric, and minimum degree on A + A^T (George & Liu) gives
# less fill than the default COLAMD.
PENCIL_ORDERING = "MMD_AT_PLUS_A"


@dataclass
class GeneralizedPlant:
    """Mass-matrix form ``M x' = A x + B u + B_d w_d``, ``y = C x``; x holds the non-wall nodes."""

    mass: sp.csr_matrix
    drift: sp.csr_matrix
    control: np.ndarray       # (n, m)
    disturbance: np.ndarray   # (n, d)
    observation: np.ndarray   # (p, n)


def build_plant(mesh, flow_state, re, pr, control_shape, disturbance_shape, observation_shape):
    """Assemble the plant on the non-wall nodes of ``mesh`` for the given shapes.

    The flow field is copied onto ``mesh``, which must be the flow grid or
    nested in it (:func:`flow.restrict_velocity`, ``ValueError`` otherwise).
    Each shape yields one column of B and B_d, or one row of C.  ``re`` and
    ``pr`` must be positive and finite (``ValueError``).
    """
    if not all(np.isfinite(v) and v > 0 for v in (re, pr)):
        raise ValueError(f"Re and Pr must be positive and finite, got {re!r} and {pr!r}")
    alpha = 1.0 / (re * pr)
    velocity = restrict_velocity(flow_state, mesh)

    mass = fem.assemble_mass(mesh)
    stiff = fem.assemble_stiffness(mesh)
    adv = fem.assemble_advection(mesh, velocity)
    drift_full = (-(alpha * stiff + adv)).tocsr()

    b_full = fem.assemble_load_domain(mesh, control_shape)
    bd_full = alpha * fem.assemble_load_boundary(mesh, INLET, disturbance_shape)
    c_full = fem.assemble_load_domain(mesh, observation_shape)

    free = np.flatnonzero(mesh.node_tags != WALL)
    return GeneralizedPlant(
        mass=mass[free][:, free].tocsr(),
        drift=drift_full[free][:, free].tocsr(),
        control=b_full[free][:, None],
        disturbance=bd_full[free][:, None],
        observation=c_full[free][None, :],
    )


def to_standard_form(plant):
    """Congruence by the mass Cholesky factor: x_std = L^T x.

    Returns the dense StateSpace (L^-1 A L^-T, L^-1 B, C L^-T), which has
    the same transfer function as the generalized plant (``ValueError``
    unless M is positive definite).
    """
    try:
        chol = sla.cholesky(plant.mass.toarray(), lower=True)
    except sla.LinAlgError as exc:
        raise ValueError(f"mass matrix is not positive definite: {exc}") from exc
    half = sla.solve_triangular(chol, plant.drift.toarray(), lower=True)
    a_std = sla.solve_triangular(chol, half.T, lower=True).T
    b_std = sla.solve_triangular(chol, plant.control, lower=True)
    c_std = sla.solve_triangular(chol, plant.observation.T, lower=True).T
    return StateSpace(a=a_std, b=b_std, c=c_std)


def transfer_value(plant, s):
    """Transfer matrix P(s) = C (sM - A)^-1 B via one sparse LU.

    A non-finite shift and a shift at an eigenvalue of the plant raise
    ``ValueError``.
    """
    if not np.isfinite(s):
        raise ValueError(f"shift {s} is not finite")
    shifted = (s * plant.mass - plant.drift).tocsc()
    try:
        lu = spla.splu(shifted.astype(np.complex128), permc_spec=PENCIL_ORDERING)
    except RuntimeError as exc:
        raise ValueError(f"shift {s} is singular (eigenvalue of the plant): {exc}") from exc
    return plant.observation @ lu.solve(plant.control.astype(np.complex128))

