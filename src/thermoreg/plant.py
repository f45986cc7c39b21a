"""Discretized temperature dynamics as a generalized state-space plant.

The semidiscrete model is ``M theta' = A theta + B u + B_d w_d`` with
``y = C theta`` on the wall-eliminated P2 degrees of freedom, where
``A = -(alpha K + N)`` combines diffusion (alpha = 1/(Re Pr)) and
advection by the steady flow field.  The Neumann disturbance enters
directly as the alpha-scaled inlet boundary load, so both feedthrough
terms vanish.
"""

import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fem
from .flow import restrict_velocity
from .mesh import INLET

_DENSE_EIG_LIMIT = 2000
# Column ordering for sparse LU of pencils ``a M + b A``: the P2 pattern is
# structurally symmetric, and minimum degree on A + A^T (George & Liu) gives
# less fill than the default COLAMD.
PENCIL_ORDERING = "MMD_AT_PLUS_A"


@dataclass
class GeneralizedPlant:
    """Mass-matrix form ``M x' = A x + B u + B_d w_d``, ``y = C x``."""

    mass: sp.csr_matrix
    drift: sp.csr_matrix
    control: np.ndarray       # (n, m)
    disturbance: np.ndarray   # (n, d)
    observation: np.ndarray   # (p, n)
    reduction: fem.DirichletReduction
    mesh: object
    re: float
    pr: float

    @property
    def alpha(self):
        return 1.0 / (self.re * self.pr)

    @property
    def dims(self):
        return {
            "state": self.drift.shape[0],
            "inputs": self.control.shape[1],
            "outputs": self.observation.shape[0],
            "disturbances": self.disturbance.shape[1],
        }


@dataclass
class StateSpace:
    """Dense standard-form system (A, B, C, D)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    @property
    def order(self):
        return self.a.shape[0]

    def transfer(self, s):
        """Transfer value C (sI - A)^-1 B + D at one complex frequency."""
        n = self.order
        x = np.linalg.solve(s * np.eye(n) - self.a, self.b)
        return self.c @ x + self.d


def build_plant(mesh, flow_state, re, pr, control_shape, disturbance_shape, observation_shape):
    """Assemble the Dirichlet-reduced plant for the given shapes.

    The flow field is restricted onto ``mesh`` (exact on nested grids).
    ``observation_shape`` may be a single ShapeSpec or a sequence; each
    yields one output row.
    """
    if re <= 0 or pr <= 0:
        raise ValueError("Re and Pr must be positive")
    alpha = 1.0 / (re * pr)
    velocity = restrict_velocity(flow_state, mesh)

    mass = fem.assemble_mass(mesh, "P2")
    stiff = fem.assemble_stiffness(mesh, "P2")
    adv = fem.assemble_advection(mesh, velocity)
    drift_full = (-(alpha * stiff + adv)).tocsr()

    b_full = fem.assemble_load_domain(mesh, control_shape)
    bd_full = alpha * fem.assemble_load_boundary(mesh, INLET, disturbance_shape)
    obs_shapes = observation_shape if isinstance(observation_shape, (list, tuple)) else [observation_shape]
    c_full = np.stack([fem.assemble_load_domain(mesh, s) for s in obs_shapes])

    red = fem.dirichlet_reduction(mesh)
    return GeneralizedPlant(
        mass=red.matrix(mass),
        drift=red.matrix(drift_full),
        control=red.vector(b_full)[:, None],
        disturbance=red.vector(bd_full)[:, None],
        observation=c_full[:, red.free],
        reduction=red,
        mesh=mesh,
        re=re,
        pr=pr,
    )


def mass_cholesky(plant):
    """Lower Cholesky factor of the mass matrix (dense)."""
    return sla.cholesky(plant.mass.toarray(), lower=True)


def to_standard_form(plant):
    """Congruence by the mass Cholesky factor: x_std = L^T x.

    Returns the dense StateSpace (L^-1 A L^-T, L^-1 B, C L^-T, 0), which
    has the same transfer function as the generalized plant.
    """
    try:
        chol = mass_cholesky(plant)
    except sla.LinAlgError as exc:
        raise RuntimeError(f"mass matrix is not positive definite: {exc}") from exc
    half = sla.solve_triangular(chol, plant.drift.toarray(), lower=True)
    a_std = sla.solve_triangular(chol, half.T, lower=True).T
    b_std = sla.solve_triangular(chol, plant.control, lower=True)
    c_std = sla.solve_triangular(chol, plant.observation.T, lower=True).T
    p, m = plant.observation.shape[0], plant.control.shape[1]
    return StateSpace(a=a_std, b=b_std, c=c_std, d=np.zeros((p, m)))


def rightmost_spectrum(plant, k=1, shift=0.0):
    """The ``k`` eigenvalues of (A, M) with largest real part.

    Uses a dense solve below 2000 states and shift-inverted Arnoldi above;
    the shift targets eigenvalues near the origin, where the slow modes of
    the dissipative transport operator live.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = plant.drift.shape[0]
    if n <= _DENSE_EIG_LIMIT:
        eigs = np.linalg.eigvals(to_standard_form(plant).a)
    else:
        howmany = min(n - 2, max(2 * k, 20))
        eigs = spla.eigs(
            plant.drift.tocsc(),
            k=howmany,
            M=plant.mass.tocsc(),
            sigma=shift,
            which="LM",
            return_eigenvectors=False,
        )
    order = np.argsort(-eigs.real)
    return eigs[order[:k]]


def transfer_value(plant, s):
    """Transfer matrix P(s) = C (sM - A)^-1 B via one sparse solve per column."""
    shifted = (s * plant.mass - plant.drift).tocsc()
    try:
        lu = spla.splu(shifted.astype(np.complex128), permc_spec=PENCIL_ORDERING)
    except RuntimeError as exc:
        raise RuntimeError(f"shift {s} is singular (eigenvalue of the plant): {exc}") from exc
    cols = [lu.solve(plant.control[:, j].astype(np.complex128)) for j in range(plant.control.shape[1])]
    return plant.observation @ np.column_stack(cols)


def save_plant(plant, outdir):
    """Matrix coordinate files plus a JSON metadata sidecar."""
    import os

    os.makedirs(outdir, exist_ok=True)
    fem.export_matrix_coo(plant.mass, os.path.join(outdir, "mass.coo"))
    fem.export_matrix_coo(plant.drift, os.path.join(outdir, "drift.coo"))
    fem.export_matrix_coo(sp.csr_matrix(plant.control), os.path.join(outdir, "control.coo"))
    fem.export_matrix_coo(sp.csr_matrix(plant.disturbance), os.path.join(outdir, "disturbance.coo"))
    fem.export_matrix_coo(sp.csr_matrix(plant.observation), os.path.join(outdir, "observation.coo"))
    meta = {
        "dims": plant.dims,
        "re": plant.re,
        "pr": plant.pr,
        "alpha": plant.alpha,
        "mesh_n": plant.mesh.n,
    }
    with open(os.path.join(outdir, "plant.json"), "w") as f:
        json.dump(meta, f, indent=2)
