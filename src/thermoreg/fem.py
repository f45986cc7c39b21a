"""P1/P2 finite element assembly on structured triangle meshes.

Element matrices are computed for all triangles at once, so no
Python-level loop runs over elements.  Every P2 x P2 matrix (mass,
stiffness, advection and the velocity-gradient blocks of its Newton
linearization) is summed onto the mesh's P2 coupling pattern
(``mesh.p2_couplings``) by one ``bincount``; the P1 x P2 divergence blocks
are scattered onto a CSR pattern of their own.  Mass is an einsum
contraction over quadrature points.  Stiffness, divergence and the
convection forms are one matrix product of per-element geometric factors
(``J^-1 J^-T``, ``J^-1``, ``v . J^-1``) with reference tensors precontracted
over the quadrature rule.  A coupling that vanishes in exact arithmetic is
stored as an exact zero in the stiffness and not stored at all in the
divergence.
One quadrature rule, exact to degree 5, serves every form: no product of
P2 basis functions in the weak forms has a higher degree (degree 5 is
advection with a P2 velocity field).
Matrices and loads cover every P2 node, wall nodes included.  The module
imports nothing from the package.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


# ---------------------------------------------------------------------------
# Quadrature

def triangle_rule():
    """The 7-point rule exact to degree 5 (Radon), the one triangle rule of the module.

    Returns ``(points, weights)``: barycentric points (nq, 3) and weights
    (nq,) that sum to the reference-triangle area 1/2, so a physical
    integral is ``|det J| * sum_q w_q f(x_q)``.  No weak form assembled here
    has an integrand of higher degree.
    """
    s15 = np.sqrt(15.0)
    b1 = (6.0 + s15) / 21.0
    a1 = 1.0 - 2.0 * b1
    w1 = (155.0 + s15) / 2400.0
    b2 = (6.0 - s15) / 21.0
    a2 = 1.0 - 2.0 * b2
    w2 = (155.0 - s15) / 2400.0
    pts = [[1 / 3, 1 / 3, 1 / 3]]
    wts = [9.0 / 80.0]
    for (a, b, w) in ((a1, b1, w1), (a2, b2, w2)):
        pts += [[a, b, b], [b, a, b], [b, b, a]]
        wts += [w, w, w]
    return np.array(pts), np.array(wts)


def edge_rule():
    """3-point Gauss-Legendre rule on [0, 1], exact to degree 5."""
    x, w = np.polynomial.legendre.leggauss(3)
    return 0.5 * (x + 1.0), 0.5 * w


# ---------------------------------------------------------------------------
# Basis functions

def p2_basis(bary):
    """P2 values at barycentric points; shape (nq, 6).

    Local order: vertex functions then midpoint functions, the midpoint
    functions ordered opposite their vertices.
    """
    lam = np.asarray(bary, dtype=float)
    l0, l1, l2 = lam[:, 0], lam[:, 1], lam[:, 2]
    return np.stack(
        [l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
         4 * l1 * l2, 4 * l0 * l2, 4 * l0 * l1],
        axis=1,
    )


def p2_grads_reference(bary):
    """P2 gradients w.r.t. reference coordinates; shape (nq, 6, 2)."""
    lam = np.asarray(bary, dtype=float)
    nq = lam.shape[0]
    dl = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])  # grad of lambda_i
    g = np.empty((nq, 6, 2))
    for i in range(3):
        g[:, i, :] = (4 * lam[:, i] - 1)[:, None] * dl[i]
    g[:, 3, :] = 4 * (np.outer(lam[:, 2], dl[1]) + np.outer(lam[:, 1], dl[2]))
    g[:, 4, :] = 4 * (np.outer(lam[:, 2], dl[0]) + np.outer(lam[:, 0], dl[2]))
    g[:, 5, :] = 4 * (np.outer(lam[:, 1], dl[0]) + np.outer(lam[:, 0], dl[1]))
    return g


# ---------------------------------------------------------------------------
# Element geometry

def element_jacobians(mesh):
    """Per-element affine maps: (detJ, Jinv) with shapes (ne,), (ne, 2, 2)."""
    p = mesh.p2_nodes
    v0 = p[mesh.triangles[:, 0]]
    v1 = p[mesh.triangles[:, 1]]
    v2 = p[mesh.triangles[:, 2]]
    a = v1[:, 0] - v0[:, 0]
    b = v2[:, 0] - v0[:, 0]
    c = v1[:, 1] - v0[:, 1]
    d = v2[:, 1] - v0[:, 1]
    det = a * d - b * c
    jinv = np.empty((det.size, 2, 2))
    jinv[:, 0, 0] = d / det
    jinv[:, 0, 1] = -b / det
    jinv[:, 1, 0] = -c / det
    jinv[:, 1, 1] = a / det
    return det, jinv


def physical_points(mesh, points):
    """Physical coordinates of barycentric quadrature points; shape (ne, nq, 2)."""
    p = mesh.p2_nodes
    verts = p[mesh.triangles[:, :3]]  # (ne, 3, 2)
    return np.einsum("qk,ekd->eqd", points, verts)


def physical_grads(mesh, points):
    """Physical P2 basis gradients at barycentric quadrature points; shape (ne, nq, 6, 2)."""
    _, jinv = element_jacobians(mesh)
    ghat = p2_grads_reference(points)
    return np.einsum("qik,ekd->eqid", ghat, jinv)


def _scatter(local, rows_conn, cols_conn, shape):
    """Accumulate (ne, ni, nj) element matrices into a CSR matrix."""
    ni, nj = local.shape[1], local.shape[2]
    rows = np.repeat(rows_conn, nj, axis=1).ravel()
    cols = np.tile(cols_conn, (1, ni)).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)), shape=shape).tocsr()
    mat.sum_duplicates()
    mat.eliminate_zeros()
    mat.sort_indices()
    return mat


def _p2_matrix(mesh, local):
    """Sum element matrices, (ne, 6, 6) or flat (ne, 36), onto ``mesh.p2_couplings`` with one ``bincount``.

    The CSR result holds copies of the couplings' index arrays, so a caller
    may edit it in place; a coupling whose contributions cancel stays stored.
    """
    indptr, indices, slot = mesh.p2_couplings
    data = np.bincount(slot.ravel(), local.ravel(), indices.size)
    return sp.csr_matrix((data, indices.copy(), indptr.copy()), (mesh.num_p2, mesh.num_p2))


# ---------------------------------------------------------------------------
# Assembly

def assemble_mass(mesh):
    """P2 L2 pairing matrix M_ij = integral(phi_i phi_j); symmetric positive definite."""
    points, weights = triangle_rule()
    basis = p2_basis(points)
    det, _ = element_jacobians(mesh)
    return _p2_matrix(mesh, np.einsum("q,qi,qj,e->eij", weights, basis, basis, det))


def _gradient_kernels():
    """Reference tensors of the stiffness and divergence forms, precontracted over the rule.

    Row (k, l) of the stiffness kernel holds, for every (i, j),
    sum_q w_q dphi_i/dk dphi_j/dl.  Row k of the divergence kernel holds,
    for every (a, j), sum_q w_q psi_a dphi_j/dk with the P1 functions psi,
    which are the barycentric coordinates.  Both integrands are degree 2, so
    both contractions are exact.
    """
    points, weights = triangle_rule()
    ghat = p2_grads_reference(points)
    stiff = np.einsum("q,qik,qjl->klij", weights, ghat, ghat).reshape(4, 36)
    div = np.einsum("q,qa,qjk->kaj", weights, points, ghat).reshape(2, 18)
    return stiff, div


_STIFFNESS_KERNEL, _DIVERGENCE_KERNEL = _gradient_kernels()
# Entries of an assembled stiffness or divergence matrix at most this share
# of its largest entry are the rounding residue of couplings that vanish in
# exact arithmetic; on the structured meshes every true entry is above 1e-2
# of the largest.
_CANCELLATION_TOL = 1e-12


def _zero_cancellations(mat):
    """Set the couplings that vanish in exact arithmetic to exact zeros, in place."""
    mat.data[np.abs(mat.data) <= _CANCELLATION_TOL * np.abs(mat.data).max()] = 0.0
    return mat


def assemble_stiffness(mesh):
    """P2 Dirichlet-energy matrix K_ij = integral(grad phi_i . grad phi_j).

    The element matrices are the per-element factors det_e (J_e^-1 J_e^-T)_kl
    times the precontracted kernel.  The couplings that vanish in exact
    arithmetic are stored as exact zeros.
    """
    det, jinv = element_jacobians(mesh)
    factors = (jinv @ jinv.transpose(0, 2, 1)) * det[:, None, None]
    return _zero_cancellations(_p2_matrix(mesh, factors.reshape(-1, 4) @ _STIFFNESS_KERNEL))


def _convection_kernel():
    """Reference tensors of the convection forms, precontracted over the degree-5 rule.

    Rows 0-11 give the advection form: row (k, r) holds, for every (i, j),
    sum_q w_q phi_i phi_k dphi_j/dr.  Rows 12-23 give the velocity-gradient
    form: sum_q w_q phi_i phi_j dphi_k/dr.  Both integrands are degree 5, so
    the contraction is exact.
    """
    points, weights = triangle_rule()
    phi = p2_basis(points)
    ghat = p2_grads_reference(points)
    adv = np.einsum("q,qi,qk,qjr->krij", weights, phi, phi, ghat)
    grad = np.einsum("q,qi,qj,qkr->krij", weights, phi, phi, ghat)
    return np.concatenate([adv.reshape(12, 36), grad.reshape(12, 36)])


_CONVECTION_KERNEL = _convection_kernel()


def _velocity_factors(mesh, velocity):
    """Per-element factors det_e v_kc (J_e^-1)_rd; shape (ne, 2, 2, 12) over (c, d, (k, r))."""
    velocity = np.asarray(velocity, dtype=float)
    if velocity.shape != (mesh.num_p2, 2):
        raise ValueError(f"velocity shape {velocity.shape} does not match mesh ({mesh.num_p2}, 2)")
    det, jinv = element_jacobians(mesh)
    ve = velocity[mesh.triangles] * det[:, None, None]  # (ne, k, c)
    f = ve.transpose(0, 2, 1)[:, :, None, :, None] * jinv.transpose(0, 2, 1)[:, None, :, None, :]
    return f.reshape(det.size, 2, 2, 12)


def assemble_advection(mesh, velocity):
    """Transport matrix N_ij = integral((v . grad phi_j) phi_i) for a P2 field.

    ``velocity`` has shape (num_p2, 2).  The integrand is degree 5, which
    the rule integrates exactly.
    """
    f = _velocity_factors(mesh, velocity)
    return _p2_matrix(mesh, (f[:, 0, 0] + f[:, 1, 1]) @ _CONVECTION_KERNEL[:12])


def assemble_convection(mesh, velocity):
    """Advection matrix N(v) and the velocity-gradient blocks of its Newton linearization.

    Returns ``(N, G)`` with ``G[c, d]_ij = integral((d_d v_c) phi_i phi_j)``,
    so that the derivative of ``N(v) v_c`` in direction ``w`` is
    ``N(v) w_c + sum_d G[c, d] w_d``.  The element matrices come from two
    products of the per-element factors with the precontracted kernel.
    """
    f = _velocity_factors(mesh, velocity)
    ne = f.shape[0]
    # Block 0 pairs the advection factor with the advection rows of the
    # kernel; blocks 1-4 pair each G[c, d] factor with the velocity-gradient
    # rows.
    local = np.empty((5, ne, 36))
    np.matmul(f[:, 0, 0] + f[:, 1, 1], _CONVECTION_KERNEL[:12], out=local[0])
    np.matmul(f.reshape(ne, 4, 12).transpose(1, 0, 2), _CONVECTION_KERNEL[12:], out=local[1:])
    mats = [_p2_matrix(mesh, w) for w in local]
    return mats[0], {(c, d): mats[1 + 2 * c + d] for c in range(2) for d in range(2)}


def assemble_divergence(mesh):
    """Mixed divergence blocks (Dx, Dy): D_c[i, j] = integral(psi_i d_c phi_j).

    Rows are P1 pressure test functions, columns P2 velocity components.
    The element matrices are the per-element factors det_e (J_e^-1)_kc times
    the precontracted kernel.
    """
    det, jinv = element_jacobians(mesh)
    shape = (mesh.num_p1, mesh.num_p2)
    out = []
    for c in range(2):
        local = (jinv[:, :, c] * det[:, None]) @ _DIVERGENCE_KERNEL
        mat = _zero_cancellations(_scatter(local.reshape(-1, 3, 6), mesh.tri_p1, mesh.triangles, shape))
        mat.eliminate_zeros()
        out.append(mat)
    return out[0], out[1]


# ---------------------------------------------------------------------------
# Shape functions for loads

@dataclass(frozen=True)
class ShapeSpec:
    """Control/observation/disturbance shape.

    kind:
      - ``indicator-rectangle``: amplitude on [x0, x1] x [y0, y1], 0 outside
      - ``boundary-indicator``: amplitude along the tagged boundary part

    Non-finite values, empty rectangles and bounds on a
    ``boundary-indicator`` raise ``ValueError``.
    """

    kind: str
    bounds: tuple = None  # (x0, x1, y0, y1) for indicator-rectangle
    amplitude: float = 1.0

    def __post_init__(self):
        if self.kind not in ("indicator-rectangle", "boundary-indicator"):
            raise ValueError(f"unknown shape kind {self.kind!r}")
        if not np.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite, got {self.amplitude!r}")
        if self.kind == "boundary-indicator" and self.bounds is not None:
            raise ValueError(f"boundary-indicator takes no bounds, got {self.bounds!r}")
        if self.kind == "indicator-rectangle":
            if self.bounds is None or len(self.bounds) != 4:
                raise ValueError("indicator-rectangle needs bounds (x0, x1, y0, y1)")
            x0, x1, y0, y1 = self.bounds
            if not (np.all(np.isfinite(self.bounds)) and x0 < x1 and y0 < y1):
                raise ValueError(f"indicator-rectangle needs finite x0 < x1 and y0 < y1, got {self.bounds!r}")


def shape_values(shape, points):
    """Evaluate a ShapeSpec at physical points (..., 2)."""
    pts = np.asarray(points, dtype=float)
    x, y = pts[..., 0], pts[..., 1]
    if shape.kind == "indicator-rectangle":
        x0, x1, y0, y1 = shape.bounds
        inside = (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)
        return shape.amplitude * inside.astype(float)
    return np.full_like(x, shape.amplitude)  # boundary-indicator


def assemble_load_domain(mesh, shape):
    """Load vector F_i = integral(shape * phi_i) over the domain (P2)."""
    if shape.kind != "indicator-rectangle":
        raise ValueError("domain loads take indicator-rectangle shapes")
    points, weights = triangle_rule()
    basis = p2_basis(points)
    det, _ = element_jacobians(mesh)
    vals = shape_values(shape, physical_points(mesh, points))  # (ne, nq)
    local = np.einsum("q,qi,eq,e->ei", weights, basis, vals, det)
    load = np.zeros(mesh.num_p2)
    np.add.at(load, mesh.triangles.ravel(), local.ravel())
    if not np.any(load):
        warnings.warn("load shape has empty support on this mesh", stacklevel=2)
    return load


def assemble_load_boundary(mesh, tag, shape):
    """Load vector F_i = integral over tagged boundary edges of shape * phi_i.

    A boundary edge takes the tag of its midpoint node.  Each quadratic
    edge (vertex, midpoint, vertex) is parametrized by t in [0, 1] and
    integrated with the 3-point Gauss rule.
    """
    edges = mesh.boundary_edges[mesh.node_tags[mesh.boundary_edges[:, 1]] == tag]
    if not edges.size:
        raise ValueError(f"mesh has no boundary edges tagged {tag}")
    t, w = edge_rule()
    trace = np.stack([(2 * t - 1) * (t - 1), 4 * t * (1 - t), t * (2 * t - 1)], axis=1)  # (nq, 3)
    pa = mesh.p2_nodes[edges[:, 0]]
    pb = mesh.p2_nodes[edges[:, 2]]
    pts = pa[:, None, :] * (1 - t)[None, :, None] + pb[:, None, :] * t[None, :, None]
    vals = shape_values(shape, pts)
    local = np.einsum("q,qi,eq,e->ei", w, trace, vals, np.linalg.norm(pb - pa, axis=1))
    load = np.zeros(mesh.num_p2)
    np.add.at(load, edges.ravel(), local.ravel())
    return load

