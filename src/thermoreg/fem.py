"""P1/P2 finite element assembly on structured triangle meshes.

Element matrices are computed for all triangles at once and scattered
into CSR matrices, so no Python-level loop runs over elements.  Mass,
stiffness and divergence are einsum contractions over quadrature points.
The convection forms (advection and the velocity-gradient blocks of its
Newton linearization) are one matrix product of per-element ``v . J^-1``
factors with reference tensors precontracted over the quadrature rule.
Quadrature rules are exact for every product of P2 basis functions that
appears in the weak forms (degree 5 suffices for mass, stiffness, and
advection with a P2 velocity field).
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import WALL


# ---------------------------------------------------------------------------
# Quadrature

@dataclass(frozen=True)
class QuadratureRule:
    """Triangle quadrature in barycentric coordinates.

    Weights sum to the reference-triangle area 1/2; a physical integral is
    ``|det J| * sum_q w_q f(x_q)``.
    """

    points: np.ndarray  # (nq, 3) barycentric
    weights: np.ndarray  # (nq,)
    degree: int


def _rule_degree2():
    pts = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    w = np.full(3, 1.0 / 6.0)
    return QuadratureRule(pts, w, 2)


def _rule_degree5():
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
    return QuadratureRule(np.array(pts), np.array(wts), 5)


def _rule_degree6():
    g1 = (0.873821971016996, 0.063089014491502, 0.050844906370207 / 2.0)
    g2 = (0.501426509658179, 0.249286745170910, 0.116786275726379 / 2.0)
    a3, b3 = 0.053145049844816, 0.310352451033785
    c3 = 1.0 - a3 - b3
    w3 = 0.082851075618374 / 2.0
    pts, wts = [], []
    for (a, b, w) in (g1, g2):
        pts += [[a, b, b], [b, a, b], [b, b, a]]
        wts += [w, w, w]
    for p in ((a3, b3, c3), (a3, c3, b3), (b3, a3, c3), (b3, c3, a3), (c3, a3, b3), (c3, b3, a3)):
        pts.append(list(p))
        wts.append(w3)
    return QuadratureRule(np.array(pts), np.array(wts), 6)


_TRIANGLE_RULES = {2: _rule_degree2, 5: _rule_degree5, 6: _rule_degree6}


def triangle_rule(degree):
    """Smallest available rule exact for polynomials up to ``degree``."""
    for d in sorted(_TRIANGLE_RULES):
        if d >= degree:
            return _TRIANGLE_RULES[d]()
    raise ValueError(f"no triangle rule of degree >= {degree}")


def edge_rule(npoints=3):
    """Gauss-Legendre rule on [0, 1] (3 points are exact to degree 5)."""
    x, w = np.polynomial.legendre.leggauss(npoints)
    return 0.5 * (x + 1.0), 0.5 * w


# ---------------------------------------------------------------------------
# Basis functions

def p1_basis(bary):
    """P1 values at barycentric points; shape (nq, 3)."""
    return np.asarray(bary, dtype=float)


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


P1_GRADS_REFERENCE = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


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


def physical_points(mesh, rule):
    """Physical coordinates of quadrature points; shape (ne, nq, 2)."""
    p = mesh.p2_nodes
    verts = p[mesh.triangles[:, :3]]  # (ne, 3, 2)
    return np.einsum("qk,ekd->eqd", rule.points, verts)


def physical_grads(mesh, rule, space="P2"):
    """Physical basis gradients at quadrature points; shape (ne, nq, nb, 2)."""
    _, jinv = element_jacobians(mesh)
    if space == "P2":
        ghat = p2_grads_reference(rule.points)
    else:
        ghat = np.broadcast_to(P1_GRADS_REFERENCE, (rule.points.shape[0], 3, 2))
    return np.einsum("qik,ekd->eqid", ghat, jinv)


def _connectivity(mesh, space):
    if space == "P2":
        return mesh.triangles, mesh.num_p2
    if space == "P1":
        return mesh.tri_p1, mesh.num_p1
    raise ValueError(f"unknown space {space!r}")


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


# ---------------------------------------------------------------------------
# Assembly

def assemble_mass(mesh, space="P2"):
    """L2 pairing matrix M_ij = integral(phi_i phi_j); symmetric positive definite."""
    conn, ndof = _connectivity(mesh, space)
    rule = triangle_rule(4 if space == "P2" else 2)
    basis = p2_basis(rule.points) if space == "P2" else p1_basis(rule.points)
    det, _ = element_jacobians(mesh)
    local = np.einsum("q,qi,qj,e->eij", rule.weights, basis, basis, det)
    return _scatter(local, conn, conn, (ndof, ndof))


def assemble_stiffness(mesh, space="P2"):
    """Dirichlet-energy matrix K_ij = integral(grad phi_i . grad phi_j)."""
    conn, ndof = _connectivity(mesh, space)
    rule = triangle_rule(2)
    gp = physical_grads(mesh, rule, space)
    det, _ = element_jacobians(mesh)
    local = np.einsum("q,eqid,eqjd,e->eij", rule.weights, gp, gp, det)
    return _scatter(local, conn, conn, (ndof, ndof))


def _convection_kernel():
    """Reference tensors of the convection forms, precontracted over the degree-5 rule.

    Rows 0-11 give the advection form: row (k, r) holds, for every (i, j),
    sum_q w_q phi_i phi_k dphi_j/dr.  Rows 12-23 give the velocity-gradient
    form: sum_q w_q phi_i phi_j dphi_k/dr.  Both integrands are degree 5, so
    the contraction is exact.
    """
    rule = triangle_rule(5)
    phi = p2_basis(rule.points)
    ghat = p2_grads_reference(rule.points)
    adv = np.einsum("q,qi,qk,qjr->krij", rule.weights, phi, phi, ghat)
    grad = np.einsum("q,qi,qj,qkr->krij", rule.weights, phi, phi, ghat)
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
    local = (f[:, 0, 0] + f[:, 1, 1]) @ _CONVECTION_KERNEL[:12]
    return _scatter(local.reshape(-1, 6, 6), mesh.triangles, mesh.triangles, (mesh.num_p2, mesh.num_p2))


def assemble_convection(mesh, velocity):
    """Advection matrix N(v) and the velocity-gradient blocks of its Newton linearization.

    Returns ``(N, G)`` with ``G[c, d]_ij = integral((d_d v_c) phi_i phi_j)``,
    so that the derivative of ``N(v) v_c`` in direction ``w`` is
    ``N(v) w_c + sum_d G[c, d] w_d``.  All five element matrices come from
    one product of the per-element factors with the precontracted kernel.
    """
    f = _velocity_factors(mesh, velocity)
    ne = f.shape[0]
    # Row 0 of each element pairs the advection factor with the advection
    # rows of the kernel; rows 1-4 pair each G[c, d] factor with the
    # velocity-gradient rows.
    rows = np.zeros((ne, 5, 24))
    rows[:, 0, :12] = f[:, 0, 0] + f[:, 1, 1]
    rows[:, 1:, 12:] = f.reshape(ne, 4, 12)
    local = (rows @ _CONVECTION_KERNEL).reshape(ne, 5, 6, 6)
    shape = (mesh.num_p2, mesh.num_p2)
    mats = [_scatter(local[:, b], mesh.triangles, mesh.triangles, shape) for b in range(5)]
    return mats[0], {(c, d): mats[1 + 2 * c + d] for c in range(2) for d in range(2)}


def assemble_divergence(mesh):
    """Mixed divergence blocks (Dx, Dy): D_c[i, j] = integral(psi_i d_c phi_j).

    Rows are P1 pressure test functions, columns P2 velocity components.
    """
    rule = triangle_rule(3)
    p1 = p1_basis(rule.points)
    gp = physical_grads(mesh, rule, "P2")
    det, _ = element_jacobians(mesh)
    shape = (mesh.num_p1, mesh.num_p2)
    out = []
    for c in range(2):
        local = np.einsum("q,qa,eqj,e->eaj", rule.weights, p1, gp[:, :, :, c], det)
        out.append(_scatter(local, mesh.tri_p1, mesh.triangles, shape))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# Shape functions for loads

@dataclass(frozen=True)
class ShapeSpec:
    """Control/observation/disturbance shape.

    kind:
      - ``indicator-rectangle``: amplitude on [x0, x1] x [y0, y1], 0 outside
      - ``boundary-indicator``: amplitude along the tagged boundary part
      - ``inlet-flux-profile``: smooth bump exp(-1e-4 / ((0.5-y)(0.9-y))^2)
        supported on 0.5 < y < 0.9, used for boundary-load convergence tests
    """

    kind: str
    bounds: tuple = None  # (x0, x1, y0, y1) for indicator-rectangle
    amplitude: float = 1.0

    def __post_init__(self):
        if self.kind not in ("indicator-rectangle", "boundary-indicator", "inlet-flux-profile"):
            raise ValueError(f"unknown shape kind {self.kind!r}")
        if self.kind == "indicator-rectangle" and (self.bounds is None or len(self.bounds) != 4):
            raise ValueError("indicator-rectangle needs bounds (x0, x1, y0, y1)")


def shape_values(shape, points):
    """Evaluate a ShapeSpec at physical points (..., 2)."""
    pts = np.asarray(points, dtype=float)
    x, y = pts[..., 0], pts[..., 1]
    if shape.kind == "indicator-rectangle":
        x0, x1, y0, y1 = shape.bounds
        inside = (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)
        return shape.amplitude * inside.astype(float)
    if shape.kind == "boundary-indicator":
        return np.full_like(x, shape.amplitude)
    # inlet-flux-profile (horizontal component magnitude)
    from .flow import inlet_profile_value

    return shape.amplitude * inlet_profile_value(y)


def assemble_load_domain(mesh, shape):
    """Load vector F_i = integral(shape * phi_i) over the domain (P2)."""
    if shape.kind != "indicator-rectangle":
        raise ValueError("domain loads take indicator-rectangle shapes")
    rule = triangle_rule(5)
    basis = p2_basis(rule.points)
    det, _ = element_jacobians(mesh)
    vals = shape_values(shape, physical_points(mesh, rule))  # (ne, nq)
    local = np.einsum("q,qi,eq,e->ei", rule.weights, basis, vals, det)
    load = np.zeros(mesh.num_p2)
    np.add.at(load, mesh.triangles.ravel(), local.ravel())
    if not np.any(load):
        warnings.warn("load shape has empty support on this mesh", stacklevel=2)
    return load


def assemble_load_boundary(mesh, tag, shape, npoints=3):
    """Load vector F_i = integral over tagged boundary edges of shape * phi_i.

    Uses Gauss quadrature on each quadratic boundary edge (vertex,
    midpoint, vertex).
    """
    sel = mesh.edge_tags == tag
    if not np.any(sel):
        raise ValueError(f"mesh has no boundary edges tagged {tag}")
    edges = mesh.boundary_edges[sel]
    t, w = edge_rule(npoints)
    # Quadratic trace basis on the edge parametrized by t in [0, 1].
    tr = np.stack([(2 * t - 1) * (t - 1), 4 * t * (1 - t), t * (2 * t - 1)], axis=1)  # (nq, 3)
    pa = mesh.p2_nodes[edges[:, 0]]
    pb = mesh.p2_nodes[edges[:, 2]]
    lengths = np.linalg.norm(pb - pa, axis=1)
    pts = pa[:, None, :] * (1 - t)[None, :, None] + pb[:, None, :] * t[None, :, None]  # (ne, nq, 2)
    vals = shape_values(shape, pts)
    local = np.einsum("q,qi,eq,e->ei", w, tr, vals, lengths)
    load = np.zeros(mesh.num_p2)
    np.add.at(load, edges.ravel(), local.ravel())
    return load


# ---------------------------------------------------------------------------
# Dirichlet elimination

@dataclass(frozen=True)
class DirichletReduction:
    """Row/column elimination map for Dirichlet degrees of freedom."""

    free: np.ndarray  # indices of retained DOFs
    full_size: int

    @property
    def size(self):
        return self.free.size

    def matrix(self, a):
        return a[self.free][:, self.free].tocsr()

    def vector(self, f):
        return np.asarray(f)[self.free]

    def inflate(self, x, fill=0.0):
        """Reinstate eliminated DOFs with ``fill`` (state snapshots)."""
        x = np.asarray(x)
        out = np.full(x.shape[:-1] + (self.full_size,), fill, dtype=x.dtype)
        out[..., self.free] = x
        return out


def dirichlet_reduction(mesh, tags=(WALL,)):
    """Reduction map removing P2 nodes whose tag is in ``tags``."""
    drop = np.isin(mesh.node_tags, np.asarray(tags, dtype=mesh.node_tags.dtype))
    free = np.flatnonzero(~drop)
    if free.size == 0:
        raise ValueError("Dirichlet tags cover every degree of freedom")
    return DirichletReduction(free=free, full_size=mesh.num_p2)


# ---------------------------------------------------------------------------
# Export

def export_matrix_coo(a, path):
    """Write a sparse or dense matrix as ``i,j,value`` rows (17 significant digits)."""
    coo = sp.coo_matrix(a)
    with open(path, "w") as f:
        f.write("i,j,value\n")
        for i, j, v in zip(coo.row, coo.col, coo.data):
            f.write(f"{i},{j},{v:.17g}\n")


def read_matrix_coo(path, shape=None, dense=False):
    """Read a matrix written by :func:`export_matrix_coo`."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    rows = data[:, 0].astype(int)
    cols = data[:, 1].astype(int)
    if shape is None:
        shape = (rows.max() + 1, cols.max() + 1)
    mat = sp.coo_matrix((data[:, 2], (rows, cols)), shape=shape).tocsr()
    return mat.toarray() if dense else mat
