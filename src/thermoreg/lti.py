"""Dense LTI numerics: standard-form systems, Lyapunov and Riccati solvers, balanced truncation.

The Lyapunov solver is Bartels-Stewart: one real Schur decomposition
followed by a quasi-triangular back-substitution.  The back-substitution
is a blocked recursion whose updates are matrix products, so it runs at
BLAS-3 speed; LAPACK's unblocked ``trsyl`` is only called on small
diagonal blocks.

Riccati equations are solved by Newton-Kleinman iteration, every step a
full step (Kleinman, IEEE TAC 1968): from a stabilizing start the iterates
X decrease monotonically to the stabilizing solution, though the residual
norm may rise near its rounding floor.  One order-N real Schur form of the
drift serves a whole solve, and
one serves a whole dual design: the caller may hand the solver a Schur pair
of the unshifted drift (the dual observer design derives the cascade's from
the design drift's), which the solver shifts on its diagonal; otherwise it
takes an unsorted form of its own.  The initializer reorders that form with
LAPACK ``dtrsen``, unstable block first, the reordering that a sorted
``gees`` does internally: a small Riccati equation stabilizes the pair
projected onto that block, and because the lifted closed loop stays block
triangular in the same Schur basis, a Schur form of the small stabilized
block completes the Schur form of the first closed loop.  The first Newton
step is then a Bartels-Stewart solve with no further order-N
decomposition.  Each later step solves for a correction whose right-hand
side has the rank of B, only as accurately as the outer tolerance needs
(inexact Newton-Kleinman): its Galerkin residual may use a fixed share of
``1e-9 |X_k|_F``, above the kernel's rounding floor and below a tenth of the
right-hand side.  The new residual is evaluated in factored form.  That
factored form does not see the Galerkin residuals left behind, so the dense
residual decides convergence, and an exact correction step (Schur form
plus Bartels-Stewart on the full residual) polishes the iterate when it
fails.  With inner residuals tied to the outer tolerance their sum stays
below it, so the polish is rare; a fixed tolerance relative to the
right-hand side let a large first step leave more behind than the outer
tolerance allows.  The exact step is also the fallback whenever the
projection does not deliver.  A Hamiltonian-subspace Riccati solver is kept
as an independent oracle for desk-scale problems and as the inner solver of
the initializer.

One low-rank Lyapunov kernel serves both the Newton-Kleinman corrections
and balanced truncation: a Galerkin projection onto the extended Krylov
space of (A, W) that returns a factor Z of the solution.  Balanced
truncation is the low-rank square-root method on the two Gramian factors;
when the requested order reaches the Hankel values they resolve, both
bases grow to the full space, where the Galerkin solution is exact.
"""

import numbers
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .errors import ConvergenceError

_TRSYL_BLOCK = 96
# Bound on the backward-error residual of a Lyapunov solve.
_LYAP_TOL = 1e-10
# Newton-Kleinman stops at a relative Riccati residual |R(X)|_F / |X|_F of
# _RICCATI_TOL and gives up after _RICCATI_MAX_ITER iterations.
_RICCATI_TOL = 1e-9
_RICCATI_MAX_ITER = 60
# Largest extended Krylov basis of a low-rank Newton-Kleinman correction.
_KRYLOV_MAX_DIM = 300
# Share of the outer tolerance ``_RICCATI_TOL |X_k|_F`` that the Galerkin residual of
# one low-rank Newton-Kleinman step may use.
_OUTER_SHARE = 1e-2
# Rounding floor of the Krylov kernel's residual relative to |W W^T|_F: its
# default tolerance, the floor of every Newton-Kleinman inner tolerance and
# the tolerance of balanced truncation's Gramian factors (at 1e-12 the
# leading Hankel values were accurate to about 1e-7 only).  1e-15 is below
# it: on a 373-state dual design the basis of the observability factor grew
# from 64 to 187 columns.
_INNER_TOL = 1e-14
# The Riccati initializer stabilizes the eigenvalues of the shifted drift with
# real part at least -_SELECT_MARGIN.
_SELECT_MARGIN = 1e-8


# ---------------------------------------------------------------------------
# Quasi-triangular machinery
#
# Every real Schur factor read here is in LAPACK's standardized form (from
# ``gees`` or ``trsen``, or shifted on its diagonal): a 2x2 block has equal
# diagonal entries, so ``np.diag(t)`` holds the real parts of the eigenvalues.

def _split_index(t, n):
    """Midpoint split that does not cut a 2x2 Schur block."""
    m = n // 2
    if t[m, m - 1] != 0.0:
        m += 1
    return m


def _syl_tri(a, b, c):
    """Solve A X + X B^T = C for quasi-upper-triangular A and B (blocked)."""
    p, q = a.shape[0], b.shape[0]
    if p <= _TRSYL_BLOCK and q <= _TRSYL_BLOCK:
        x, scale, info = lapack.dtrsyl(a, b, c, isgn=1, trana="N", tranb="T")
        if info < 0:
            raise RuntimeError(f"trsyl failed with info={info}")
        return x / scale
    if p >= q:
        m = _split_index(a, p)
        x2 = _syl_tri(a[m:, m:], b, c[m:])
        x1 = _syl_tri(a[:m, :m], b, c[:m] - a[:m, m:] @ x2)
        return np.vstack([x1, x2])
    m = _split_index(b, q)
    x2 = _syl_tri(a, b[m:, m:], c[:, m:])
    x1 = _syl_tri(a, b[:m, :m], c[:, :m] - x2 @ b[:m, m:].T)
    return np.hstack([x1, x2])


def _lyap_tri(t, c):
    """Solve T Y + Y T^T = C (C symmetric, T quasi-upper-triangular)."""
    n = t.shape[0]
    if n <= _TRSYL_BLOCK:
        y, scale, info = lapack.dtrsyl(t, t, c, isgn=1, trana="N", tranb="T")
        if info < 0:
            raise RuntimeError(f"trsyl failed with info={info}")
        return y / scale
    m = _split_index(t, n)
    t11, t12, t22 = t[:m, :m], t[:m, m:], t[m:, m:]
    y22 = _lyap_tri(t22, c[m:, m:])
    y12 = _syl_tri(t11, t22, c[:m, m:] - t12 @ y22)
    y11 = _lyap_tri(t11, c[:m, :m] - t12 @ y12.T - y12 @ t12.T)
    return np.block([[y11, y12], [y12.T, y22]])


def _lyap_from_schur(t, z, q):
    """Solution of A X + X A^T + Q = 0 given the Schur pair of A."""
    chat = -(z.T @ q @ z)
    chat = 0.5 * (chat + chat.T)
    y = _lyap_tri(t, chat)
    x = z @ y @ z.T
    return 0.5 * (x + x.T)


def _real_schur(a):
    """Real Schur pair (T, Z) and eigenvalue real parts of a small matrix.

    Calls LAPACK ``dgees`` directly; ``scipy.linalg.schur`` is kept for the
    order-N forms.
    """
    t, _, wr, _, z, _, info = lapack.dgees(lambda wr, wi: 0, a)
    if info != 0:
        raise ConvergenceError(f"real Schur form failed (dgees info={info})")
    return t, z, wr


# ---------------------------------------------------------------------------
# Lyapunov

def spectral_abscissa(a):
    """Largest real part of the eigenvalues of a dense matrix."""
    return float(np.max(np.linalg.eigvals(a).real))


def solve_lyapunov(a, q):
    """Solve A X + X A^T + Q = 0 for stable A (Bartels-Stewart).

    Raises ``ValueError`` for unstable ``A`` and :class:`ConvergenceError`
    when the backward-error residual ``|AX + XA^T + Q| / (|Q| + 2 |A| |X|)``
    is too large.
    """
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    t, z = sla.schur(a, output="real")
    if np.max(np.diag(t)) >= 0.0:
        raise ValueError("Lyapunov equation requires a stable coefficient matrix")
    x = _lyap_from_schur(t, z, q)
    res = a @ x + x @ a.T + q
    denom = np.linalg.norm(q) + 2.0 * np.linalg.norm(a) * np.linalg.norm(x)
    rel = np.linalg.norm(res) / max(denom, 1e-300)
    if rel > _LYAP_TOL:
        raise ConvergenceError(f"Lyapunov residual {rel:.2e} exceeds {_LYAP_TOL:g}", residual=rel)
    return x


# ---------------------------------------------------------------------------
# Riccati

@dataclass
class RiccatiSolution:
    """Stabilizing solution with its accuracy and closed-loop diagnostics."""

    x: np.ndarray
    residual_norm: float          # |R(X)|_F / |X|_F
    closed_loop_decay: float      # abscissa of A - B R^-1 B^T X (unshifted)
    iterations: int
    exact_steps: int              # Bartels-Stewart steps on an order-N Schur form, the first included
    residual_history: list        # relative residual after each iteration, factored or dense


def _hamiltonian_solution(ash, s, q):
    """Symmetric X from the stable invariant subspace of ``[[ash, -s], [-q, -ash^T]]``.

    X is not checked to stabilize ``ash - s X``.
    """
    n = ash.shape[0]
    ham = np.block([[ash, -s], [-q, -ash.T]])
    t, z, sdim = sla.schur(ham, output="real", sort=lambda wr, wi: wr < 0.0)
    if sdim != n:
        raise ConvergenceError(
            f"Hamiltonian matrix has {sdim} stable eigenvalues, expected {n} "
            "(pair not stabilizable/detectable?)"
        )
    u1 = z[:n, :n]
    u2 = z[n:, :n]
    try:
        x = np.linalg.solve(u1.T, u2.T).T
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Hamiltonian subspace is degenerate: {exc}") from exc
    return 0.5 * (x + x.T)


def riccati_hamiltonian(a, b, r, q, alpha=0.0):
    """Riccati solution via the stable invariant subspace of the Hamiltonian.

    Desk-scale method (dense Schur of a 2n x 2n matrix); serves as the
    independent oracle for the Newton-Kleinman path.  Raises
    :class:`ConvergenceError` unless ``a + alpha I - b r^-1 b^T X`` is
    stable: near the conditioning limit the computed subspace can give a
    huge X that does not stabilize, with a small relative residual all the
    same, so the closed loop is checked rather than the residual.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    r = np.atleast_2d(np.asarray(r, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    ash = a + alpha * np.eye(a.shape[0])
    s = b @ np.linalg.solve(r, b.T)
    x = _hamiltonian_solution(ash, s, q)
    closed = ash - s @ x
    abscissa = spectral_abscissa(closed) if np.all(np.isfinite(closed)) else np.nan
    if not abscissa < 0.0:
        raise ConvergenceError(f"Hamiltonian solution is not stabilizing: closed-loop abscissa {abscissa:.3e}")
    return x


def _subspace_stabilizing_gain(ash, b, r, schur=None):
    """Gain K0 with ``ash - b K0`` stable, and the Schur pair of its transpose.

    ``schur`` is a real Schur pair ``(T, Z)`` of ``ash^T`` (the caller's, or
    an unsorted ``scipy.linalg.schur`` when None); it is overwritten.  LAPACK
    ``dtrsen`` reorders it so that the k eigenvalues with real part at least
    ``-_SELECT_MARGIN`` come first, so ``Z1^T`` spans the left unstable
    invariant subspace of ``ash`` and ``(T11^T, Z1^T b)`` is the projected
    pair.  A small Riccati equation stabilizes it with gain ``k_u``, and
    ``K0 = k_u Z1^T``.  In the basis Z the transposed closed loop is
    ``[[T11 - k_u^T b1^T, T12 - k_u^T b2^T], [0, T22]]``, so a Schur form
    ``U S U^T`` of the k x k block turns ``(T, Z)`` into a real Schur pair of
    ``(ash - b K0)^T``: the first Newton-Kleinman step needs no decomposition
    of its own.  For k = 0 the reordered form already is that pair.

    Raises ConvergenceError when the reordering fails (eigenvalues too close
    to swap) and when the stabilized block (the eigenvalues of S) is not
    stable, which happens when the small Riccati solve is ill-conditioned.
    """
    t, z = sla.schur(ash.T, output="real") if schur is None else schur
    select = np.diag(t) >= -_SELECT_MARGIN
    t, z, _, _, k, _, _, info = lapack.dtrsen(select, t, z, job="N", overwrite_t=1, overwrite_q=1)
    if info != 0:
        raise ConvergenceError(
            f"subspace initializer: ordered Schur form failed: dtrsen info={info} (eigenvalues too close to reorder)"
        )
    if k == 0:
        return np.zeros((b.shape[1], ash.shape[0])), t, z
    bz = z.T @ b
    s_u = bz[:k] @ np.linalg.solve(r, bz[:k].T)
    try:
        # The stabilized block is checked below, where its message names it.
        x_u = _hamiltonian_solution(t[:k, :k].T + _SELECT_MARGIN * np.eye(k), s_u, np.eye(k))
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"no stabilizing initializer: unstable block of order {k} is not controllable"
        ) from exc
    k_u = np.linalg.solve(r, bz[:k].T @ x_u)
    top = t[:k] - k_u.T @ bz.T
    s, u, wr = _real_schur(top[:, :k])
    abscissa = float(np.max(wr))
    if abscissa >= 0.0:
        raise ConvergenceError(
            f"no stabilizing initializer: the stabilized block of order {k} has abscissa {abscissa:.3e}"
        )
    t[:k, :k] = s
    t[:k, k:] = u.T @ top[:, k:]
    gain = k_u @ z[:, :k].T
    z[:, :k] = z[:, :k] @ u
    return gain, t, z


def _is_positive_definite(x):
    """Whether the Cholesky factorization of symmetric ``x`` succeeds."""
    try:
        np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        return False
    return True


def _riccati_residual(ash, bl, q, x):
    """R(X) = ash^T X + X ash - X S X + Q for symmetric X, with S = bl bl^T."""
    g = ash.T @ x
    xb = x @ bl
    return g + g.T - xb @ xb.T + q


def _new_directions(basis, u):
    """Orthonormal basis of the part of span(u) orthogonal to ``basis``.

    Two passes of classical Gram-Schmidt, then an SVD.  A direction whose
    remainder is below 1e-12 of the size of ``u`` before the projection
    already lies in the span of ``basis`` and is dropped.
    """
    scale = np.linalg.norm(u)
    for _ in range(2):
        u = u - basis @ (basis.T @ u)
    q, sv, _ = np.linalg.svd(u, full_matrices=False)
    return q[:, sv > 1e-12 * scale]


def _lowrank_lyap(a, w, cap=None, tol=None, atol=0.0):
    """Factor Z, with Z Z^T = P, of the Galerkin solution of A P + P A^T + W W^T = 0.

    The basis is the extended Krylov space of (A, W) (Simoncini, SIAM J.
    Sci. Comput. 2007).  Each step appends the new directions of
    ``[A V+, A^-1 V-]``, where V+ and V- are the directions the step before
    added from A and from A^-1, so the only factorization is one LU of A.
    The basis, its image under A and the projected matrix T grow in place.
    A maps the basis of the step before into the current one, so the
    Galerkin residual norm on the old basis is ``sqrt(2) |T[new, old] Y|_F``,
    read off T.  One real Schur form of T[old, old] per step gives both the
    stability test and the projected Bartels-Stewart solve.

    Iteration stops when that norm is at most ``max(tol |W W^T|_F, atol)``,
    or when no new direction is left: the basis then spans an invariant
    subspace (up to directions below 1e-12 of their size), on which the
    Galerkin solution is exact.  ``tol = atol = 0`` grows the basis to that
    subspace and then completes it to the full space, so the solution is
    exact also where the Krylov directions became numerically dependent.
    Returns None when the basis would exceed ``cap`` columns (default
    ``min(_KRYLOV_MAX_DIM, n // 2)``) first, or when the projection onto the
    invariant subspace is not stable.  ``tol`` defaults to the rounding
    floor ``_INNER_TOL``.
    """
    n = a.shape[0]
    if cap is None:
        cap = min(_KRYLOV_MAX_DIM, n // 2)
    if tol is None:
        tol = _INNER_TOL
    lu = sla.lu_factor(a)
    target = max(tol * np.linalg.norm(w.T @ w), atol)
    v = np.empty((n, 0))
    av = np.empty((n, 0))
    t = np.empty((0, 0))
    k = 0

    def append(block):
        # Returns the column range of the block, or None past the cap.
        nonlocal v, av, t, k
        end = k + block.shape[1]
        if end > cap:
            return None
        if end > v.shape[1]:
            size = min(max(2 * v.shape[1], end), cap)
            v = np.hstack([v[:, :k], np.empty((n, size - k))])
            av = np.hstack([av[:, :k], np.empty((n, size - k))])
            grown = np.empty((size, size))
            grown[:k, :k] = t[:k, :k]
            t = grown
        ablock = a @ block
        v[:, k:end] = block
        av[:, k:end] = ablock
        t[:k, k:end] = v[:, :k].T @ ablock
        t[k:end, :end] = block.T @ av[:, :end]
        span = slice(k, end)
        k = end
        return span

    plus = append(_new_directions(v, w))
    minus = None if plus is None else append(_new_directions(v[:, :k], sla.lu_solve(lu, w)))
    if minus is None:
        return None
    if k == 0:
        return np.zeros((n, 0))
    w_hat = v[:, :k].T @ w
    while True:
        old = k
        plus = append(_new_directions(v[:, :k], av[:, plus]))
        minus = None if plus is None else append(_new_directions(v[:, :k], sla.lu_solve(lu, v[:, minus])))
        if minus is None:
            return None
        invariant = k == old
        if invariant and target == 0 and k < n:
            # Complete the basis to the full space, where the solution is exact.
            append(_new_directions(v[:, :k], np.eye(n)))
            old = k
        elif not (invariant or target > 0):
            continue
        s, u, wr = _real_schur(t[:old, :old])
        # A non-normal A can have unstable projections, whose projected
        # equation has no meaningful solution; the basis then grows on.
        if np.max(wr) >= 0.0:
            if invariant:
                return None
            continue
        rhs = np.zeros((old, old))
        rhs[: w_hat.shape[0], : w_hat.shape[0]] = w_hat @ w_hat.T
        y = _lyap_from_schur(s, u, rhs)
        if invariant or np.sqrt(2.0) * np.linalg.norm(t[old:k, :old] @ y) <= target:
            lam, phi = np.linalg.eigh(y)
            keep = lam > 0.0
            return v[:, :old] @ (phi[:, keep] * np.sqrt(lam[keep]))


def _lowrank_residual_norm(a, z, w, g=None):
    """|A Z Z^T + Z Z^T A^T + W W^T + Z G G^T Z^T|_F, from the thin factors.

    The matrix is U M U^T with U = [A Z, Z, W], so its norm is that of
    R M R^T with R the triangular factor of U.
    """
    j, m = z.shape[1], w.shape[1]
    mid = np.zeros((2 * j + m, 2 * j + m))
    mid[:j, j : 2 * j] = mid[j : 2 * j, :j] = np.eye(j)
    mid[2 * j :, 2 * j :] = np.eye(m)
    if g is not None:
        mid[j : 2 * j, j : 2 * j] = g @ g.T
    rr = np.linalg.qr(np.hstack([a @ z, z, w]), mode="r")
    return float(np.linalg.norm(rr @ mid @ rr.T))


def solve_riccati_control(a, b, r, q, alpha=0.0, schur=None):
    """Stabilizing solution of the shifted control Riccati equation.

    Solves ``(A + aI)^T X + X (A + aI) - X B R^-1 B^T X + Q = 0`` by
    Newton-Kleinman iteration in correction form; ``alpha`` must be finite
    (``ValueError`` otherwise).  Every step is the full Newton step: from a
    stabilizing gain Kleinman's iterates decrease monotonically,
    ``X_1 >= X_2 >= ... >= X``, and each closed loop stays stable, though
    the residual norm may rise near its rounding floor.  Zero initial gain is
    used when ``A + aI`` is stable; otherwise the gain is initialized on
    the unstable invariant subspace.  ``schur`` is an optional real Schur
    pair ``(T, Z)`` of the unshifted ``A^T = Z T Z^T``; the solver adds the
    shift ``alpha`` on the diagonal of T and overwrites both (Fortran order
    avoids a copy).  Without it the initializer computes the Schur form of
    ``(A + aI)^T`` itself; the solution is the same up to rounding.

    - The first step is exact: the initializer hands over a real Schur form
      of the closed loop ``A_0`` of the initial gain, whose abscissa
      certifies stability, and a Bartels-Stewart solve follows.
    - Each later step from ``X_k`` solves ``A_k^T E + E A_k = -R(X_k)`` and
      sets ``X <- X + E``.  After a full step the residual is
      ``-W W^T`` with ``W = (K_k - K_{k-1})^T chol(R)``, which has as few
      columns as B, so ``E = -Z Z^T`` is a Galerkin solution on an extended
      Krylov space of ``(A_k^T, W)`` (one LU of ``A_k``, no Schur form).
      Its Galerkin residual is only as small as the outer target needs
      (inexact Newton-Kleinman).
      When ``Q`` and ``X + E`` are positive definite, the Lyapunov inertia
      theorem certifies that ``A_k`` is stable.  The new residual
      ``R(X + E) = -W W^T + A_k^T E + E A_k - E S E`` has rank at most
      ``2 rank(Z) + rank(B)`` and is evaluated in that factored form.
    - An exact step (Schur form, abscissa check, Bartels-Stewart with the
      full ``-R(X_k)``) is taken instead when the previous low-rank step
      failed to halve the residual (inner errors add up; this is the
      polish), or when the Krylov space reaches its dimension cap, its
      projected matrix is not stable, or the certificate fails.

    The factored residual does not see the Galerkin residuals that earlier
    low-rank steps left behind.  So the dense residual ``R(X)`` is formed
    after exact steps and before returning: convergence is judged on the
    dense relative residual ``|R(X)|_F / |X|_F``, and when that check fails
    an exact step follows.  A solve that stagnates, loses closed-loop
    stability or does not converge raises :class:`ConvergenceError`.
    ``closed_loop_decay`` comes from the eigenvalues of the final closed
    loop.
    """
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    r = np.atleast_2d(np.asarray(r, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    n = a.shape[0]
    ash = a + alpha * np.eye(n)
    rinv_bt = np.linalg.solve(r, b.T)
    try:
        r_chol = np.linalg.cholesky(r)
    except np.linalg.LinAlgError as exc:
        raise ValueError("weight R must be symmetric positive definite") from exc
    bl = sla.solve_triangular(r_chol, b.T, lower=True).T  # S = B R^-1 B^T = bl bl^T
    q_definite = _is_positive_definite(q)

    if schur is not None:
        schur[0][np.diag_indices(n)] += alpha
    # The initializer's Schur pair of the first closed loop serves the first step.
    gain, *seed = _subspace_stabilizing_gain(ash, b, r, schur=schur)
    exact_steps = 0
    history = []
    # ``res`` is the dense residual of ``x``, or None after a low-rank step,
    # whose factored norm is ``res_norm``.
    x = res = w = None
    res_norm = np.inf
    best = np.inf
    stalled = 0
    patience = 8
    for it in range(1, _RICCATI_MAX_ITER + 1):
        acl_t = (ash - b @ gain).T
        x_next = None
        if w is not None and q_definite:
            atol = min(_OUTER_SHARE * _RICCATI_TOL * x_norm, 0.1 * np.linalg.norm(w.T @ w))
            z = _lowrank_lyap(acl_t, w, atol=atol)
            # Inertia: A_k^T (X + E) + (X + E) A_k = -(Q + K_k^T R K_k), up to
            # the inner and carried-over residuals, so X + E > 0 and Q > 0
            # certify that A_k is stable.
            if z is not None:
                x_next = x - z @ z.T
                if not _is_positive_definite(x_next):
                    x_next = None
        lowrank = x_next is not None
        prev_norm = res_norm
        if lowrank:
            res = None
            res_norm = _lowrank_residual_norm(acl_t, z, w, z.T @ bl)
        else:
            t, zs = seed or sla.schur(acl_t, output="real")
            seed = None
            abscissa = float(np.max(np.diag(t)))
            if abscissa >= 0.0:
                raise ConvergenceError(
                    f"Newton-Kleinman iterate lost closed-loop stability (abscissa {abscissa:.3e})"
                )
            if x is None:
                x_next = _lyap_from_schur(t, zs, q + gain.T @ r @ gain)
            else:
                if res is None:
                    res = _riccati_residual(ash, bl, q, x)
                x_next = x + _lyap_from_schur(t, zs, res)
            exact_steps += 1
            res = _riccati_residual(ash, bl, q, x_next)
            res_norm = np.linalg.norm(res)
        x = x_next
        x_norm = max(np.linalg.norm(x), 1e-300)
        # The factored norm does not see the residuals that earlier low-rank
        # steps carried over; the dense residual decides convergence.
        carried = res is None and res_norm <= _RICCATI_TOL * x_norm
        if carried:
            res = _riccati_residual(ash, bl, q, x)
            res_norm = np.linalg.norm(res)
        rel = res_norm / x_norm
        history.append(rel)
        if rel <= _RICCATI_TOL:
            shifted_abscissa = spectral_abscissa(ash - b @ (rinv_bt @ x))
            return RiccatiSolution(
                x=x,
                residual_norm=rel,
                closed_loop_decay=shifted_abscissa - alpha,
                iterations=it,
                exact_steps=exact_steps,
                residual_history=history,
            )
        if res_norm < 0.9 * best:
            best = res_norm
            stalled = 0
        else:
            stalled += 1
            if stalled >= patience:
                raise ConvergenceError(
                    "Newton-Kleinman stagnation (conditioning limit above tolerance)",
                    residual=rel,
                    iterations=it,
                )
        next_gain = rinv_bt @ x
        # R(X) = -W W^T holds after a Newton step up to its inner residual; a
        # stalled low-rank step or residuals carried over from earlier
        # low-rank steps hand the full residual to an exact step instead.
        if carried or (lowrank and res_norm > 0.5 * prev_norm):
            w = None
        else:
            w = (next_gain - gain).T @ r_chol
        gain = next_gain
    raise ConvergenceError(
        f"Newton-Kleinman did not reach {_RICCATI_TOL:g} in {_RICCATI_MAX_ITER} iterations",
        residual=res_norm / max(np.linalg.norm(x), 1e-300),
        iterations=_RICCATI_MAX_ITER,
    )


def solve_riccati_filter(a, c, r, q, alpha=0.0, schur=None):
    """Stabilizing solution of the dual (filter) Riccati equation.

    Solves ``(A + aI) X + X (A + aI)^T - X C^T R^-1 C X + Q = 0`` by
    transposition of the control problem.  ``schur`` is an optional real
    Schur pair ``(T, Z)`` of the unshifted ``A = Z T Z^T``, overwritten as in
    :func:`solve_riccati_control`.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    c = np.atleast_2d(np.asarray(c, dtype=float))
    return solve_riccati_control(a.T, c.T, r, q, alpha=alpha, schur=schur)


# ---------------------------------------------------------------------------
# Standard-form systems and balanced truncation

@dataclass
class StateSpace:
    """Dense standard-form system (A, B, C) without feedthrough."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    @property
    def order(self):
        return self.a.shape[0]

    def transfer(self, s):
        """C (sI - A)^-1 B at one complex s; ``ValueError`` if s is not finite, ``RuntimeError`` at a pole."""
        if not np.isfinite(s):
            raise ValueError(f"shift {s} is not finite")
        try:
            x = np.linalg.solve(s * np.eye(self.order) - self.a, self.b)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"shift {s} is singular (eigenvalue of the system): {exc}") from exc
        return self.c @ x


@dataclass
class BalancedReduction:
    """Reduced system with Hankel singular values and the H-infinity bound."""

    system: StateSpace                   # of order r
    hankel_singular_values: np.ndarray   # the values the Gramian factors resolve, nonincreasing
    error_bound: float                   # 2 * sum of truncated values
    order: int
    gramian_residuals: tuple             # |A P + P A^T + B B^T|_F / |B B^T|_F and its dual


def balanced_truncation(sys, r):
    """Low-rank square-root balanced truncation of a stable StateSpace to order ``r``.

    The reduced system is the projection ``(T_l A T_r, T_l B, C T_r)``; like
    every StateSpace it has no feedthrough.

    Both Gramians come as factors from the extended Krylov kernel
    ``_lowrank_lyap`` (inner tolerance ``_INNER_TOL``), and the Hankel
    singular values are those of ``Z_q^T Z_p`` (Gugercin & Li, 2005).  When
    ``r`` reaches the number of values the factors resolve, both bases grow
    to the full space, where the Galerkin solutions are the exact Gramians.
    ``r`` must be an integer in [1, N] (``ValueError`` otherwise, with no
    rounding).  If ``r`` exceeds the numerical Hankel rank it is clamped
    with a warning.
    The reduced system satisfies the usual bound: the H-infinity error is at
    most twice the sum of the truncated Hankel singular values.  An unstable
    drift raises ``ValueError``: the basis then grows until it spans an
    invariant subspace or the full space, and the projection there is not
    stable.
    """
    n = sys.order
    if isinstance(r, bool) or not isinstance(r, numbers.Integral):
        raise ValueError(f"reduced order must be an integer, got {r!r}")
    if not 1 <= r <= n:
        raise ValueError(f"reduced order {r} must lie in [1, {n}]")

    def gramian_factors(tol):
        zp = _lowrank_lyap(sys.a, sys.b, cap=n, tol=tol)
        zq = _lowrank_lyap(sys.a.T, sys.c.T, cap=n, tol=tol)
        if zp is None or zq is None:
            raise ValueError("balanced truncation requires a stable system")
        u, sv, vt = np.linalg.svd(zq.T @ zp, full_matrices=False)
        rank = int(np.sum(sv > max(sv[0], 1e-300) * 1e-13))
        return zp, zq, u, sv, vt, rank

    zp, zq, u, sv, vt, rank = gramian_factors(_INNER_TOL)
    if r >= rank:
        zp, zq, u, sv, vt, rank = gramian_factors(0.0)
    if r > rank:
        warnings.warn(f"requested order {r} exceeds numerical Hankel rank {rank}; clamping", stacklevel=2)
        r = rank
    scale = 1.0 / np.sqrt(sv[:r])
    t_right = zp @ vt[:r].T * scale
    t_left = (u[:, :r] * scale).T @ zq.T
    reduced = StateSpace(a=t_left @ sys.a @ t_right, b=t_left @ sys.b, c=sys.c @ t_right)
    residuals = tuple(
        _lowrank_residual_norm(op, z, rhs) / max(np.linalg.norm(rhs.T @ rhs), 1e-300)
        for op, z, rhs in ((sys.a, zp, sys.b), (sys.a.T, zq, sys.c.T))
    )
    return BalancedReduction(
        system=reduced,
        hankel_singular_values=sv,
        error_bound=2.0 * float(np.sum(sv[r:])),
        order=r,
        gramian_residuals=residuals,
    )


def sample_frequency_error(sys1, sys2, omegas):
    """Largest spectral-norm transfer difference over a non-empty, finite frequency grid (else ``ValueError``)."""
    omegas = np.atleast_1d(omegas)
    if not (omegas.size and np.all(np.isfinite(omegas))):
        raise ValueError(f"the frequency grid must be non-empty and finite, got {omegas!r}")
    worst = 0.0
    for w in omegas:
        diff = sys1.transfer(1j * w) - sys2.transfer(1j * w)
        worst = max(worst, float(np.linalg.norm(diff, 2)))
    return worst
