"""Dense LTI numerics: Lyapunov and Riccati solvers, balanced truncation.

The Lyapunov solver is Bartels-Stewart: one real Schur decomposition
followed by a quasi-triangular back-substitution.  The back-substitution
is a blocked recursion whose updates are matrix products, so it runs at
BLAS-3 speed; LAPACK's unblocked ``trsyl`` is only called on small
diagonal blocks.  Riccati equations are solved by Newton-Kleinman
iteration with exact line search, started from zero gain when the
(shifted) drift is already stable and otherwise from a gain computed on
the unstable invariant subspace.  Only the first Newton step is a full
Bartels-Stewart solve.  Each later step solves for a correction whose
right-hand side has the rank of B, by a Galerkin projection onto an
extended Krylov space that needs one LU factorization and no Schur form.
An exact correction step (Schur form plus Bartels-Stewart on the full
residual) polishes the iterate when the low-rank steps stop halving the
residual, and is the fallback whenever the projection does not deliver.
A Hamiltonian-subspace Riccati solver is kept as an independent oracle
for desk-scale problems and as the inner solver of the subspace
initializer.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .errors import ConvergenceError

_TRSYL_BLOCK = 96
# Largest extended Krylov basis of a low-rank Newton-Kleinman correction, and
# the inner tolerance of its projected residual relative to |W W^T|_F.
_KRYLOV_MAX_DIM = 300
_INNER_TOL = 1e-12


# ---------------------------------------------------------------------------
# Quasi-triangular machinery

def _quasi_tri_eigs_real(t):
    """Real parts of the eigenvalues read off a real Schur factor."""
    n = t.shape[0]
    re = np.empty(n)
    k = 0
    while k < n:
        if k + 1 < n and t[k + 1, k] != 0.0:
            a, b = t[k, k], t[k, k + 1]
            c, d = t[k + 1, k], t[k + 1, k + 1]
            disc = ((a - d) / 2.0) ** 2 + b * c
            if disc < 0:  # complex pair
                re[k] = re[k + 1] = (a + d) / 2.0
            else:
                root = np.sqrt(disc)
                re[k] = (a + d) / 2.0 + root
                re[k + 1] = (a + d) / 2.0 - root
            k += 2
        else:
            re[k] = t[k, k]
            k += 1
    return re


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


def _lyap_dual_from_schur(t, z, q):
    """Solution of A^T X + X A + Q = 0 from the Schur pair of A.

    Flipping rows and columns turns the transposed Schur factor back into
    quasi-upper-triangular form, so the same back-substitution applies.
    """
    chat = -(z.T @ q @ z)
    chat = 0.5 * (chat + chat.T)
    y = _lyap_tri(np.ascontiguousarray(t.T[::-1, ::-1]), np.ascontiguousarray(chat[::-1, ::-1]))[::-1, ::-1]
    x = z @ y @ z.T
    return 0.5 * (x + x.T)


# ---------------------------------------------------------------------------
# Lyapunov

def spectral_abscissa(a):
    """Largest real part of the eigenvalues of a dense matrix."""
    return float(np.max(np.linalg.eigvals(a).real))


def solve_lyapunov(a, q, tol=1e-10):
    """Solve A X + X A^T + Q = 0 for stable A (Bartels-Stewart).

    Raises for unstable ``A`` and when the backward-error residual
    ``|AX + XA^T + Q| / (|Q| + 2 |A| |X|)`` exceeds ``tol``.
    """
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    t, z = sla.schur(a, output="real")
    if np.max(_quasi_tri_eigs_real(t)) >= 0.0:
        raise ValueError("Lyapunov equation requires a stable coefficient matrix")
    x = _lyap_from_schur(t, z, q)
    if tol is not None:
        res = a @ x + x @ a.T + q
        denom = np.linalg.norm(q) + 2.0 * np.linalg.norm(a) * np.linalg.norm(x)
        rel = np.linalg.norm(res) / max(denom, 1e-300)
        if rel > tol:
            raise ConvergenceError(f"Lyapunov residual {rel:.2e} exceeds {tol:g}", residual=rel)
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


def riccati_hamiltonian(a, b, r, q, alpha=0.0):
    """Riccati solution via the stable invariant subspace of the Hamiltonian.

    Desk-scale method (dense Schur of a 2n x 2n matrix); serves as the
    independent oracle for the Newton-Kleinman path and as the inner
    solver of its initializer.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    r = np.atleast_2d(np.asarray(r, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    n = a.shape[0]
    ash = a + alpha * np.eye(n)
    s = b @ np.linalg.solve(r, b.T)
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


def _subspace_stabilizing_gain(ash, b, r, margin=1e-8):
    """Gain K0 with ``ash - b K0`` stable, acting on the unstable subspace.

    Ordered Schur form isolates the eigenvalues with real part above
    ``-margin``; a Sylvester solve block-diagonalizes, a small Riccati
    stabilizes the projected pair, and the gain is lifted back.  In the
    block-diagonalizing coordinates the closed loop is block triangular,
    so its spectrum is the stabilized block plus the untouched stable part.
    """
    n = ash.shape[0]
    try:
        t, z, k = sla.schur(ash, output="real", sort=lambda wr, wi: wr >= -margin)
    except np.linalg.LinAlgError as exc:
        # LAPACK's reordering can fail on ill-conditioned eigenvalues.
        raise ConvergenceError(f"subspace initializer: ordered Schur form failed: {exc}") from exc
    if k == 0:
        return np.zeros((b.shape[1], n))
    if k == n:
        y = np.zeros((n, 0))
        t11 = t
        b1 = z.T @ b
        z1t = z.T
    else:
        t11, t12, t22 = t[:k, :k], t[:k, k:], t[k:, k:]
        # t11 and t22 are already quasi-triangular: solve t11 Y - Y t22 = -t12.
        y, scale, info = lapack.dtrsyl(t11, t22, -t12, isgn=-1)
        if info < 0:
            raise RuntimeError(f"trsyl failed with info={info}")
        y = y / scale
        bz = z.T @ b
        b1 = bz[:k] - y @ bz[k:]
        z1t = z[:, :k].T - y @ z[:, k:].T
    q_small = np.eye(k)
    try:
        x_u = riccati_hamiltonian(t11, b1, r, q_small, alpha=margin)
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"no stabilizing initializer: unstable block of order {k} is not controllable"
        ) from exc
    k_u = np.linalg.solve(r, b1.T @ x_u)
    return k_u @ z1t


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


def _line_search_step(res_prev, delta, bl):
    """Exact Benner-Byers line search for X + t * delta.

    The residual along the Newton direction is
    ``(1 - t) R - t^2 delta S delta``; minimize its Frobenius norm on (0, 2].
    """
    db = delta @ bl
    v = db @ db.T
    aa = float(np.sum(res_prev * res_prev))
    bb = float(np.sum(res_prev * v))
    cc = float(np.sum(v * v))
    # d/dt |(1-t) R - t^2 V|_F^2 = -2a + 2(a - 2b) t + 6 b t^2 + 4 c t^3
    roots = np.roots([4.0 * cc, 6.0 * bb, 2.0 * (aa - 2.0 * bb), -2.0 * aa])
    candidates = [1.0]
    for root in roots:
        if abs(root.imag) < 1e-12 and 1e-4 < root.real <= 2.0:
            candidates.append(float(root.real))

    def objective(tt):
        return (1 - tt) ** 2 * aa - 2 * tt**2 * (1 - tt) * bb + tt**4 * cc

    return min(candidates, key=objective)


def _orthonormal_block(u, scale):
    """Orthonormal basis of the columns of ``u``, or None if they are dependent.

    ``scale`` is the size of the columns before they were orthogonalized
    against the basis; a remainder below 1e-12 of it is noise.
    """
    v, rr = np.linalg.qr(u)
    if np.min(np.abs(np.diag(rr))) <= 1e-12 * scale:
        return None
    return v


def _lowrank_lyap(a, w):
    """Galerkin solution of A E + E A^T = W W^T for stable A and thin W.

    The basis is the extended Krylov space of (A, W) (Simoncini, SIAM J.
    Sci. Comput. 2007): each step appends one block [A v1, A^-1 v2] built
    from the last one, so the only factorization is one LU of A.  The
    projected equation is solved densely.  A maps the first j blocks into
    the first j + 1, so the Galerkin residual norm on j blocks is
    ``sqrt(2) |T[new, old] Y|_F``, read off the projected matrix T.  Iteration
    stops when that norm is at most ``_INNER_TOL |W W^T|_F``.

    Returns None, so that the caller takes an exact step, when a new block
    is numerically dependent on the basis, or when no stable projected
    equation meets the tolerance before the basis would exceed
    ``min(_KRYLOV_MAX_DIM, n // 2)`` columns.
    """
    n, m = w.shape
    cap = min(_KRYLOV_MAX_DIM, n // 2)
    if 4 * m > cap:
        return None
    lu = sla.lu_factor(a)
    v = np.empty((n, cap))
    av = np.empty((n, cap))
    u = np.hstack([w, sla.lu_solve(lu, w)])
    block = _orthonormal_block(u, np.linalg.norm(u))
    if block is None:
        return None
    v[:, : 2 * m] = block
    av[:, : 2 * m] = a @ block
    t = block.T @ av[:, : 2 * m]
    w_hat = block.T @ w
    rhs = np.zeros((cap, cap))
    rhs[: 2 * m, : 2 * m] = w_hat @ w_hat.T
    target = _INNER_TOL * np.linalg.norm(w.T @ w)
    k = 2 * m
    while k + 2 * m <= cap:
        u = np.hstack([av[:, k - 2 * m : k - m], sla.lu_solve(lu, v[:, k - m : k])])
        scale = np.linalg.norm(u)
        for _ in range(2):
            u -= v[:, :k] @ (v[:, :k].T @ u)
        block = _orthonormal_block(u, scale)
        if block is None:
            return None
        ablock = a @ block
        t = np.block([[t, v[:, :k].T @ ablock], [block.T @ av[:, :k], block.T @ ablock]])
        v[:, k : k + 2 * m] = block
        av[:, k : k + 2 * m] = ablock
        # A non-normal A can have unstable projections, whose projected
        # equation has no meaningful solution; the basis then grows on.
        if np.max(np.linalg.eigvals(t[:k, :k]).real) < 0.0:
            y = sla.solve_continuous_lyapunov(t[:k, :k], -rhs[:k, :k])
            if np.sqrt(2.0) * np.linalg.norm(t[k:, :k] @ y) <= target:
                e = -(v[:, :k] @ y @ v[:, :k].T)
                return 0.5 * (e + e.T)
        k += 2 * m
    return None


def solve_riccati_control(a, b, r, q, alpha=0.0, tol=1e-9, max_iter=60):
    """Stabilizing solution of the shifted control Riccati equation.

    Solves ``(A + aI)^T X + X (A + aI) - X B R^-1 B^T X + Q = 0`` by
    Newton-Kleinman iteration in correction form, with exact line search
    when a full step fails to reduce the residual.  Zero initial gain is
    used when ``A + aI`` is stable; otherwise the gain is initialized on
    the unstable invariant subspace.

    - The first step is exact: a real Schur form of the closed loop ``A_0``
      of the initial gain, whose abscissa certifies stability, and a
      Bartels-Stewart solve.
    - Each later step from ``X_k`` solves ``A_k^T E + E A_k = -R(X_k)`` and
      sets ``X <- X + E``.  After a full step the residual is
      ``-W W^T`` with ``W = (K_k - K_{k-1})^T chol(R)``, which has as few
      columns as B, so ``E`` is a Galerkin solution on an extended Krylov
      space of ``(A_k^T, W)`` (one LU of ``A_k``, no Schur form).  When
      ``Q`` and ``X + E`` are positive definite, the Lyapunov inertia
      theorem certifies that ``A_k`` is stable.
    - An exact step (Schur form, abscissa check, Bartels-Stewart with the
      full ``-R(X_k)``) is taken instead when the step is damped by the
      line search, when the previous low-rank step failed to halve the
      residual (inner errors add up; this is the polish), or when the
      Krylov space reaches its dimension cap, its projected matrix is not
      stable, or the certificate fails.

    Convergence is judged on the dense relative residual
    ``|R(X)|_F / |X|_F``, and ``closed_loop_decay`` on the eigenvalues of
    the final closed loop.
    """
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

    gain = _subspace_stabilizing_gain(ash, b, r)
    x = res = w = last_full = None
    damped = False
    best = np.inf
    stalled = 0
    patience = 8
    for it in range(1, max_iter + 1):
        acl_t = (ash - b @ gain).T
        x_full = None
        if w is not None and q_definite:
            e = _lowrank_lyap(acl_t, w)
            # Inertia: A_k^T (X + E) + (X + E) A_k = -(Q + K_k^T R K_k), up to
            # the inner and carried-over residuals, so X + E > 0 and Q > 0
            # certify that A_k is stable.
            if e is not None and _is_positive_definite(x + e):
                x_full = x + e
        lowrank = x_full is not None
        if not lowrank:
            t, z = sla.schur(acl_t, output="real")
            abscissa = float(np.max(_quasi_tri_eigs_real(t)))
            if abscissa >= 0.0:
                if damped:
                    # A damped step left the stabilizing cone; full steps never do.
                    x, res = last_full
                    gain = rinv_bt @ x
                    damped = False
                    continue
                raise ConvergenceError(
                    f"Newton-Kleinman iterate lost closed-loop stability (abscissa {abscissa:.3e})"
                )
            if x is None:
                x_full = _lyap_from_schur(t, z, q + gain.T @ r @ gain)
            else:
                x_full = x + _lyap_from_schur(t, z, res)
        res_full = _riccati_residual(ash, bl, q, x_full)
        last_full = (x_full, res_full)
        prev_norm = np.inf if res is None else np.linalg.norm(res)
        damped = False
        if np.linalg.norm(res_full) <= prev_norm:
            x, res = x_full, res_full
        else:
            step = _line_search_step(res, x_full - x, bl)
            x_cand = x + step * (x_full - x)
            res_cand = _riccati_residual(ash, bl, q, x_cand)
            if np.linalg.norm(res_cand) < np.linalg.norm(res_full):
                x, res = x_cand, res_cand
                damped = True
            else:
                x, res = x_full, res_full
        res_norm = np.linalg.norm(res)
        rel = res_norm / max(np.linalg.norm(x), 1e-300)
        if rel <= tol:
            shifted_abscissa = spectral_abscissa(ash - b @ (rinv_bt @ x))
            return RiccatiSolution(
                x=x,
                residual_norm=rel,
                closed_loop_decay=shifted_abscissa - alpha,
                iterations=it,
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
        # R(X) = -W W^T holds after a full step; a damped step or a stalled
        # low-rank step hands the full residual to an exact step instead.
        if damped or (lowrank and res_norm > 0.5 * prev_norm):
            w = None
        else:
            w = (next_gain - gain).T @ r_chol
        gain = next_gain
    raise ConvergenceError(
        f"Newton-Kleinman did not reach {tol:g} in {max_iter} iterations",
        residual=np.linalg.norm(res) / max(np.linalg.norm(x), 1e-300),
        iterations=max_iter,
    )


def solve_riccati_filter(a, c, r, q, alpha=0.0, tol=1e-9, max_iter=60):
    """Stabilizing solution of the dual (filter) Riccati equation.

    Solves ``(A + aI) X + X (A + aI)^T - X C^T R^-1 C X + Q = 0`` by
    transposition of the control problem.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    c = np.atleast_2d(np.asarray(c, dtype=float))
    return solve_riccati_control(a.T, c.T, r, q, alpha=alpha, tol=tol, max_iter=max_iter)


# ---------------------------------------------------------------------------
# Balanced truncation

@dataclass
class BalancedReduction:
    """Reduced system with Hankel singular values and the H-infinity bound."""

    system: object                       # StateSpace of order r
    hankel_singular_values: np.ndarray   # all n values, nonincreasing
    error_bound: float                   # 2 * sum of truncated values
    order: int


def _psd_factor(x):
    """Factor L with L L^T = X for symmetric PSD X (eigen-based, clips noise)."""
    w, v = np.linalg.eigh(0.5 * (x + x.T))
    w = np.clip(w, 0.0, None)
    return v * np.sqrt(w)


def balanced_truncation(sys, r):
    """Square-root balanced trunction of a stable StateSpace to order ``r``.

    Both Gramians reuse one Schur decomposition of the drift.  If ``r``
    exceeds the numerical Hankel rank it is clamped with a warning.  The
    reduced system satisfies the usual bound: the H-infinity error is at
    most twice the sum of the truncated Hankel singular values.
    """
    from .plant import StateSpace

    n = sys.order
    if not 1 <= r <= n:
        raise ValueError(f"reduced order {r} must lie in [1, {n}]")
    t, z = sla.schur(sys.a, output="real")
    if np.max(_quasi_tri_eigs_real(t)) >= 0.0:
        raise ValueError("balanced truncation requires a stable system")
    ctrb = _lyap_from_schur(t, z, sys.b @ sys.b.T)
    obsv = _lyap_dual_from_schur(t, z, sys.c.T @ sys.c)
    lp = _psd_factor(ctrb)
    lq = _psd_factor(obsv)
    u, sv, vt = np.linalg.svd(lq.T @ lp)
    rank = int(np.sum(sv > max(sv[0], 1e-300) * 1e-13))
    if r > rank:
        warnings.warn(f"requested order {r} exceeds numerical Hankel rank {rank}; clamping", stacklevel=2)
        r = rank
    scale = 1.0 / np.sqrt(sv[:r])
    t_right = lp @ vt[:r].T * scale
    t_left = (u[:, :r] * scale).T @ lq.T
    reduced = StateSpace(
        a=t_left @ sys.a @ t_right,
        b=t_left @ sys.b,
        c=sys.c @ t_right,
        d=sys.d.copy(),
    )
    return BalancedReduction(
        system=reduced,
        hankel_singular_values=sv,
        error_bound=2.0 * float(np.sum(sv[r:])),
        order=r,
    )


def sample_frequency_error(sys1, sys2, omegas):
    """Largest spectral-norm transfer difference over the frequency grid."""
    omegas = np.atleast_1d(omegas)
    worst = 0.0
    for w in omegas:
        diff = sys1.transfer(1j * w) - sys2.transfer(1j * w)
        worst = max(worst, float(np.linalg.norm(diff, 2)))
    return worst
