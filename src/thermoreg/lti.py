"""Dense LTI numerics: standard-form systems, Lyapunov and Riccati solvers, balanced truncation.

- Lyapunov: :func:`solve_lyapunov` is Bartels-Stewart.  Its quasi-triangular
  back-substitution is a blocked recursion whose updates are matrix
  products, so it runs at BLAS-3 speed; LAPACK's unblocked ``trsyl`` only
  sees small diagonal blocks.
- Riccati: one equation with unit weights and no parameter,
  ``A^T X + X A - X B B^T X + I = 0``, and its filter dual, solved by
  inexact Newton-Kleinman iteration; :func:`solve_riccati_control`
  describes the method.  The dual observer design hands both solvers the
  drifts it has shifted by its decay margin, with their Schur pairs, so one
  order-N real Schur form serves a whole design.
  :func:`riccati_hamiltonian` is kept as an independent oracle for
  desk-scale problems, and its subspace solve as the inner solver of the
  Newton-Kleinman initializer.
- :func:`_lowrank_lyap`, one low-rank Lyapunov kernel (a Galerkin projection
  onto an extended Krylov space), serves both the Newton-Kleinman
  corrections and balanced truncation.  It takes its operator as a product
  function, solves the projected equation only at the steps whose residual
  can meet the target, and returns the projected factors, from which its
  callers read residual norms with no order-N work.
- :func:`balanced_truncation` is the square-root method on the two
  low-rank Gramian factors; from the resolved Hankel rank on, exact
  Gramians come from :func:`solve_lyapunov`.
"""

import functools
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
# Longest run of Galerkin checks that the Krylov kernel skips on the
# extrapolated rate of its residuals.
_MAX_SKIPPED_CHECKS = 3
# Share of the outer tolerance ``_RICCATI_TOL |X_k|_F`` that the Galerkin residual of
# one low-rank Newton-Kleinman step may use.  Later steps do not see these
# residuals, so X keeps their effect: at 1e-2, two solves that differed only
# in rounding (one LU per step or one shared) ended up to 1.9e-9 apart on the
# 150-state test problems; at 1e-3, up to 5.7e-10, with the same outer
# iteration counts.  Much below 1e-3 the Krylov kernel's rounding floor sets
# the residual instead.
_OUTER_SHARE = 1e-3
# Rounding floor of the Krylov kernel's residual relative to |W W^T|_F: the
# floor of its target, so of every Newton-Kleinman inner tolerance, and the
# tolerance of balanced truncation's low-rank Gramian factors (at 1e-12 the
# leading Hankel values were accurate to about 1e-7 only).  1e-15 is below
# it: on a 373-state dual design the basis of the observability factor grew
# from 64 to 187 columns.
_INNER_TOL = 1e-14
# The Riccati initializer stabilizes the eigenvalues of the drift with
# real part at least -_SELECT_MARGIN.
_SELECT_MARGIN = 1e-8
# Largest condition number of the m x m Woodbury capacitance with which a
# Newton-Kleinman closed loop is solved through the reference closed loop's
# LU; above it (or when it is singular) the closed loop is factored anew.
_WOODBURY_MAX_COND = 1e4


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
    """Solve A X + X B^T = C for quasi-upper-triangular A and B (blocked), overwriting C with X."""
    p, q = a.shape[0], b.shape[0]
    if p <= _TRSYL_BLOCK and q <= _TRSYL_BLOCK:
        x, scale, info = lapack.dtrsyl(a, b, c, isgn=1, trana="N", tranb="T")
        if info < 0:
            raise RuntimeError(f"trsyl failed with info={info}")
        np.divide(x, scale, out=c)
        return c
    if p >= q:
        m = _split_index(a, p)
        _syl_tri(a[m:, m:], b, c[m:])
        c[:m] -= a[:m, m:] @ c[m:]
        _syl_tri(a[:m, :m], b, c[:m])
        return c
    m = _split_index(b, q)
    _syl_tri(a, b[m:, m:], c[:, m:])
    c[:, :m] -= c[:, m:] @ b[:m, m:].T
    _syl_tri(a, b[:m, :m], c[:, :m])
    return c


def _lyap_tri(t, c):
    """Solve T Y + Y T^T = C (C symmetric, T quasi-upper-triangular), overwriting C with Y.

    Only the diagonal blocks and the upper off-diagonal block of C are read.
    """
    n = t.shape[0]
    if n <= _TRSYL_BLOCK:
        return _syl_tri(t, t, c)
    m = _split_index(t, n)
    t11, t12, t22 = t[:m, :m], t[:m, m:], t[m:, m:]
    y22 = _lyap_tri(t22, c[m:, m:])
    c[:m, m:] -= t12 @ y22
    y12 = _syl_tri(t11, t22, c[:m, m:])
    c[:m, :m] -= t12 @ y12.T
    c[:m, :m] -= y12 @ t12.T
    _lyap_tri(t11, c[:m, :m])
    c[m:, :m] = y12.T
    return c


def _lyap_in_schur_basis(t, z, c):
    """Solution ``X = Z Y Z^T`` of ``T Y + Y T^T = C`` (C symmetric), given the Schur pair of A.

    C is overwritten with Y.  When the caller keeps no reference to C, it is
    released once used, and at most one order-N temporary is alive besides X.
    """
    _lyap_tri(t, c)
    x = z @ c
    del c
    x = x @ z.T
    x += x.T
    x *= 0.5
    return x


def _lyap_from_schur(t, z, q):
    """Solution of A X + X A^T + Q = 0 given the Schur pair of A."""
    chat = z.T @ q
    chat = chat @ z
    chat += chat.T
    chat *= -0.5
    return _lyap_in_schur_basis(t, z, chat)


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

    Balanced truncation takes its exact Gramians from here.  Raises
    ``ValueError`` for unstable ``A`` and :class:`ConvergenceError` when the
    backward-error residual ``|AX + XA^T + Q| / (|Q| + 2 |A| |X|)`` is too
    large.
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


def _check_system(a, b=None, c=None):
    """Raise ``ValueError``, naming the argument, unless ``a`` is a square
    matrix, ``b`` a matrix with as many rows and ``c`` one with as many
    columns (each when given), all with finite entries."""
    shape = np.shape(a)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"a must be a square matrix, got shape {shape}")
    n = shape[0]
    for name, op, axis, side in (("b", b, 0, "rows"), ("c", c, 1, "columns")):
        if op is not None and (np.ndim(op) != 2 or np.shape(op)[axis] != n):
            raise ValueError(f"{name} must be a matrix with {n} {side}, got shape {np.shape(op)}")
    for name, op in (("a", a), ("b", b), ("c", c)):
        if op is not None and not np.all(np.isfinite(op)):
            raise ValueError(f"{name} has non-finite entries")


# ---------------------------------------------------------------------------
# Riccati

@dataclass
class RiccatiSolution:
    """Stabilizing solution with its accuracy and closed-loop diagnostics.

    ``closed_loop_decay`` is a certified negative upper bound on the abscissa
    of the closed loop of the equation solved (see
    :func:`solve_riccati_control`), not the abscissa itself.
    """

    x: np.ndarray
    residual_norm: float          # |R(X)|_F / |X|_F
    closed_loop_decay: float      # upper bound on the abscissa of A - B B^T X
    iterations: int
    exact_steps: int              # Bartels-Stewart steps on an order-N Schur form, the first included
    residual_history: list        # relative residual after each iteration, factored or dense


def _hamiltonian_solution(a, b):
    """Symmetric X from the stable invariant subspace of ``[[a, -b b^T], [-I, -a^T]]``.

    X is not checked to stabilize ``a - b b^T X``.
    """
    n = a.shape[0]
    ham = np.block([[a, -(b @ b.T)], [-np.eye(n), -a.T]])
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


def riccati_hamiltonian(a, b):
    """Solution of ``A^T X + X A - X B B^T X + I = 0`` via the stable invariant subspace of the Hamiltonian.

    Desk-scale method (dense Schur of a 2n x 2n matrix); serves as the
    independent oracle for the Newton-Kleinman path.  Raises
    :class:`ConvergenceError`, carrying the residual, when the relative
    residual ``|R(X)|_F / |X|_F`` exceeds ``_RICCATI_TOL``, and unless
    ``a - b b^T X`` is stable.  Near the conditioning limit the computed
    subspace can give a huge X whose closed-loop abscissa is decided by the
    rounding of one product; its residual rejects it first.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    x = _hamiltonian_solution(a, b)
    rel = np.linalg.norm(_riccati_residual(a, b, x)) / max(np.linalg.norm(x), 1e-300)
    if not rel <= _RICCATI_TOL:
        raise ConvergenceError(
            f"Hamiltonian solution has relative residual {rel:.2e} above {_RICCATI_TOL:g}", residual=rel
        )
    closed = a - b @ b.T @ x
    abscissa = spectral_abscissa(closed) if np.all(np.isfinite(closed)) else np.nan
    if not abscissa < 0.0:
        raise ConvergenceError(f"Hamiltonian solution is not stabilizing: closed-loop abscissa {abscissa:.3e}")
    return x


def _subspace_stabilizing_gain(a, b, schur=None):
    """Gain K0 with ``a - b K0`` stable, and the Schur pair of its transpose.

    ``schur`` is a real Schur pair ``(T, Z)`` of ``a^T`` (the caller's, or
    an unsorted ``scipy.linalg.schur`` when None); it is overwritten.  LAPACK
    ``dtrsen`` reorders it (the reordering a sorted ``gees`` does
    internally) so that the k eigenvalues with real part at least
    ``-_SELECT_MARGIN`` come first, so ``Z1^T`` spans the left unstable
    invariant subspace of ``a`` and ``(T11^T, Z1^T b)`` is the projected
    pair.  A small Riccati equation stabilizes it with gain ``k_u``, and
    ``K0 = k_u Z1^T``.  In the basis Z the transposed closed loop is
    ``[[T11 - k_u^T b1^T, T12 - k_u^T b2^T], [0, T22]]``, so a Schur form
    ``U S U^T`` of the k x k block turns ``(T, Z)`` into a real Schur pair of
    ``(a - b K0)^T``: the first Newton-Kleinman step needs no decomposition
    of its own.  For k = 0 the reordered form already is that pair.

    Raises ConvergenceError when the reordering fails (eigenvalues too close
    to swap) and when the stabilized block (the eigenvalues of S) is not
    stable, which happens when the small Riccati solve is ill-conditioned.
    """
    t, z = sla.schur(a.T, output="real") if schur is None else schur
    select = np.diag(t) >= -_SELECT_MARGIN
    t, z, _, _, k, _, _, info = lapack.dtrsen(select, t, z, job="N", overwrite_t=1, overwrite_q=1)
    if info != 0:
        raise ConvergenceError(
            f"subspace initializer: ordered Schur form failed: dtrsen info={info} (eigenvalues too close to reorder)"
        )
    if k == 0:
        return np.zeros((b.shape[1], a.shape[0])), t, z
    bz = z.T @ b
    try:
        # The stabilized block is checked below, where its message names it.
        x_u = _hamiltonian_solution(t[:k, :k].T + _SELECT_MARGIN * np.eye(k), bz[:k])
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"no stabilizing initializer: unstable block of order {k} is not controllable"
        ) from exc
    k_u = bz[:k].T @ x_u
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


def _first_rhs_in_schur_basis(gain, z):
    """``-Z^T (I + K^T K) Z = -(I + (K Z)^T (K Z))`` for orthogonal Z, from the m x N product K Z."""
    kz = gain @ z
    c = kz.T @ kz
    c[np.diag_indices_from(c)] += 1.0
    c *= -1.0
    return c


def _cholesky_or_none(x):
    """Lower Cholesky factor of symmetric ``x``, or None when ``x`` is not positive definite."""
    try:
        return np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        return None


def _downdate_is_positive_definite(x, chol, y, gram, z):
    """Whether ``X - Z Z^T`` is positive definite, the columns ``Y' = [Y, L^-1 Z]`` and ``Y'^T Y'``.

    ``chol`` is the Cholesky factor L of the last exact iterate ``X_e = L L^T``
    (None when X_e is not positive definite), ``X = X_e - (L Y)(L Y)^T`` and
    ``gram`` is ``Y^T Y``, which grows by bordering with the new columns.
    ``X - Z Z^T = L (I - Y' Y'^T) L^T`` is positive definite exactly when the
    small ``S = I - Y'^T Y'`` is.  The triangular solve is backward stable,
    so S is that of an X_e perturbed by about ``N eps |X_e|``, which moves
    the eigenvalues of S by up to about ``N eps cond(X_e)``, estimated by the
    ratio of the largest to the smallest Cholesky pivot.  When the smallest eigenvalue of S lies within that, or
    there is no L, the Cholesky factorization of ``X - Z Z^T`` decides.
    """
    if chol is None:
        return _cholesky_or_none(x - z @ z.T) is not None, y, gram
    new = sla.solve_triangular(chol, z, lower=True, check_finite=False)
    cross = y.T @ new
    gram = np.block([[gram, cross], [cross.T, new.T @ new]])
    y = np.hstack([y, new])
    if not y.shape[1]:
        return True, y, gram
    pivots = np.diag(chol) ** 2
    slack = x.shape[0] * np.finfo(float).eps * np.max(pivots) / np.min(pivots)
    # The smallest eigenvalue of S exceeds the slack when S - slack I has a
    # Cholesky factor, and lies below minus the slack when S + slack I has none.
    eye = np.eye(gram.shape[0])
    if lapack.dpotrf(eye - gram - slack * eye, lower=1)[1] == 0:
        return True, y, gram
    if lapack.dpotrf(eye - gram + slack * eye, lower=1)[1] != 0:
        return False, y, gram
    return _cholesky_or_none(x - z @ z.T) is not None, y, gram


def _closed_loop_t(a, b, gain):
    """The transposed closed loop ``(A - B K)^T``, formed in one new order-N array."""
    acl = b @ gain
    np.subtract(a, acl, out=acl)
    return acl.T


def _riccati_residual(a, b, x):
    """R(X) = A^T X + X A - X B B^T X + I for symmetric X, with one order-N temporary."""
    res = a.T @ x
    res += res.T
    xb = x @ b
    res -= xb @ xb.T
    res[np.diag_indices_from(res)] += 1.0
    return res


def _new_directions(basis, u):
    """Orthonormal basis of the part of span(u) orthogonal to ``basis``.

    Two passes of classical Gram-Schmidt, then an SVD, or for one column its
    norm.  A direction whose remainder is below 1e-12 of the size of ``u``
    before the projection already lies in the span of ``basis`` and is
    dropped.
    """
    scale = np.linalg.norm(u)
    for _ in range(2):
        u = u - basis @ (basis.T @ u)
    if u.shape[1] == 1:
        norm = np.linalg.norm(u)
        return u / norm if norm > 1e-12 * scale else u[:, :0]
    q, sv, _ = np.linalg.svd(u, full_matrices=False)
    return q[:, sv > 1e-12 * scale]


def _psd_factor(y):
    """Factor Z with ``Z Z^T`` the positive part of symmetric Y (eigh; ``lambda > 0`` kept, scaled by sqrt)."""
    lam, phi = np.linalg.eigh(y)
    keep = lam > 0.0
    return phi[:, keep] * np.sqrt(lam[keep])


def _lowrank_lyap(apply, w, solve, cap=None, atol=0.0):
    """Factor Z, with Z Z^T = P, of the Galerkin solution of A P + P A^T + W W^T = 0.

    ``apply(Y)`` returns ``A Y`` and ``solve(Y)`` returns ``A^-1 Y``; the
    caller owns both.  The solves only shape the basis: T and the residual
    test use the products.

    The basis is the extended Krylov space of (A, W) (Simoncini, SIAM J.
    Sci. Comput. 2007).  Each step appends the new directions of
    ``[A V+, A^-1 V-]``, where V+ and V- are the directions the step before
    added from A and from A^-1.
    The basis, its image under A and the projected matrix T grow in place.
    A maps the basis of the step before into the current one, so the
    Galerkin residual norm on the old basis is ``sqrt(2) |T[new, old] Y|_F``,
    read off T.

    A check of that norm takes a real Schur form of T[old, old], which gives
    both the stability test and the projected Bartels-Stewart solve, and
    costs more than a step of the basis.  So from the second check on, the
    per-step rate of the last two residuals is extrapolated, and the checks
    it predicts to miss the target are skipped, at most
    ``_MAX_SKIPPED_CHECKS`` in a row.  No check is skipped on an invariant
    basis, after an unstable projection, or when the next step could exceed
    the cap.

    Iteration stops when that norm is at most
    ``max(_INNER_TOL |W W^T|_F, atol)``, or when no new direction is left:
    the basis then spans an invariant subspace (up to directions below 1e-12
    of their size), on which the Galerkin solution is exact.  Returns
    ``(Z, (AZ, Z, W))``, the second item in the coordinates of the
    orthonormal basis, from which :func:`_lowrank_residual_norm` reads
    residual norms with no order-N product.  Returns None when the basis
    would exceed ``cap`` columns (default ``min(_KRYLOV_MAX_DIM, n // 2)``)
    first, or when the projection onto the invariant subspace is not stable.
    """
    n = w.shape[0]
    if cap is None:
        cap = min(_KRYLOV_MAX_DIM, n // 2)
    target = max(_INNER_TOL * np.linalg.norm(w.T @ w), atol)
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
        ablock = apply(block)
        v[:, k:end] = block
        av[:, k:end] = ablock
        t[:k, k:end] = v[:, :k].T @ ablock
        t[k:end, :end] = block.T @ av[:, :end]
        span = slice(k, end)
        k = end
        return span

    plus = append(_new_directions(v, w))
    minus = None if plus is None else append(_new_directions(v[:, :k], solve(w)))
    if minus is None:
        return None
    w_hat = v[:, :k].T @ w
    if k == 0:
        return np.zeros((n, 0)), (np.zeros((0, 0)), np.zeros((0, 0)), w_hat)
    # (step, residual) of the last check that solved, and the checks left to skip.
    last = None
    skip = step = 0
    while True:
        old = k
        plus = append(_new_directions(v[:, :k], av[:, plus]))
        minus = None if plus is None else append(_new_directions(v[:, :k], solve(v[:, minus])))
        if minus is None:
            return None
        step += 1
        invariant = k == old
        # The next step adds at most as many columns as this one.
        if skip and not invariant and 2 * k - old <= cap:
            skip -= 1
            continue
        skip = 0
        s, u, wr = _real_schur(t[:old, :old])
        # A non-normal A can have unstable projections, whose projected
        # equation has no meaningful solution; the basis then grows on.
        if np.max(wr) >= 0.0:
            if invariant:
                return None
            continue
        c = u[: w_hat.shape[0]].T @ w_hat
        y = _lyap_in_schur_basis(s, u, -(c @ c.T))
        res = np.sqrt(2.0) * np.linalg.norm(t[old:k, :old] @ y)
        if invariant or res <= target:
            phi = _psd_factor(y)
            # Z and W in the coordinates of the basis of k columns.
            z_c = np.zeros((k, phi.shape[1]))
            z_c[:old] = phi
            w_c = np.zeros((k, w.shape[1]))
            w_c[: len(w_hat)] = w_hat
            return v[:, :old] @ phi, (t[:k, :old] @ phi, z_c, w_c)
        if last is not None:
            rate = (res / last[1]) ** (1.0 / (step - last[0]))
            if rate < 1.0:
                skip = int(min(np.ceil(np.log(target / res) / np.log(rate)) - 1, _MAX_SKIPPED_CHECKS))
        last = (step, res)


def _woodbury_solver(lu, u, b):
    """Solves with ``M - U B^T`` from the LU of M (Sherman-Morrison-Woodbury).

    ``U`` and ``B`` are n x m.  Returns ``solve(Y)``, or None when the m x m
    capacitance ``C = I - B^T M^-1 U`` is singular or ill-conditioned:
    ``|C^-1|_F (1 + |B^T M^-1 U|_F)``, its condition as the difference it is
    formed from, exceeds ``_WOODBURY_MAX_COND``.  (Its 2-norm condition
    number alone is 1 for every nonzero 1 x 1 capacitance.)
    """
    mu = sla.lu_solve(lu, u, check_finite=False)
    terms = b.T @ mu
    capacitance = np.eye(u.shape[1]) - terms
    if not np.all(np.isfinite(capacitance)):
        return None
    try:
        inverse = np.linalg.inv(capacitance)
    except np.linalg.LinAlgError:
        return None
    if not np.linalg.norm(inverse) * (1.0 + np.linalg.norm(terms)) <= _WOODBURY_MAX_COND:
        return None

    def solve(y):
        z = sla.lu_solve(lu, y, check_finite=False)
        return z + mu @ (inverse @ (b.T @ z))

    return solve


def _lowrank_residual_norm(az, z, w, g=None):
    """|A Z Z^T + Z Z^T A^T + W W^T + Z G G^T Z^T|_F, from the thin factors and ``az = A Z``.

    The matrix is U M U^T with U = [A Z, Z, W], so its norm is that of
    R M R^T with R the triangular factor of U.  The factors may be given in
    the coordinates of any orthonormal basis that holds them.
    """
    j, m = z.shape[1], w.shape[1]
    mid = np.zeros((2 * j + m, 2 * j + m))
    mid[:j, j : 2 * j] = mid[j : 2 * j, :j] = np.eye(j)
    mid[2 * j :, 2 * j :] = np.eye(m)
    if g is not None:
        mid[j : 2 * j, j : 2 * j] = g @ g.T
    rr = np.linalg.qr(np.hstack([az, z, w]), mode="r")
    return float(np.linalg.norm(rr @ mid @ rr.T))


def solve_riccati_control(a, b, *, schur=None):
    """Stabilizing solution of the control Riccati equation.

    Solves ``A^T X + X A - X B B^T X + I = 0`` by Newton-Kleinman iteration
    in correction form.  Every step is the full Newton step: from a
    stabilizing gain Kleinman's iterates decrease monotonically,
    ``X_1 >= X_2 >= ... >= X``, and each closed loop stays stable, though
    the residual norm may rise near its rounding floor.  Zero initial gain is
    used when A is stable; otherwise the gain is initialized on the unstable
    invariant subspace.  ``schur`` is an optional real Schur pair ``(T, Z)``
    of ``A^T = Z T Z^T``, which the solver overwrites (Fortran order avoids a
    copy).  Without it the initializer computes the Schur form of ``A^T``
    itself; the solution is the same up to rounding.  The solver keeps no
    reference to the pair after its first step, so a caller that keeps none
    either has its memory back for the later steps; no other order-N array
    outlives its last use.

    - The first step is exact: the initializer hands over a real Schur form
      ``A_0^T = Z T Z^T`` of the closed loop of the initial gain, whose
      abscissa certifies stability, and a Bartels-Stewart solve follows.  Its
      right-hand side ``I + K_0^T K_0`` enters in the Schur basis as
      ``I + (K_0 Z)^T (K_0 Z)``, from the m x N product ``K_0 Z``.
    - Each later step from ``X_k`` solves ``A_k^T E + E A_k = -R(X_k)`` and
      sets ``X <- X + E``.  After a full step the residual is
      ``-W W^T`` with ``W = (K_k - K_{k-1})^T``, which has as few
      columns as B, so ``E = -Z Z^T`` is a Galerkin solution on an extended
      Krylov space of ``(A_k^T, W)`` (no Schur form).
      Its Galerkin residual is only as small as the outer target needs
      (inexact Newton-Kleinman): it may use the share ``_OUTER_SHARE`` of
      ``_RICCATI_TOL |X_k|_F``, above the kernel's rounding floor and at most
      a tenth of the right-hand side.  Tied to the outer tolerance, the inner
      residuals add up to less than it, so the polish below is rare; a fixed
      tolerance relative to the right-hand side let a large first step leave
      more behind than the outer tolerance allows.  The first low-rank step
      factors its ``A_k^T``, the one LU of the solve; every later one applies
      ``A_k^T = A_ref^T - (K_k - K_ref)^T B^T`` through that LU and a
      Woodbury correction, and factors anew (becoming the reference) only
      when the m x m capacitance is singular or too ill-conditioned.  These
      solves only shape the Krylov basis: its projected matrix and residual
      use exact products with ``A_k``, applied as the plain products
      ``A^T V - K_k^T (B^T V)`` with no dense ``A_k``.
      When ``X + E`` is positive definite, the Lyapunov inertia theorem
      certifies that ``A_k`` is stable.  That is decided with no order-N
      factorization: each exact iterate is factored once, ``X_e = L L^T``,
      and with ``Y = L^-1 [Z_1 ... Z_k]`` over the low-rank corrections
      since, ``X + E = L (I - Y Y^T) L^T`` is positive definite exactly when
      the small ``I - Y^T Y`` is.  When its smallest eigenvalue lies within
      the rounding of the chain (about ``N eps cond(X_e)``), the Cholesky
      factorization of ``X + E`` decides instead.  X is then updated in
      place.  The new residual
      ``R(X + E) = -W W^T + A_k^T E + E A_k - E B B^T E`` lies in the span
      of the Krylov basis, where ``A_k^T Z`` is the projected matrix times the
      projected factor, so its norm is read off the kernel's projected
      matrices with no order-N product.
    - An exact step (Schur form, abscissa check, Bartels-Stewart with the
      full ``-R(X_k)``) is taken instead when the previous low-rank step
      failed to halve the residual (inner errors add up; this is the
      polish), or when the Krylov space reaches its dimension cap, its
      projected matrix is not stable, or the certificate fails.

    The factored residual does not see the Galerkin residuals that earlier
    low-rank steps left behind.  So the dense residual ``R(X)`` is formed
    after exact steps and before returning (and dropped once a low-rank step
    follows): convergence is judged on the dense relative residual
    ``|R(X)|_F / |X|_F``, and when that check fails an exact step follows.  A solve that stagnates, loses closed-loop
    stability or does not converge raises :class:`ConvergenceError`.
    ``ValueError`` names ``a`` when it is not a finite square matrix and
    ``b`` when its row count differs or an entry is not finite.

    ``closed_loop_decay`` needs no eigenvalue problem.  For the closed loop
    ``A_c = A - B B^T X``,
    ``W = -(A_c^T X + X A_c) = I + X B B^T X - R(X)``, so
    ``lambda_min(W) >= 1 - |R(X)|_F``.  If X > 0 (shown by the last low-rank
    step's certificate, or by the Cholesky factor of an exact last step) and
    the dense ``|R(X)|_F < 1``, every eigenvalue of ``A_c`` has
    ``Re lambda <= -(1 - |R(X)|_F) / (2 |X|_F)`` (Lyapunov inertia), and that
    bound is returned.  Otherwise the abscissa comes from the dense
    eigenvalues of the final closed loop.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    _check_system(a, b=b)
    n = a.shape[0]

    # The initializer's Schur pair of the first closed loop serves the first
    # step, after which no reference to it is left here.
    gain, *seed = _subspace_stabilizing_gain(a, b, schur=schur)
    schur = None
    exact_steps = 0
    history = []
    # ``res`` is the dense residual of ``x``, or None once a low-rank step
    # follows, whose factored norm is ``res_norm``.
    x = res = w = None
    # Cholesky factor of the last exact iterate, the scaled low-rank
    # corrections since and their Gram matrix (see _downdate_is_positive_definite).
    chol = y = gram = None
    # LU of the transposed closed loop of a reference gain; later closed
    # loops differ from it by a rank-m term.
    lu = ref_gain = None
    res_norm = np.inf
    best = np.inf
    stalled = 0
    patience = 8
    for it in range(1, _RICCATI_MAX_ITER + 1):
        lowrank = False
        if w is not None:
            res = None
            # A_k^T = A_ref^T - (K_k - K_ref)^T B^T.  The first low-rank step,
            # or one whose capacitance is ill-conditioned, becomes the reference.
            solve = None if lu is None else _woodbury_solver(lu, (gain - ref_gain).T, b)
            if solve is None:
                lu, ref_gain = sla.lu_factor(_closed_loop_t(a, b, gain), overwrite_a=True), gain
                solve = functools.partial(sla.lu_solve, lu, check_finite=False)
            atol = min(_OUTER_SHARE * _RICCATI_TOL * x_norm, 0.1 * np.linalg.norm(w.T @ w))
            # A_k^T = A^T - K_k^T B^T, applied without forming it.
            found = _lowrank_lyap(lambda v: a.T @ v - gain.T @ (b.T @ v), w, solve, atol=atol)
            # Inertia: A_k^T (X + E) + (X + E) A_k = -(I + K_k^T K_k), up to
            # the inner and carried-over residuals, so X + E > 0 certifies
            # that A_k is stable.
            if found is not None:
                z, coords = found
                lowrank, y, gram = _downdate_is_positive_definite(x, chol, y, gram, z)
        prev_norm = res_norm
        if lowrank:
            x -= z @ z.T
            res_norm = _lowrank_residual_norm(*coords, z.T @ b)
        else:
            t, zs = seed or sla.schur(_closed_loop_t(a, b, gain), output="real", overwrite_a=True)
            seed = None
            abscissa = float(np.max(np.diag(t)))
            if abscissa >= 0.0:
                raise ConvergenceError(
                    f"Newton-Kleinman iterate lost closed-loop stability (abscissa {abscissa:.3e})"
                )
            if x is None:
                x = _lyap_in_schur_basis(t, zs, _first_rhs_in_schur_basis(gain, zs))
            else:
                if res is None:
                    res = _riccati_residual(a, b, x)
                x += _lyap_from_schur(t, zs, res)
            t = zs = res = None
            exact_steps += 1
            res = _riccati_residual(a, b, x)
            res_norm = np.linalg.norm(res)
            chol, y, gram = _cholesky_or_none(x), np.empty((n, 0)), np.empty((0, 0))
        x_norm = max(np.linalg.norm(x), 1e-300)
        # The factored norm does not see the residuals that earlier low-rank
        # steps carried over; the dense residual decides convergence.
        carried = res is None and res_norm <= _RICCATI_TOL * x_norm
        if carried:
            res = _riccati_residual(a, b, x)
            res_norm = np.linalg.norm(res)
        rel = res_norm / x_norm
        history.append(rel)
        if rel <= _RICCATI_TOL:
            # The inertia certificate of the docstring: a low-rank last step
            # has shown X > 0 through the chain, an exact one by its Cholesky
            # factor.
            if res_norm < 1.0 and (lowrank or chol is not None):
                decay = -(1.0 - res_norm) / (2.0 * x_norm)
            else:
                decay = spectral_abscissa(a - b @ (b.T @ x))
            return RiccatiSolution(
                x=x,
                residual_norm=rel,
                closed_loop_decay=decay,
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
        next_gain = b.T @ x
        # R(X) = -W W^T holds after a Newton step up to its inner residual; a
        # stalled low-rank step or residuals carried over from earlier
        # low-rank steps hand the full residual to an exact step instead.
        if carried or (lowrank and res_norm > 0.5 * prev_norm):
            w = None
        else:
            w = (next_gain - gain).T
        gain = next_gain
    raise ConvergenceError(
        f"Newton-Kleinman did not reach {_RICCATI_TOL:g} in {_RICCATI_MAX_ITER} iterations",
        residual=res_norm / max(np.linalg.norm(x), 1e-300),
        iterations=_RICCATI_MAX_ITER,
    )


def solve_riccati_filter(a, c, *, schur=None):
    """Stabilizing solution of the dual (filter) Riccati equation.

    Solves ``A X + X A^T - X C^T C X + I = 0`` by transposition of the
    control problem.  ``schur`` is an optional real Schur pair ``(T, Z)`` of
    ``A = Z T Z^T``, overwritten as in :func:`solve_riccati_control`;
    ``closed_loop_decay`` bounds the abscissa of ``A - X C^T C``.  No
    reference to the pair is kept here either.
    ``ValueError`` names ``a`` when it is not a finite square matrix and
    ``c`` when its column count differs or an entry is not finite.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    c = np.atleast_2d(np.asarray(c, dtype=float))
    _check_system(a, c=c)
    # The pair is handed on with no reference kept here, so that the solve
    # can release it after its first step.
    pair, schur = [schur], None
    return solve_riccati_control(a.T, c.T, schur=pair.pop())


# ---------------------------------------------------------------------------
# Standard-form systems and balanced truncation

@dataclass
class StateSpace:
    """Dense standard-form system (A, B, C) without feedthrough.

    ``ValueError``, naming the argument, unless A is square, B has as many
    rows and C as many columns, and every entry is finite.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        _check_system(self.a, self.b, self.c)

    @property
    def order(self):
        return self.a.shape[0]

    def transfer(self, s):
        """C (sI - A)^-1 B at one complex s; ``ValueError`` if s is not finite or a pole."""
        if not np.isfinite(s):
            raise ValueError(f"shift {s} is not finite")
        try:
            x = np.linalg.solve(s * np.eye(self.order) - self.a, self.b)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"shift {s} is singular (eigenvalue of the system): {exc}") from exc
        return self.c @ x


@dataclass
class BalancedReduction:
    """Reduced system with Hankel singular values and the H-infinity bound."""

    system: StateSpace                   # of order r
    hankel_singular_values: np.ndarray   # the values the Gramian factors resolve, nonincreasing
    error_bound: float                   # 2 * sum of truncated values
    gramian_residuals: tuple             # |A P + P A^T + B B^T|_F / |B B^T|_F and its dual


def check_reduced_order(r, n):
    """Reject a reduced order ``r`` that is not an integer in [1, n] (``ValueError``, with no rounding)."""
    if isinstance(r, bool) or not isinstance(r, numbers.Integral):
        raise ValueError(f"reduced order must be an integer, got {r!r}")
    if not 1 <= r <= n:
        raise ValueError(f"reduced order {r} must lie in [1, {n}]")


def balanced_truncation(sys, r):
    """Low-rank square-root balanced truncation of a stable StateSpace to order ``r``.

    The reduced system is the projection ``(T_l A T_r, T_l B, C T_r)``; like
    every StateSpace it has no feedthrough.

    Both Gramians come as factors from the extended Krylov kernel
    ``_lowrank_lyap`` (inner tolerance ``_INNER_TOL``), whose solves with A
    and with A^T all come from one LU of A, and the Hankel
    singular values are those of ``Z_q^T Z_p`` (Gugercin & Li, 2005).  When
    ``r`` reaches the number of values above 1e-13 of the largest, the exact
    Gramians of :func:`solve_lyapunov` are factored instead.
    ``r`` must pass :func:`check_reduced_order` with N.  If ``r`` exceeds
    the numerical Hankel rank it is clamped with a warning.
    The reduced system satisfies the usual bound: the H-infinity error is at
    most twice the sum of the truncated Hankel singular values.  From the
    resolved order on, :func:`solve_lyapunov` rejects an unstable drift
    (``ValueError``).  Below it only the modes the Krylov bases reach are
    checked: an unstable mode that B does not reach and C does not see
    passes, and the reduced system leaves it out.
    """
    n = sys.order
    check_reduced_order(r, n)
    lu = sla.lu_factor(sys.a)
    ctrb = _lowrank_lyap(sys.a.__matmul__, sys.b, functools.partial(sla.lu_solve, lu, check_finite=False), cap=n)
    obsv = _lowrank_lyap(
        sys.a.T.__matmul__, sys.c.T, functools.partial(sla.lu_solve, lu, trans=1, check_finite=False), cap=n
    )
    if ctrb is None or obsv is None:
        raise ValueError("balanced truncation requires a stable system")
    (zp, _), (zq, _) = ctrb, obsv
    u, sv, vt = np.linalg.svd(zq.T @ zp, full_matrices=False)
    rank = int(np.sum(sv > max(sv[0], 1e-300) * 1e-13))
    if r >= rank:
        # The rank stays the inner factors'.  The exact Gramians have
        # directions that only rounding put there, and their square-root
        # factors pair into spurious Hankel values (up to 1.1e-7 of the
        # largest on non-minimal systems).
        zp = _psd_factor(solve_lyapunov(sys.a, sys.b @ sys.b.T))
        zq = _psd_factor(solve_lyapunov(sys.a.T, sys.c.T @ sys.c))
        ctrb, obsv = (zp, (sys.a @ zp, zp, sys.b)), (zq, (sys.a.T @ zq, zq, sys.c.T))
        u, sv, vt = np.linalg.svd(zq.T @ zp, full_matrices=False)
    if r > rank:
        warnings.warn(f"requested order {r} exceeds numerical Hankel rank {rank}; clamping", stacklevel=2)
        r = rank
    scale = 1.0 / np.sqrt(sv[:r])
    t_right = zp @ vt[:r].T * scale
    t_left = (u[:, :r] * scale).T @ zq.T
    reduced = StateSpace(a=t_left @ sys.a @ t_right, b=t_left @ sys.b, c=sys.c @ t_right)
    residuals = tuple(
        _lowrank_residual_norm(*coords) / max(np.linalg.norm(rhs.T @ rhs), 1e-300)
        for (_, coords), rhs in ((ctrb, sys.b), (obsv, sys.c.T))
    )
    return BalancedReduction(
        system=reduced,
        hankel_singular_values=sv,
        error_bound=2.0 * float(np.sum(sv[r:])),
        gramian_residuals=residuals,
    )


def sample_frequency_error(sys1, sys2, omegas):
    """Largest spectral-norm transfer difference over a non-empty, finite frequency grid.

    ``ValueError`` for any other grid and for transfer matrices of different shapes.
    """
    omegas = np.atleast_1d(omegas)
    if not (omegas.size and np.all(np.isfinite(omegas))):
        raise ValueError(f"the frequency grid must be non-empty and finite, got {omegas!r}")
    shapes = [(sys.c.shape[0], sys.b.shape[1]) for sys in (sys1, sys2)]
    if shapes[0] != shapes[1]:
        raise ValueError(f"transfer matrices of shapes {shapes[0]} and {shapes[1]} cannot be compared")
    worst = 0.0
    for w in omegas:
        diff = sys1.transfer(1j * w) - sys2.transfer(1j * w)
        worst = max(worst, float(np.linalg.norm(diff, 2)))
    return worst
