import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg import lapack

from thermoreg import lti
from thermoreg.errors import ConvergenceError
from thermoreg.lti import StateSpace


def lyapunov_kron_oracle(a, q):
    """Direct Kronecker-system solve of A X + X A^T + Q = 0."""
    n = a.shape[0]
    eye = np.eye(n)
    lhs = np.kron(eye, a) + np.kron(a, eye)
    x = np.linalg.solve(lhs, -q.flatten(order="F"))
    return x.reshape((n, n), order="F")


def random_stable(rng, n, shift=2.0):
    return rng.standard_normal((n, n)) / np.sqrt(n) - shift * np.eye(n)


# ---------------------------------------------------------------------------
# Lyapunov

def test_lyapunov_scalar():
    x = lti.solve_lyapunov(np.array([[-1.0]]), np.array([[2.0]]))
    assert x == pytest.approx(np.array([[1.0]]))


def test_lyapunov_matches_kronecker_oracle(rng):
    for _ in range(5):
        a = random_stable(rng, 5)
        q0 = rng.standard_normal((5, 5))
        q = q0 @ q0.T
        x = lti.solve_lyapunov(a, q)
        x_ref = lyapunov_kron_oracle(a, q)
        assert np.max(np.abs(x - x_ref)) < 1e-10
        res = a @ x + x @ a.T + q
        denom = np.linalg.norm(q) + 2 * np.linalg.norm(a) * np.linalg.norm(x)
        assert np.linalg.norm(res) / denom < 1e-10


def test_lyapunov_blocked_recursion(rng):
    # n > block size exercises the recursive triangular solver.
    n = 170
    a = random_stable(rng, n)
    q0 = rng.standard_normal((n, n))
    q = q0 @ q0.T
    x = lti.solve_lyapunov(a, q)
    res = a @ x + x @ a.T + q
    denom = np.linalg.norm(q) + 2 * np.linalg.norm(a) * np.linalg.norm(x)
    assert np.linalg.norm(res) / denom < 1e-12


def test_lyapunov_psd_for_psd_q(rng):
    a = random_stable(rng, 6)
    q0 = rng.standard_normal((6, 3))
    x = lti.solve_lyapunov(a, q0 @ q0.T)
    assert np.min(np.linalg.eigvalsh(x)) > -1e-12 * np.linalg.norm(x)


def test_lyapunov_rejects_unstable():
    with pytest.raises(ValueError):
        lti.solve_lyapunov(np.array([[1.0]]), np.array([[1.0]]))


# ---------------------------------------------------------------------------
# Riccati

def test_riccati_scalar_closed_form():
    sol = lti.solve_riccati_control(
        np.array([[0.0]]), np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]), alpha=0.0
    )
    assert sol.x == pytest.approx(np.array([[1.0]]), abs=1e-12)
    assert sol.closed_loop_decay == pytest.approx(-1.0, abs=1e-10)


def test_riccati_zero_b_reduces_to_lyapunov(rng):
    a = random_stable(rng, 4)
    q0 = rng.standard_normal((4, 4))
    q = q0 @ q0.T
    b = np.zeros((4, 2))
    sol = lti.solve_riccati_control(a, b, np.eye(2), q)
    # A^T X + X A + Q = 0
    x_ref = lyapunov_kron_oracle(a.T, q)
    assert np.max(np.abs(sol.x - x_ref)) < 1e-10


def test_riccati_matches_hamiltonian_oracle(rng):
    for _ in range(10):
        a = random_stable(rng, 6, shift=1.5)
        b = rng.standard_normal((6, 2))
        q = np.eye(6)
        sol = lti.solve_riccati_control(a, b, np.eye(2), q, alpha=0.3)
        x_ref = lti.riccati_hamiltonian(a, b, np.eye(2), q, alpha=0.3)
        assert np.max(np.abs(sol.x - x_ref)) < 1e-8
        assert sol.residual_norm <= 1e-9


def test_riccati_unstable_shift_uses_initializer(rng):
    # A stable but A + alpha I unstable: zero initial gain invalid, the
    # subspace initializer must kick in.
    a = random_stable(rng, 8, shift=1.0)
    b = rng.standard_normal((8, 2))
    q = np.eye(8)
    alpha = 1.4
    assert lti.spectral_abscissa(a + alpha * np.eye(8)) > 0
    assert np.any(lti._subspace_stabilizing_gain(a + alpha * np.eye(8), b, np.eye(2))[0])
    sol = lti.solve_riccati_control(a, b, np.eye(2), q, alpha=alpha)
    x_ref = lti.riccati_hamiltonian(a, b, np.eye(2), q, alpha=alpha)
    assert np.max(np.abs(sol.x - x_ref)) / np.linalg.norm(x_ref) < 1e-9
    assert sol.closed_loop_decay < -alpha + 1e-10


def test_riccati_decay_margin(rng):
    # The alpha-shifted design guarantees closed-loop decay of at least alpha.
    a = random_stable(rng, 5)
    b = rng.standard_normal((5, 1))
    alpha = 0.7
    sol = lti.solve_riccati_control(a, b, np.eye(1), np.eye(5), alpha=alpha)
    assert sol.closed_loop_decay < -alpha + 1e-10


def test_riccati_solution_psd(rng):
    a = random_stable(rng, 6)
    b = rng.standard_normal((6, 2))
    sol = lti.solve_riccati_control(a, b, np.eye(2), np.eye(6))
    assert np.allclose(sol.x, sol.x.T, atol=1e-14)
    assert np.min(np.linalg.eigvalsh(sol.x)) >= -1e-8 * np.linalg.norm(sol.x)


def test_riccati_rejects_indefinite_weight():
    with pytest.raises(ValueError, match="positive definite"):
        lti.solve_riccati_control(np.array([[-1.0]]), np.array([[1.0]]), np.array([[-1.0]]), np.array([[1.0]]))


@pytest.mark.parametrize("alpha", [np.nan, np.inf])
def test_riccati_rejects_non_finite_shift(alpha):
    with pytest.raises(ValueError, match="alpha must be finite"):
        lti.solve_riccati_control(np.array([[-1.0]]), np.array([[1.0]]), np.eye(1), np.eye(1), alpha=alpha)


def test_riccati_unstabilizable_raises():
    # Unstable mode not reachable from B.
    a = np.diag([1.0, -2.0])
    b = np.array([[0.0], [1.0]])
    with pytest.raises(ConvergenceError):
        lti.solve_riccati_control(a, b, np.eye(1), np.eye(2))


@pytest.mark.parametrize("seed", [249, 256])
def test_riccati_full_steps_cross_conditioning_limit(seed):
    # B of size 0.01 against a drift of spectral radius about 2.5 puts |X|
    # near 1e15 and the residual norm near its rounding floor, where it rises
    # for a step or two before full Newton steps (Kleinman's monotone X)
    # converge.
    rng = np.random.default_rng(seed)
    a = 2.5 * rng.standard_normal((16, 16)) / 4
    b = 0.01 * rng.standard_normal((16, 1))
    alpha = 0.5
    sol = lti.solve_riccati_control(a, b, np.eye(1), np.eye(16), alpha=alpha)
    ash = a + alpha * np.eye(16)
    res = ash.T @ sol.x + sol.x @ ash - sol.x @ b @ b.T @ sol.x + np.eye(16)
    assert np.linalg.norm(res) / np.linalg.norm(sol.x) <= 1e-9
    assert sol.closed_loop_decay < -alpha
    assert np.any(np.diff(sol.residual_history) > 0)


@pytest.mark.parametrize("seed", [249, 256])
def test_hamiltonian_oracle_rejects_non_stabilizing_solution(seed):
    # The same conditioning-limit problems: the stable subspace gives |X|
    # near 4e15 and an unstable closed loop (abscissa +0.41 and +0.29).
    rng = np.random.default_rng(seed)
    a = 2.5 * rng.standard_normal((16, 16)) / 4
    b = 0.01 * rng.standard_normal((16, 1))
    with pytest.raises(ConvergenceError, match=r"not stabilizing: closed-loop abscissa \d\.\d+e-01"):
        lti.riccati_hamiltonian(a, b, np.eye(1), np.eye(16), alpha=0.5)


def test_initializer_schur_reordering_failure_is_typed(monkeypatch):
    # LAPACK's eigenvalue reordering can fail on ill-conditioned spectra;
    # the caller must see the typed error naming the initializer.
    dtrsen = lapack.dtrsen

    def failing(*args, **kwargs):
        *out, _ = dtrsen(*args, **kwargs)
        return (*out, 1)  # info = 1: eigenvalues too close to swap

    monkeypatch.setattr(lapack, "dtrsen", failing)
    with pytest.raises(ConvergenceError, match="initializer.*ordered Schur form failed.*info=1"):
        lti.solve_riccati_control(np.diag([1.0, -2.0]), np.ones((2, 1)), np.eye(1), np.eye(2))


def test_initializer_rejects_unstable_stabilized_block():
    # 45 of the 150 modes of A + I are unstable; the Hamiltonian solve of the
    # projected 45-state, 2-input pair is too ill-conditioned to stabilize it.
    n = 150
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n)) / np.sqrt(n) - 1.5 * np.eye(n) + 2.0 * np.triu(rng.standard_normal((n, n)), 1) / np.sqrt(n)
    b = rng.standard_normal((n, 2))
    assert np.sum(np.linalg.eigvals(a + np.eye(n)).real > 0) == 45
    with pytest.raises(ConvergenceError, match=r"no stabilizing initializer: .* order 45 has abscissa \d"):
        lti.solve_riccati_control(a, b, np.eye(2), np.eye(n), alpha=1.0)


def test_filter_duality(rng):
    a = random_stable(rng, 6)
    c = rng.standard_normal((2, 6))
    q = np.eye(6)
    fil = lti.solve_riccati_filter(a, c, np.eye(2), q, alpha=0.2)
    ctrl = lti.solve_riccati_control(a.T, c.T, np.eye(2), q, alpha=0.2)
    assert np.max(np.abs(fil.x - ctrl.x)) < 1e-12
    # Residual of the filter equation itself.
    ash = a + 0.2 * np.eye(6)
    res = ash @ fil.x + fil.x @ ash.T - fil.x @ c.T @ np.linalg.solve(np.eye(2), c) @ fil.x + q
    assert np.linalg.norm(res) / np.linalg.norm(fil.x) < 1e-9


def test_filter_scalar_dual():
    sol = lti.solve_riccati_filter(
        np.array([[0.0]]), np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]])
    )
    assert sol.x == pytest.approx(np.array([[1.0]]), abs=1e-12)


# ---------------------------------------------------------------------------
# Newton-Kleinman with low-rank corrections (order above _TRSYL_BLOCK)

LOWRANK_ALPHA = 1.05


def nonnormal_problem(seed, n=150, m=2):
    """Non-normal drift with spectrum in [-10, -1], random B (n x m) and C.

    Four eigenvalues of A + LOWRANK_ALPHA I are unstable, so the subspace
    initializer engages.
    """
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    tri = np.diag(-np.logspace(0.0, 1.0, n)) + 0.5 / np.sqrt(n) * np.triu(rng.standard_normal((n, n)), 1)
    return basis @ tri @ basis.T, rng.standard_normal((n, m)), rng.standard_normal((m, n))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_riccati_lowrank_matches_hamiltonian_oracle(seed):
    a, b, c = nonnormal_problem(seed)
    n, m = b.shape
    alpha = LOWRANK_ALPHA
    assert n > lti._TRSYL_BLOCK
    assert np.any(lti._subspace_stabilizing_gain(a + alpha * np.eye(n), b, np.eye(m))[0])
    solutions = [
        (lti.solve_riccati_control(a, b, np.eye(m), np.eye(n), alpha=alpha),
         lti.riccati_hamiltonian(a, b, np.eye(m), np.eye(n), alpha=alpha)),
        (lti.solve_riccati_filter(a, c, np.eye(m), np.eye(n), alpha=alpha),
         lti.riccati_hamiltonian(a.T, c.T, np.eye(m), np.eye(n), alpha=alpha)),
    ]
    for sol, x_ref in solutions:
        assert sol.residual_norm <= 1e-9
        assert np.linalg.norm(sol.x - x_ref) / np.linalg.norm(x_ref) < 1e-7
        assert sol.closed_loop_decay < -alpha + 1e-10


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_riccati_lowrank_needs_few_schur_forms(seed, schur_orders):
    # Initializer, first exact step and at most one polish; the full-Schur
    # loop needed one decomposition per iteration.
    a, b, c = nonnormal_problem(seed)
    n, m = b.shape
    for solve, op in ((lti.solve_riccati_control, b), (lti.solve_riccati_filter, c)):
        schur_orders.clear()
        sol = solve(a, op, np.eye(m), np.eye(n), alpha=LOWRANK_ALPHA)
        assert sol.residual_norm <= 1e-9
        assert sum(k >= n for k in schur_orders) <= 3 < sol.iterations + 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_riccati_lowrank_needs_at_most_two_schur_forms(seed, schur_orders):
    # The initializer's ordered form is also the first step's, so only a
    # polish adds an order-N form.
    a, b, c = nonnormal_problem(seed)
    n, m = b.shape
    for solve, op in ((lti.solve_riccati_control, b), (lti.solve_riccati_filter, c)):
        schur_orders.clear()
        sol = solve(a, op, np.eye(m), np.eye(n), alpha=LOWRANK_ALPHA)
        assert sol.residual_norm <= 1e-9
        assert sum(k >= n for k in schur_orders) <= 2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_supplied_schur_pair_gives_the_same_solution(seed, schur_orders):
    # A caller's Schur pair of the unshifted drift (A^T for the control
    # equation, A for the filter equation) replaces the solver's own order-N
    # form; the solution is the same up to rounding.
    a, b, c = nonnormal_problem(seed)
    n, m = b.shape
    cases = (
        (lti.solve_riccati_control, b, a.T, lti.riccati_hamiltonian(a, b, np.eye(m), np.eye(n), alpha=LOWRANK_ALPHA)),
        (lti.solve_riccati_filter, c, a, lti.riccati_hamiltonian(a.T, c.T, np.eye(m), np.eye(n), alpha=LOWRANK_ALPHA)),
    )
    for solve, op, drift, x_ref in cases:
        own = solve(a, op, np.eye(m), np.eye(n), alpha=LOWRANK_ALPHA)
        pair = sla.schur(drift, output="real")
        schur_orders.clear()
        sol = solve(a, op, np.eye(m), np.eye(n), alpha=LOWRANK_ALPHA, schur=pair)
        assert not any(k >= n for k in schur_orders)
        assert sol.residual_norm <= 1e-9
        assert np.linalg.norm(sol.x - own.x) / np.linalg.norm(own.x) < 1e-8
        assert np.linalg.norm(sol.x - x_ref) / np.linalg.norm(x_ref) < 1e-7
        assert sol.closed_loop_decay < -LOWRANK_ALPHA + 1e-10


def test_riccati_records_exact_steps_and_residual_history(monkeypatch):
    a, b, _ = nonnormal_problem(0)
    n, m = b.shape

    def solve(q):
        return lti.solve_riccati_control(a, b, np.eye(m), q, alpha=LOWRANK_ALPHA)

    # Inner tolerances sized by the outer one: only the first step is exact.
    sol = solve(np.eye(n))
    assert sol.exact_steps == 1 < sol.iterations
    assert len(sol.residual_history) == sol.iterations
    assert sol.residual_history[-1] == sol.residual_norm <= 1e-9 < min(sol.residual_history[:-1])
    # Singular Q: no inertia certificate, every step is exact.
    semidefinite = solve(np.diag(np.r_[0.0, np.ones(n - 1)]))
    assert semidefinite.exact_steps == semidefinite.iterations == len(semidefinite.residual_history)
    # Loose inner solves carry residuals over, and the exact polish follows.
    monkeypatch.setattr(lti, "_OUTER_SHARE", 1e2)
    assert solve(np.eye(n)).exact_steps >= 2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_initializer_returns_schur_form_of_first_closed_loop(seed):
    a, b, _ = nonnormal_problem(seed)
    n, m = b.shape
    ash = a + LOWRANK_ALPHA * np.eye(n)
    gain, t, z = lti._subspace_stabilizing_gain(ash, b, np.eye(m))
    acl_t = (ash - b @ gain).T
    assert np.linalg.norm(z.T @ z - np.eye(n)) < 1e-12 * n
    assert np.linalg.norm(z @ t @ z.T - acl_t) < 1e-12 * np.linalg.norm(acl_t)
    # Quasi-upper-triangular: nothing below the first subdiagonal, and no
    # two consecutive subdiagonal entries.
    assert not np.any(np.tril(t, -2))
    sub = np.diag(t, -1) != 0.0
    assert not np.any(sub[1:] & sub[:-1])
    abscissa = np.max(np.diag(t))
    assert abscissa == pytest.approx(lti.spectral_abscissa(acl_t), abs=1e-10)
    assert abscissa < 0


def test_initializer_without_unstable_modes_returns_ordered_form():
    rng = np.random.default_rng(7)
    a = random_stable(rng, 7)
    b = rng.standard_normal((7, 2))
    gain, t, z = lti._subspace_stabilizing_gain(a, b, np.eye(2))
    assert not np.any(gain)
    assert np.linalg.norm(z @ t @ z.T - a.T) < 1e-13 * np.linalg.norm(a)


@pytest.mark.parametrize("denial", ["krylov_cap", "indefinite_correction"])
def test_riccati_falls_back_to_exact_steps(denial, monkeypatch, schur_orders):
    if denial == "krylov_cap":
        monkeypatch.setattr(lti, "_KRYLOV_MAX_DIM", 2)
    else:
        # X + E is indefinite, so the step carries no inertia certificate.
        monkeypatch.setattr(lti, "_lowrank_lyap", lambda a, w, atol: -1e6 * np.eye(a.shape[0]))
    a, b, _ = nonnormal_problem(0)
    n, m = b.shape
    sol = lti.solve_riccati_control(a, b, np.eye(m), np.eye(n), alpha=LOWRANK_ALPHA)
    # One exact step per iteration; the first uses the initializer's form.
    assert sum(k >= n for k in schur_orders) == sol.iterations
    x_ref = lti.riccati_hamiltonian(a, b, np.eye(m), np.eye(n), alpha=LOWRANK_ALPHA)
    assert sol.residual_norm <= 1e-9
    assert np.linalg.norm(sol.x - x_ref) / np.linalg.norm(x_ref) < 1e-7


def test_riccati_carried_residual_takes_exact_polish(monkeypatch, schur_orders):
    # With a loose inner tolerance the Galerkin residuals that low-rank steps
    # leave behind exceed the outer tolerance.  The factored residual does not
    # see them, the dense check before return does, and an exact step follows.
    monkeypatch.setattr(lti, "_OUTER_SHARE", 1e2)
    a, b, _ = nonnormal_problem(0)
    n, m = b.shape
    sol = lti.solve_riccati_control(a, b, np.eye(m), np.eye(n), alpha=LOWRANK_ALPHA)
    assert sum(k >= n for k in schur_orders) >= 2
    x_ref = lti.riccati_hamiltonian(a, b, np.eye(m), np.eye(n), alpha=LOWRANK_ALPHA)
    assert sol.residual_norm <= 1e-9
    assert np.linalg.norm(sol.x - x_ref) / np.linalg.norm(x_ref) < 1e-7


def test_riccati_semidefinite_q_takes_exact_steps(schur_orders):
    # Q is singular, so the inertia certificate of a low-rank step is
    # unavailable and every step is exact (Schur abscissa check).
    a, b, _ = nonnormal_problem(0)
    n, m = b.shape
    q = np.diag(np.r_[0.0, np.ones(n - 1)])
    sol = lti.solve_riccati_control(a, b, np.eye(m), q, alpha=LOWRANK_ALPHA)
    assert sum(k >= n for k in schur_orders) == sol.iterations
    x_ref = lti.riccati_hamiltonian(a, b, np.eye(m), q, alpha=LOWRANK_ALPHA)
    assert sol.residual_norm <= 1e-9
    assert np.linalg.norm(sol.x - x_ref) / np.linalg.norm(x_ref) < 1e-7
    assert sol.closed_loop_decay < -LOWRANK_ALPHA + 1e-10


# ---------------------------------------------------------------------------
# Extended Krylov Lyapunov kernel

def lyapunov_residual(a, p, w):
    return np.linalg.norm(a @ p + p @ a.T + w @ w.T) / np.linalg.norm(w.T @ w)


@pytest.mark.parametrize("seed", [0, 1])
def test_lowrank_lyap_factor_meets_inner_tolerance(seed):
    a, b, _ = nonnormal_problem(seed)
    n = a.shape[0]
    z = lti._lowrank_lyap(a, b)
    assert z is not None and z.shape[1] < n // 2
    p = z @ z.T
    assert lyapunov_residual(a, p, b) < 1e-10
    p_ref = lti.solve_lyapunov(a, b @ b.T)
    assert np.linalg.norm(p - p_ref) < 1e-10 * np.linalg.norm(p_ref)
    assert lti._lowrank_residual_norm(a, z, b) == pytest.approx(lyapunov_residual(a, p, b) * np.linalg.norm(b.T @ b), rel=1e-6)


def test_lowrank_lyap_meets_absolute_target():
    # ``atol`` loosens the relative floor: a smaller basis, and the Galerkin
    # residual (read off the projected matrix) still meets the target.
    a, b, _ = nonnormal_problem(0)
    atol = 1e-6 * np.linalg.norm(b.T @ b)
    tight = lti._lowrank_lyap(a, b)
    loose = lti._lowrank_lyap(a, b, atol=atol)
    assert loose.shape[1] < tight.shape[1]
    p = loose @ loose.T
    assert np.linalg.norm(a @ p + p @ a.T + b @ b.T) <= atol * (1 + 1e-8)


def test_lowrank_lyap_full_space_is_exact():
    rng = np.random.default_rng(8)
    a = random_stable(rng, 9)
    w = rng.standard_normal((9, 2))
    z = lti._lowrank_lyap(a, w, cap=9, tol=0.0)
    p_ref = lyapunov_kron_oracle(a, w @ w.T)
    assert np.max(np.abs(z @ z.T - p_ref)) < 1e-12 * np.max(np.abs(p_ref))


def test_lowrank_lyap_stops_on_invariant_subspace():
    # Only the first two states are reachable: the Krylov space is
    # invariant after one block and holds the Gramian exactly.
    a = np.diag([-1.0, -3.0, -2.0, -5.0])
    a[0, 1] = 1.0
    w = np.array([[1.0], [1.0], [0.0], [0.0]])
    z = lti._lowrank_lyap(a, w, cap=4, tol=0.0)
    assert z.shape[1] == 2
    p_ref = lyapunov_kron_oracle(a, w @ w.T)
    assert np.max(np.abs(z @ z.T - p_ref)) < 1e-14


def test_lowrank_lyap_cap_returns_none():
    rng = np.random.default_rng(9)
    a = random_stable(rng, 12)
    assert lti._lowrank_lyap(a, rng.standard_normal((12, 2)), cap=3) is None


def test_lowrank_lyap_unstable_full_space_returns_none():
    a = np.array([[0.5, 1.0], [0.0, -2.0]])
    assert lti._lowrank_lyap(a, np.array([[1.0], [1.0]]), cap=2, tol=0.0) is None


def test_factored_residual_norm_matches_dense():
    rng = np.random.default_rng(10)
    n = 30
    a = rng.standard_normal((n, n))
    z = rng.standard_normal((n, 4))
    w = rng.standard_normal((n, 2))
    g = rng.standard_normal((4, 2))
    dense = a @ z @ z.T + z @ z.T @ a.T + w @ w.T + z @ g @ g.T @ z.T
    assert lti._lowrank_residual_norm(a, z, w, g) == pytest.approx(np.linalg.norm(dense), rel=1e-12)


# ---------------------------------------------------------------------------
# Balanced truncation

def _random_system(rng, n, m=2, p=2, shift=1.5):
    a = random_stable(rng, n, shift)
    sys = StateSpace(a=a, b=rng.standard_normal((n, m)), c=rng.standard_normal((p, n)))
    # Some small draws are not stable after the shift; move them by their own
    # abscissa plus a margin.  The draws consumed stay the same.
    abscissa = lti.spectral_abscissa(a)
    if abscissa >= 0.0:
        a -= (abscissa + 0.5) * np.eye(n)
    return sys


def test_bt_full_order_reproduces_system(rng):
    sys = _random_system(rng, 7)
    red = lti.balanced_truncation(sys, 7)
    grid = np.logspace(-2, 2, 25)
    assert lti.sample_frequency_error(sys, red.system, grid) < 1e-10


def test_bt_two_state_example_with_kron_oracle():
    a = np.diag([-1.0, -100.0])
    b = np.array([[1.0], [1.0]])
    c = np.array([[1.0, 1.0]])
    sys = StateSpace(a=a, b=b, c=c)
    ctrb = lyapunov_kron_oracle(a, b @ b.T)
    obsv = lyapunov_kron_oracle(a.T, c.T @ c)
    hsv_oracle = np.sqrt(np.sort(np.linalg.eigvals(ctrb @ obsv).real)[::-1])
    red = lti.balanced_truncation(sys, 1)
    assert np.allclose(red.hankel_singular_values, hsv_oracle, atol=1e-12)
    # The slow mode survives.
    assert -2.0 < red.system.a[0, 0] < -0.4
    grid = np.logspace(-3, 3, 80)
    err = lti.sample_frequency_error(sys, red.system, grid)
    assert err <= 2.0 * hsv_oracle[1] + 1e-12


def test_bt_bound_on_random_systems(rng):
    grid = np.logspace(-2, 2, 40)
    for _ in range(10):
        n = int(rng.integers(4, 12))
        sys = _random_system(rng, n)
        r = int(rng.integers(1, n))
        red = lti.balanced_truncation(sys, r)
        err = lti.sample_frequency_error(sys, red.system, grid)
        assert err <= red.error_bound * (1 + 1e-10) + 1e-12
        hsv = red.hankel_singular_values
        assert np.all(np.diff(hsv) <= 1e-12 * hsv[0])
        assert lti.spectral_abscissa(red.system.a) < 0


def test_bt_hsv_similarity_invariant(rng):
    sys = _random_system(rng, 6)
    t = rng.standard_normal((6, 6)) + 3 * np.eye(6)
    tinv = np.linalg.inv(t)
    sys2 = StateSpace(a=tinv @ sys.a @ t, b=tinv @ sys.b, c=sys.c @ t)
    h1 = lti.balanced_truncation(sys, 3).hankel_singular_values
    h2 = lti.balanced_truncation(sys2, 3).hankel_singular_values
    assert np.allclose(h1, h2, rtol=1e-8)


def test_bt_rejects_unstable(rng):
    sys = _random_system(rng, 4)
    sys.a[0, 0] = 5.0
    sys.a[0, 1:] = 0.0
    sys.a[1:, 0] = 0.0
    with pytest.raises(ValueError):
        lti.balanced_truncation(sys, 2)


@pytest.mark.parametrize("r", [2.5, 10.0, np.float64(2.0), "3", True])
def test_bt_rejects_non_integer_order(r):
    with pytest.raises(ValueError, match="integer"):
        lti.balanced_truncation(_random_system(np.random.default_rng(0), 12), r)


def diffusive_system(n=150, seed=0):
    """Symmetric stable drift with spread spectrum: fast-decaying Hankel values."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = basis @ np.diag(-np.logspace(-1.0, 3.0, n)) @ basis.T
    a = a + 0.05 * np.triu(rng.standard_normal((n, n)), 1) / np.sqrt(n)
    return StateSpace(a=a, b=rng.standard_normal((n, 1)), c=rng.standard_normal((2, n)))


def dense_hankel_values(sys):
    """Square-root Hankel values from dense Bartels-Stewart Gramians."""

    def factor(x):
        w, v = np.linalg.eigh(0.5 * (x + x.T))
        return v * np.sqrt(np.clip(w, 0.0, None))

    ctrb = lti.solve_lyapunov(sys.a, sys.b @ sys.b.T)
    obsv = lti.solve_lyapunov(sys.a.T, sys.c.T @ sys.c)
    return np.linalg.svd(factor(obsv).T @ factor(ctrb), compute_uv=False)


def test_bt_lowrank_matches_dense_hankel_values():
    sys = diffusive_system()
    r = 8
    red = lti.balanced_truncation(sys, r)
    hsv = red.hankel_singular_values
    assert len(hsv) < sys.order  # the low-rank factors, not the full space
    ref = dense_hankel_values(sys)
    assert np.max(np.abs(hsv[: r + 2] - ref[: r + 2]) / ref[: r + 2]) < 1e-8
    assert max(red.gramian_residuals) < 1e-12
    grid = np.logspace(-2, 4, 60)
    assert lti.sample_frequency_error(sys, red.system, grid) <= red.error_bound * (1 + 1e-8)


def test_bt_grows_to_full_space_at_resolved_order(monkeypatch):
    # Below the number of Hankel values the factors resolve, both come from
    # the inner tolerance; from that order on, from the full space.  At r = n
    # the reduced system is the full one up to the modes below the numerical
    # Hankel rank.
    sys = diffusive_system(n=60)
    kernel = lti._lowrank_lyap
    tols = []

    def recording(a, w, cap=None, tol=None):
        tols.append(tol)
        return kernel(a, w, cap, tol)

    monkeypatch.setattr(lti, "_lowrank_lyap", recording)
    hsv = lti.balanced_truncation(sys, 8).hankel_singular_values
    assert tols == [lti._INNER_TOL] * 2
    resolved = int(np.sum(hsv > 1e-13 * hsv[0]))
    for r in (resolved, sys.order):
        tols.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # rank clamp expected
            red = lti.balanced_truncation(sys, r)
        assert tols == [lti._INNER_TOL] * 2 + [0.0] * 2
    ref = dense_hankel_values(sys)
    assert np.max(np.abs(red.hankel_singular_values[:10] - ref[:10]) / ref[:10]) < 1e-8
    grid = np.logspace(-2, 4, 30)
    assert lti.sample_frequency_error(sys, red.system, grid) < 1e-10 * ref[0]


def test_bt_rejects_unstable_drift_n150():
    sys = diffusive_system()
    sys.a[0, 0] += 2.0e3  # one eigenvalue moves into the right half-plane
    assert lti.spectral_abscissa(sys.a) > 0
    with pytest.raises(ValueError, match="stable"):
        lti.balanced_truncation(sys, 10)


def test_bt_clamps_rank_deficient(rng):
    # Uncontrollable second state: Hankel rank 1.
    a = np.diag([-1.0, -2.0])
    b = np.array([[1.0], [0.0]])
    c = np.array([[1.0, 0.0]])
    sys = StateSpace(a=a, b=b, c=c)
    with pytest.warns(UserWarning):
        red = lti.balanced_truncation(sys, 2)
    assert red.order == 1


# ---------------------------------------------------------------------------
# Frequency sampling

def test_frequency_error_identical_systems(rng):
    sys = _random_system(rng, 5)
    assert lti.sample_frequency_error(sys, sys, [0.1, 1.0, 10.0]) == 0.0


@pytest.mark.parametrize("grid", [[], [np.nan], [1.0, np.inf]], ids=["empty", "nan", "inf"])
def test_frequency_error_rejects_bad_grid(grid):
    sys = StateSpace(-np.eye(2), np.ones((2, 1)), np.ones((1, 2)))
    with pytest.raises(ValueError, match="frequency grid"):
        lti.sample_frequency_error(sys, sys, grid)


@pytest.mark.parametrize("s", [np.nan, np.inf, complex(0.0, np.nan)], ids=["nan", "inf", "nan-imag"])
def test_transfer_rejects_non_finite_shift(s):
    sys = StateSpace(-np.eye(2), np.ones((2, 1)), np.ones((1, 2)))
    with pytest.raises(ValueError, match="not finite"):
        sys.transfer(s)


def test_frequency_error_conjugate_symmetry(rng):
    s1 = _random_system(rng, 5)
    s2 = _random_system(rng, 4)
    for w in (0.3, 2.0):
        e_pos = lti.sample_frequency_error(s1, s2, [w])
        e_neg = lti.sample_frequency_error(s1, s2, [-w])
        assert e_pos == pytest.approx(e_neg, rel=1e-12)
