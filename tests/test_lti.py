import numpy as np
import pytest
import scipy.linalg as sla

from thermoreg import lti
from thermoreg.errors import ConvergenceError
from thermoreg.plant import StateSpace


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
    assert np.any(lti._subspace_stabilizing_gain(a + alpha * np.eye(8), b, np.eye(2)))
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


def test_riccati_unstabilizable_raises():
    # Unstable mode not reachable from B.
    a = np.diag([1.0, -2.0])
    b = np.array([[0.0], [1.0]])
    with pytest.raises(ConvergenceError):
        lti.solve_riccati_control(a, b, np.eye(1), np.eye(2))


def test_initializer_schur_reordering_failure_is_typed(monkeypatch):
    # LAPACK's eigenvalue reordering can fail on ill-conditioned spectra;
    # the caller must see the typed error naming the initializer.
    schur = sla.schur

    def failing(a, *args, **kwargs):
        if kwargs.get("sort") is not None:
            raise np.linalg.LinAlgError("Leading eigenvalues do not satisfy sort condition.")
        return schur(a, *args, **kwargs)

    monkeypatch.setattr(sla, "schur", failing)
    with pytest.raises(ConvergenceError, match="initializer.*sort condition"):
        lti.solve_riccati_control(np.diag([1.0, -2.0]), np.ones((2, 1)), np.eye(1), np.eye(2))


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


@pytest.fixture
def schur_orders(monkeypatch):
    """Orders of the matrices handed to scipy's Schur decomposition."""
    orders = []
    schur = sla.schur

    def counting(a, *args, **kwargs):
        orders.append(np.shape(a)[0])
        return schur(a, *args, **kwargs)

    monkeypatch.setattr(sla, "schur", counting)
    return orders


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_riccati_lowrank_matches_hamiltonian_oracle(seed):
    a, b, c = nonnormal_problem(seed)
    n, m = b.shape
    alpha = LOWRANK_ALPHA
    assert n > lti._TRSYL_BLOCK
    assert np.any(lti._subspace_stabilizing_gain(a + alpha * np.eye(n), b, np.eye(m)))
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


@pytest.mark.parametrize("denial", ["krylov_cap", "indefinite_correction"])
def test_riccati_falls_back_to_exact_steps(denial, monkeypatch, schur_orders):
    if denial == "krylov_cap":
        monkeypatch.setattr(lti, "_KRYLOV_MAX_DIM", 2)
    else:
        # X + E is indefinite, so the step carries no inertia certificate.
        monkeypatch.setattr(lti, "_lowrank_lyap", lambda a, w: -1e6 * np.eye(a.shape[0]))
    a, b, _ = nonnormal_problem(0)
    n, m = b.shape
    sol = lti.solve_riccati_control(a, b, np.eye(m), np.eye(n), alpha=LOWRANK_ALPHA)
    # The initializer plus one exact step per iteration.
    assert sum(k >= n for k in schur_orders) == sol.iterations + 1
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
    assert sum(k >= n for k in schur_orders) == sol.iterations + 1
    x_ref = lti.riccati_hamiltonian(a, b, np.eye(m), q, alpha=LOWRANK_ALPHA)
    assert sol.residual_norm <= 1e-9
    assert np.linalg.norm(sol.x - x_ref) / np.linalg.norm(x_ref) < 1e-7
    assert sol.closed_loop_decay < -LOWRANK_ALPHA + 1e-10


# ---------------------------------------------------------------------------
# Balanced truncation

def _random_system(rng, n, m=2, p=2, shift=1.5):
    return StateSpace(
        a=random_stable(rng, n, shift),
        b=rng.standard_normal((n, m)),
        c=rng.standard_normal((p, n)),
        d=np.zeros((p, m)),
    )


def test_bt_full_order_reproduces_system(rng):
    sys = _random_system(rng, 7)
    red = lti.balanced_truncation(sys, 7)
    grid = np.logspace(-2, 2, 25)
    assert lti.sample_frequency_error(sys, red.system, grid) < 1e-10


def test_bt_two_state_example_with_kron_oracle():
    a = np.diag([-1.0, -100.0])
    b = np.array([[1.0], [1.0]])
    c = np.array([[1.0, 1.0]])
    sys = StateSpace(a=a, b=b, c=c, d=np.zeros((1, 1)))
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
    sys2 = StateSpace(a=tinv @ sys.a @ t, b=tinv @ sys.b, c=sys.c @ t, d=sys.d)
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


def test_bt_clamps_rank_deficient(rng):
    # Uncontrollable second state: Hankel rank 1.
    a = np.diag([-1.0, -2.0])
    b = np.array([[1.0], [0.0]])
    c = np.array([[1.0, 0.0]])
    sys = StateSpace(a=a, b=b, c=c, d=np.zeros((1, 1)))
    with pytest.warns(UserWarning):
        red = lti.balanced_truncation(sys, 2)
    assert red.order == 1


# ---------------------------------------------------------------------------
# Frequency sampling

def test_frequency_error_identical_systems(rng):
    sys = _random_system(rng, 5)
    assert lti.sample_frequency_error(sys, sys, [0.1, 1.0, 10.0]) == 0.0


def test_frequency_error_conjugate_symmetry(rng):
    s1 = _random_system(rng, 5)
    s2 = _random_system(rng, 4)
    for w in (0.3, 2.0):
        e_pos = lti.sample_frequency_error(s1, s2, [w])
        e_neg = lti.sample_frequency_error(s1, s2, [-w])
        assert e_pos == pytest.approx(e_neg, rel=1e-12)
