import functools
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


def lu_solver(a):
    """Solves with ``a`` from one LU factorization, as the Krylov kernel takes them."""
    return functools.partial(sla.lu_solve, sla.lu_factor(a))


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
    sol = lti.solve_riccati_control(np.array([[0.0]]), np.array([[1.0]]))
    assert sol.x == pytest.approx(np.array([[1.0]]), abs=1e-12)
    # The closed loop is -1; the certified bound -(1 - |R|)/(2 |X|) is -0.5.
    assert -1.0 <= sol.closed_loop_decay < 0.0


def test_riccati_zero_b_reduces_to_lyapunov(rng):
    a = random_stable(rng, 4)
    b = np.zeros((4, 2))
    sol = lti.solve_riccati_control(a, b)
    # A^T X + X A + I = 0
    x_ref = lyapunov_kron_oracle(a.T, np.eye(4))
    assert np.max(np.abs(sol.x - x_ref)) < 1e-10


def test_riccati_matches_hamiltonian_oracle(rng):
    for _ in range(10):
        a = random_stable(rng, 6, shift=1.5) + 0.3 * np.eye(6)
        b = rng.standard_normal((6, 2))
        sol = lti.solve_riccati_control(a, b)
        x_ref = lti.riccati_hamiltonian(a, b)
        assert np.max(np.abs(sol.x - x_ref)) < 1e-8
        assert sol.residual_norm <= 1e-9


def test_riccati_unstable_shift_uses_initializer(rng):
    # A stable drift shifted into instability: zero initial gain invalid,
    # the subspace initializer must kick in.
    a = random_stable(rng, 8, shift=1.0) + 1.4 * np.eye(8)
    b = rng.standard_normal((8, 2))
    assert lti.spectral_abscissa(a) > 0
    assert np.any(lti._subspace_stabilizing_gain(a, b)[0])
    sol = lti.solve_riccati_control(a, b)
    x_ref = lti.riccati_hamiltonian(a, b)
    assert np.max(np.abs(sol.x - x_ref)) / np.linalg.norm(x_ref) < 1e-9
    assert sol.closed_loop_decay < 0.0


def test_riccati_decay_margin(rng):
    # Solved on A + 0.7 I, the equation leaves the closed loop of the
    # unshifted A a decay of at least 0.7, as the dual design uses it.
    a = random_stable(rng, 5)
    b = rng.standard_normal((5, 1))
    sol = lti.solve_riccati_control(a + 0.7 * np.eye(5), b)
    assert sol.closed_loop_decay < 0.0
    assert lti.spectral_abscissa(a - b @ (b.T @ sol.x)) <= sol.closed_loop_decay - 0.7 + 1e-12


def test_riccati_solution_psd(rng):
    a = random_stable(rng, 6)
    b = rng.standard_normal((6, 2))
    sol = lti.solve_riccati_control(a, b)
    assert np.allclose(sol.x, sol.x.T, atol=1e-14)
    assert np.min(np.linalg.eigvalsh(sol.x)) >= -1e-8 * np.linalg.norm(sol.x)


MALFORMED = {
    "a-not-square": (np.ones((6, 5)), np.ones((6, 1)), r"^a must be a square matrix"),
    "a-nan": (np.diag([np.nan] + [-1.0] * 5), np.ones((6, 1)), r"^a has non-finite"),
    "a-inf": (np.diag([np.inf] + [-1.0] * 5), np.ones((6, 1)), r"^a has non-finite"),
}


@pytest.mark.parametrize(
    "a, b, message",
    [
        *MALFORMED.values(),
        (-np.eye(6), np.ones((5, 1)), r"^b must be a matrix with 6 rows"),
        (-np.eye(6), np.full((6, 1), np.nan), r"^b has non-finite"),
        (-np.eye(6), np.full((6, 1), np.inf), r"^b has non-finite"),
    ],
    ids=[*MALFORMED, "b-rows", "b-nan", "b-inf"],
)
def test_riccati_control_rejects_malformed_input(a, b, message):
    with pytest.raises(ValueError, match=message):
        lti.solve_riccati_control(a, b)


@pytest.mark.parametrize(
    "a, c, message",
    [
        *((a, b.T, message) for a, b, message in MALFORMED.values()),
        (-np.eye(6), np.ones((1, 5)), r"^c must be a matrix with 6 columns"),
        (-np.eye(6), np.full((1, 6), np.nan), r"^c has non-finite"),
        (-np.eye(6), np.full((1, 6), np.inf), r"^c has non-finite"),
    ],
    ids=[*MALFORMED, "c-columns", "c-nan", "c-inf"],
)
def test_riccati_filter_rejects_malformed_input(a, c, message):
    with pytest.raises(ValueError, match=message):
        lti.solve_riccati_filter(a, c)


def test_riccati_unstabilizable_raises():
    # Unstable mode not reachable from B.
    a = np.diag([1.0, -2.0])
    b = np.array([[0.0], [1.0]])
    with pytest.raises(ConvergenceError):
        lti.solve_riccati_control(a, b)


def conditioning_limit_problem(seed):
    """B of size 0.01 against a drift of spectral radius about 2.5: |X| near 1e15."""
    rng = np.random.default_rng(seed)
    a = 2.5 * rng.standard_normal((16, 16)) / 4 + 0.5 * np.eye(16)
    return a, 0.01 * rng.standard_normal((16, 1))


@pytest.mark.parametrize("seed", [249, 256])
def test_riccati_full_steps_cross_conditioning_limit(seed, eigvals_orders):
    # |X| near 1e15 puts the residual norm near its rounding floor, where full
    # Newton steps (Kleinman's monotone X) still converge.  |R(X)|_F =
    # 1e-9 |X|_F is then far above 1, so the inertia certificate does not hold
    # and one dense eigenvalue solve gives the decay.  (Whether the residual
    # rises on the way is a matter of rounding here; see
    # test_riccati_residual_rise_shorter_than_patience_does_not_stop.)
    a, b = conditioning_limit_problem(seed)
    sol = lti.solve_riccati_control(a, b)
    assert eigvals_orders == [16]
    res = a.T @ sol.x + sol.x @ a - sol.x @ b @ b.T @ sol.x + np.eye(16)
    assert np.linalg.norm(res) / np.linalg.norm(sol.x) <= 1e-9
    assert np.linalg.norm(res) >= 1.0
    assert sol.closed_loop_decay == lti.spectral_abscissa(a - b @ (b.T @ sol.x)) < 0.0


def test_riccati_residual_rise_shorter_than_patience_does_not_stop(monkeypatch):
    # A factored residual that reads 1e3 times too large on the second
    # low-rank step makes the history rise, as rounding does near the
    # conditioning limit.  One step without progress is fewer than the
    # stagnation patience: an exact step follows and the solve converges.
    a, b, _ = riccati_problem(0)
    plain = lti.solve_riccati_control(a, b)
    norm = lti._lowrank_residual_norm
    calls = []

    def inflated(*args):
        calls.append(None)
        return norm(*args) * (1e3 if len(calls) == 2 else 1.0)

    monkeypatch.setattr(lti, "_lowrank_residual_norm", inflated)
    sol = lti.solve_riccati_control(a, b)
    assert np.any(np.diff(sol.residual_history) > 0)
    assert sol.exact_steps >= 2 and sol.residual_norm <= 1e-9
    assert np.linalg.norm(sol.x - plain.x) <= 1e-8 * np.linalg.norm(plain.x)


def test_riccati_stagnation_is_typed(monkeypatch):
    # A residual that stays at I whatever X is: no step makes progress, and the
    # solve gives up after the first step and eight more (its patience).  The
    # scalar problem has no room for a Krylov basis, so every step is exact:
    # x_1 = 1/2 from -2x + 1 = 0, then x += 1 / (2 (1 + x)).
    monkeypatch.setattr(lti, "_riccati_residual", lambda a, b, x: np.eye(1))
    with pytest.raises(ConvergenceError, match=r"Newton-Kleinman stagnation \(conditioning limit above tolerance\)") as exc:
        lti.solve_riccati_control(np.array([[-1.0]]), np.array([[1.0]]))
    x = 0.5
    for _ in range(8):
        x += 0.5 / (1.0 + x)
    assert exc.value.iterations == 9
    assert exc.value.residual == pytest.approx(1.0 / x, rel=1e-12)


def test_riccati_iteration_cap_is_typed(monkeypatch):
    monkeypatch.setattr(lti, "_RICCATI_MAX_ITER", 1)
    a, b, _ = riccati_problem(0)
    with pytest.raises(ConvergenceError, match="Newton-Kleinman did not reach 1e-09 in 1 iterations") as exc:
        lti.solve_riccati_control(a, b)
    assert exc.value.iterations == 1
    assert exc.value.residual > 1e-9


def test_hamiltonian_stable_eigenvalue_count_is_typed():
    # [[0, 0], [-1, 0]] has the double eigenvalue 0, so none is stable.
    with pytest.raises(ConvergenceError, match=r"Hamiltonian matrix has 0 stable eigenvalues, expected 1") as exc:
        lti.riccati_hamiltonian(np.zeros((1, 1)), np.zeros((1, 1)))
    assert exc.value.residual is None and exc.value.iterations is None


@pytest.mark.parametrize("seed", [249, 256])
def test_hamiltonian_oracle_rejects_non_stabilizing_solution(seed):
    # The conditioning-limit problems: the stable subspace gives |X| near
    # 4e15, whose relative residual (1.07 and 0.37) rejects it before the
    # closed loop is formed.
    a, b = conditioning_limit_problem(seed)
    with pytest.raises(ConvergenceError, match=r"Hamiltonian solution has relative residual \d\.\d+e[-+]0[01] above 1e-09") as exc:
        lti.riccati_hamiltonian(a, b)
    assert 0.1 < exc.value.residual < 10.0


def test_hamiltonian_oracle_rejects_anti_stabilizing_solution(monkeypatch):
    # 2x - x^2 + 1 = 0 has the roots 1 +- sqrt(2); 1 - sqrt(2) solves the
    # equation but leaves the closed loop 1 - x = sqrt(2) unstable.
    monkeypatch.setattr(lti, "_hamiltonian_solution", lambda a, b: np.array([[1.0 - np.sqrt(2.0)]]))
    with pytest.raises(ConvergenceError, match=r"not stabilizing: closed-loop abscissa 1\.414e\+00"):
        lti.riccati_hamiltonian(np.array([[1.0]]), np.array([[1.0]]))


def test_initializer_schur_reordering_failure_is_typed(monkeypatch):
    # LAPACK's eigenvalue reordering can fail on ill-conditioned spectra;
    # the caller must see the typed error naming the initializer.
    dtrsen = lapack.dtrsen

    def failing(*args, **kwargs):
        *out, _ = dtrsen(*args, **kwargs)
        return (*out, 1)  # info = 1: eigenvalues too close to swap

    monkeypatch.setattr(lapack, "dtrsen", failing)
    with pytest.raises(ConvergenceError, match="initializer.*ordered Schur form failed.*info=1"):
        lti.solve_riccati_control(np.diag([1.0, -2.0]), np.ones((2, 1)))


def test_initializer_rejects_unstable_stabilized_block():
    # 45 of the 150 modes of A are unstable; the Hamiltonian solve of the
    # projected 45-state, 2-input pair is too ill-conditioned to stabilize it.
    n = 150
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n)) / np.sqrt(n) - 1.5 * np.eye(n) + 2.0 * np.triu(rng.standard_normal((n, n)), 1) / np.sqrt(n)
    a += np.eye(n)
    b = rng.standard_normal((n, 2))
    assert np.sum(np.linalg.eigvals(a).real > 0) == 45
    with pytest.raises(ConvergenceError, match=r"no stabilizing initializer: .* order 45 has abscissa \d"):
        lti.solve_riccati_control(a, b)


def test_filter_duality(rng):
    a = random_stable(rng, 6) + 0.2 * np.eye(6)
    c = rng.standard_normal((2, 6))
    fil = lti.solve_riccati_filter(a, c)
    ctrl = lti.solve_riccati_control(a.T, c.T)
    assert np.max(np.abs(fil.x - ctrl.x)) < 1e-12
    # Residual of the filter equation itself.
    res = a @ fil.x + fil.x @ a.T - fil.x @ c.T @ c @ fil.x + np.eye(6)
    assert np.linalg.norm(res) / np.linalg.norm(fil.x) < 1e-9


def test_filter_scalar_dual():
    sol = lti.solve_riccati_filter(np.array([[0.0]]), np.array([[1.0]]))
    assert sol.x == pytest.approx(np.array([[1.0]]), abs=1e-12)


# ---------------------------------------------------------------------------
# Newton-Kleinman with low-rank corrections (order above _TRSYL_BLOCK)

def nonnormal_problem(seed, n=150, m=2):
    """Non-normal drift with spectrum in [-10, -1], random B (n x m) and C."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    tri = np.diag(-np.logspace(0.0, 1.0, n)) + 0.5 / np.sqrt(n) * np.triu(rng.standard_normal((n, n)), 1)
    return basis @ tri @ basis.T, rng.standard_normal((n, m)), rng.standard_normal((m, n))


def riccati_problem(seed):
    """``nonnormal_problem`` with its drift shifted by 1.05 I.

    Four eigenvalues of the shifted drift are unstable, so the subspace
    initializer engages.
    """
    a, b, c = nonnormal_problem(seed)
    return a + 1.05 * np.eye(a.shape[0]), b, c


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_riccati_lowrank_matches_hamiltonian_oracle(seed):
    a, b, c = riccati_problem(seed)
    assert b.shape[0] > lti._TRSYL_BLOCK
    assert np.any(lti._subspace_stabilizing_gain(a, b)[0])
    solutions = [
        (lti.solve_riccati_control(a, b), lti.riccati_hamiltonian(a, b)),
        (lti.solve_riccati_filter(a, c), lti.riccati_hamiltonian(a.T, c.T)),
    ]
    for sol, x_ref in solutions:
        assert sol.residual_norm <= 1e-9
        assert np.linalg.norm(sol.x - x_ref) / np.linalg.norm(x_ref) < 1e-7
        assert sol.closed_loop_decay < 0.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_riccati_lowrank_needs_few_schur_forms(seed, schur_orders):
    # Initializer, first exact step and at most one polish; the full-Schur
    # loop needed one decomposition per iteration.
    a, b, c = riccati_problem(seed)
    n = b.shape[0]
    for solve, op in ((lti.solve_riccati_control, b), (lti.solve_riccati_filter, c)):
        schur_orders.clear()
        sol = solve(a, op)
        assert sol.residual_norm <= 1e-9
        assert sum(k >= n for k in schur_orders) <= 3 < sol.iterations + 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_riccati_lowrank_needs_at_most_two_schur_forms(seed, schur_orders):
    # The initializer's ordered form is also the first step's, so only a
    # polish adds an order-N form.
    a, b, c = riccati_problem(seed)
    n = b.shape[0]
    for solve, op in ((lti.solve_riccati_control, b), (lti.solve_riccati_filter, c)):
        schur_orders.clear()
        sol = solve(a, op)
        assert sol.residual_norm <= 1e-9
        assert sum(k >= n for k in schur_orders) <= 2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_supplied_schur_pair_gives_the_same_solution(seed, schur_orders):
    # A caller's Schur pair of the drift (A^T for the control equation, A
    # for the filter equation) replaces the solver's own order-N form; the
    # solution is the same up to rounding.
    a, b, c = riccati_problem(seed)
    n = b.shape[0]
    cases = (
        (lti.solve_riccati_control, b, a.T, lti.riccati_hamiltonian(a, b)),
        (lti.solve_riccati_filter, c, a, lti.riccati_hamiltonian(a.T, c.T)),
    )
    for solve, op, drift, x_ref in cases:
        own = solve(a, op)
        pair = sla.schur(drift, output="real")
        schur_orders.clear()
        sol = solve(a, op, schur=pair)
        assert not any(k >= n for k in schur_orders)
        assert sol.residual_norm <= 1e-9
        assert np.linalg.norm(sol.x - own.x) / np.linalg.norm(own.x) < 1e-8
        assert np.linalg.norm(sol.x - x_ref) / np.linalg.norm(x_ref) < 1e-7
        assert sol.closed_loop_decay < 0.0


def test_riccati_records_exact_steps_and_residual_history(monkeypatch):
    a, b, _ = riccati_problem(0)

    def solve():
        return lti.solve_riccati_control(a, b)

    # Inner tolerances sized by the outer one: only the first step is exact.
    sol = solve()
    assert sol.exact_steps == 1 < sol.iterations
    assert len(sol.residual_history) == sol.iterations
    assert sol.residual_history[-1] == sol.residual_norm <= 1e-9 < min(sol.residual_history[:-1])
    # Loose inner solves carry residuals over, and the exact polish follows.
    monkeypatch.setattr(lti, "_OUTER_SHARE", 1e2)
    assert solve().exact_steps >= 2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_initializer_returns_schur_form_of_first_closed_loop(seed):
    a, b, _ = riccati_problem(seed)
    n = b.shape[0]
    gain, t, z = lti._subspace_stabilizing_gain(a, b)
    acl_t = (a - b @ gain).T
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
    gain, t, z = lti._subspace_stabilizing_gain(a, b)
    assert not np.any(gain)
    assert np.linalg.norm(z @ t @ z.T - a.T) < 1e-13 * np.linalg.norm(a)


@pytest.mark.parametrize("denial", ["krylov_cap", "indefinite_correction"])
def test_riccati_falls_back_to_exact_steps(denial, monkeypatch, schur_orders):
    if denial == "krylov_cap":
        monkeypatch.setattr(lti, "_KRYLOV_MAX_DIM", 2)
    else:
        # X + E is indefinite, so the step carries no inertia certificate.
        monkeypatch.setattr(lti, "_lowrank_lyap", lambda apply, w, solve, atol: (-1e6 * np.eye(w.shape[0]), None))
    a, b, _ = riccati_problem(0)
    sol = lti.solve_riccati_control(a, b)
    # One exact step per iteration; the first uses the initializer's form.
    assert sum(k >= b.shape[0] for k in schur_orders) == sol.iterations
    x_ref = lti.riccati_hamiltonian(a, b)
    assert sol.residual_norm <= 1e-9
    assert np.linalg.norm(sol.x - x_ref) / np.linalg.norm(x_ref) < 1e-7


def test_riccati_exact_step_after_a_lowrank_step(monkeypatch):
    # The Krylov kernel answers the first low-rank step and fails on the
    # next, so an exact step follows a low-rank one and forms the dense
    # residual that the low-rank step left unformed.
    kernel = lti._lowrank_lyap
    calls = []

    def first_only(*args, **kwargs):
        calls.append(None)
        return kernel(*args, **kwargs) if len(calls) == 1 else None

    monkeypatch.setattr(lti, "_lowrank_lyap", first_only)
    a, b, _ = riccati_problem(0)
    sol = lti.solve_riccati_control(a, b)
    assert len(calls) >= 2 and sol.exact_steps >= 2
    assert sol.residual_norm <= 1e-9
    x_ref = lti.riccati_hamiltonian(a, b)
    assert np.linalg.norm(sol.x - x_ref) / np.linalg.norm(x_ref) < 1e-7


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_riccati_lowrank_steps_share_one_lu(seed, lu_orders, monkeypatch):
    # Every low-rank step solves with its closed loop through the first one's
    # LU and a rank-m Woodbury correction.  With no capacitance accepted,
    # each low-rank step factors its own closed loop, and X is the same.
    a, b, c = riccati_problem(seed)
    for solve, op in ((lti.solve_riccati_control, b), (lti.solve_riccati_filter, c)):
        lu_orders.clear()
        shared = solve(a, op)
        assert lu_orders == [a.shape[0]] and shared.iterations - shared.exact_steps >= 4
        with monkeypatch.context() as patch:
            patch.setattr(lti, "_WOODBURY_MAX_COND", 0.0)
            lu_orders.clear()
            own = solve(a, op)
        assert len(lu_orders) == own.iterations - own.exact_steps
        assert own.residual_norm <= 1e-9
        assert np.linalg.norm(own.x - shared.x) <= 1e-9 * np.linalg.norm(shared.x)


@pytest.mark.parametrize("case", [*range(6), "limit-249", "limit-256"])
def test_chain_verdict_matches_direct_cholesky(case, monkeypatch):
    # Each low-rank step decides X - Z Z^T > 0 from the small I - Y^T Y; the
    # Cholesky factorization of X - Z Z^T itself gives the same verdict, also
    # near the conditioning limit (|X| near 1e15).
    verdict = lti._downdate_is_positive_definite
    agree = []

    def compare(x, chol, y, gram, z):
        out = verdict(x, chol, y, gram, z)
        agree.append(out[0] == (lti._cholesky_or_none(x - z @ z.T) is not None))
        return out

    monkeypatch.setattr(lti, "_downdate_is_positive_definite", compare)
    if isinstance(case, int):
        a, b, c = riccati_problem(case)
        solves = (lti.solve_riccati_control(a, b), lti.solve_riccati_filter(a, c))
    else:
        solves = (lti.solve_riccati_control(*conditioning_limit_problem(int(case[-3:]))),)
    assert all(sol.residual_norm <= 1e-9 for sol in solves)
    assert agree and all(agree)


@pytest.mark.parametrize("scale, positive", [(0.5, True), (1.0, None), (2.0, False)])
def test_chain_guard_takes_direct_cholesky_near_rounding(scale, positive, cholesky_orders):
    # With Z = s L e_1 the small matrix is 1 - s^2: clearly positive or
    # negative for s = 0.5 and 2, so the chain decides with no order-N
    # factorization.  At s = 1 it is zero up to rounding and the Cholesky
    # factorization of the singular X - Z Z^T decides.
    n = 40
    g = np.random.default_rng(5).standard_normal((n, n))
    x = g @ g.T + n * np.eye(n)
    chol = np.linalg.cholesky(x)
    z = scale * chol[:, :1]
    cholesky_orders.clear()
    verdict, y, _ = lti._downdate_is_positive_definite(x, chol, np.empty((n, 0)), np.empty((0, 0)), z)
    assert np.allclose(y, scale * np.eye(n)[:, :1], atol=1e-12)
    if positive is None:
        assert cholesky_orders == [n]
        assert verdict == (lti._cholesky_or_none(x - z @ z.T) is not None)
    else:
        assert cholesky_orders == [] and verdict == positive


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_riccati_factors_only_exact_iterates(seed, cholesky_orders, monkeypatch):
    # One order-N Cholesky factorization per exact step and none per
    # low-rank step; with every low-rank step denied, one per iteration.
    a, b, c = riccati_problem(seed)
    n = b.shape[0]
    for solve, op in ((lti.solve_riccati_control, b), (lti.solve_riccati_filter, c)):
        cholesky_orders.clear()
        sol = solve(a, op)
        assert sol.iterations > sol.exact_steps == sum(k >= n for k in cholesky_orders) == 1
    monkeypatch.setattr(lti, "_KRYLOV_MAX_DIM", 2)
    cholesky_orders.clear()
    sol = lti.solve_riccati_control(a, b)
    assert sol.iterations == sol.exact_steps == sum(k >= n for k in cholesky_orders)


def test_woodbury_solver_matches_dense_solve():
    rng = np.random.default_rng(11)
    m_ref = random_stable(rng, 20)
    u, b, y = rng.standard_normal((20, 2)), rng.standard_normal((20, 2)), rng.standard_normal((20, 3))
    solve = lti._woodbury_solver(sla.lu_factor(m_ref), u, b)
    expected = np.linalg.solve(m_ref - u @ b.T, y)
    assert np.linalg.norm(solve(y) - expected) <= 1e-12 * np.linalg.norm(expected)


def test_woodbury_solver_rejects_singular_capacitance():
    # I - b b^T with a unit vector b is singular: the capacitance 1 - b^T b is 0.
    b = np.zeros((5, 1))
    b[2] = 1.0
    assert lti._woodbury_solver(sla.lu_factor(np.eye(5)), b, b) is None


def test_riccati_carried_residual_takes_exact_polish(monkeypatch, schur_orders):
    # With a loose inner tolerance the Galerkin residuals that low-rank steps
    # leave behind exceed the outer tolerance.  The factored residual does not
    # see them, the dense check before return does, and an exact step follows.
    monkeypatch.setattr(lti, "_OUTER_SHARE", 1e2)
    a, b, _ = riccati_problem(0)
    sol = lti.solve_riccati_control(a, b)
    assert sum(k >= b.shape[0] for k in schur_orders) >= 2
    x_ref = lti.riccati_hamiltonian(a, b)
    assert sol.residual_norm <= 1e-9
    assert np.linalg.norm(sol.x - x_ref) / np.linalg.norm(x_ref) < 1e-7


# ---------------------------------------------------------------------------
# Extended Krylov Lyapunov kernel

def lyapunov_residual(a, p, w):
    return np.linalg.norm(a @ p + p @ a.T + w @ w.T) / np.linalg.norm(w.T @ w)


@pytest.mark.parametrize("seed", [0, 1])
def test_lowrank_lyap_factor_meets_inner_tolerance(seed):
    a, b, _ = nonnormal_problem(seed)
    n = a.shape[0]
    z, _ = lti._lowrank_lyap(a.__matmul__, b, lu_solver(a)) or (None, None)
    assert z is not None and z.shape[1] < n // 2
    p = z @ z.T
    assert lyapunov_residual(a, p, b) < 1e-10
    p_ref = lti.solve_lyapunov(a, b @ b.T)
    assert np.linalg.norm(p - p_ref) < 1e-10 * np.linalg.norm(p_ref)
    assert lti._lowrank_residual_norm(a @ z, z, b) == pytest.approx(lyapunov_residual(a, p, b) * np.linalg.norm(b.T @ b), rel=1e-6)


def test_lowrank_lyap_meets_absolute_target():
    # ``atol`` loosens the relative floor: a smaller basis, and the Galerkin
    # residual (read off the projected matrix) still meets the target.
    a, b, _ = nonnormal_problem(0)
    atol = 1e-6 * np.linalg.norm(b.T @ b)
    tight, _ = lti._lowrank_lyap(a.__matmul__, b, lu_solver(a))
    loose, _ = lti._lowrank_lyap(a.__matmul__, b, lu_solver(a), atol=atol)
    assert loose.shape[1] < tight.shape[1]
    p = loose @ loose.T
    assert np.linalg.norm(a @ p + p @ a.T + b @ b.T) <= atol * (1 + 1e-8)


def test_lowrank_lyap_stops_on_invariant_subspace():
    # Only the first two states are reachable: the Krylov space is
    # invariant after one block and holds the Gramian exactly.
    a = np.diag([-1.0, -3.0, -2.0, -5.0])
    a[0, 1] = 1.0
    w = np.array([[1.0], [1.0], [0.0], [0.0]])
    z, _ = lti._lowrank_lyap(a.__matmul__, w, lu_solver(a), cap=4)
    assert z.shape[1] == 2
    p_ref = lyapunov_kron_oracle(a, w @ w.T)
    assert np.max(np.abs(z @ z.T - p_ref)) < 1e-14


@pytest.mark.parametrize("seed, share", [(35, 1e-4), (35, 1e-10), (36, 1e-8)])
def test_lowrank_lyap_checks_before_the_cap(seed, share, monkeypatch):
    # Under the smallest cap at which a kernel that checks every step returns
    # a factor, the target is met on the last step the cap allows.  The
    # check schedule must not skip that step into the cap.
    rng = np.random.default_rng(seed)
    n = 80
    a = random_stable(rng, n, shift=1.0 + rng.uniform())
    w = rng.standard_normal((n, 1))
    atol = share * np.linalg.norm(w.T @ w)

    def kernel(cap):
        return lti._lowrank_lyap(a.__matmul__, w, lu_solver(a), cap=cap, atol=atol)

    with monkeypatch.context() as patch:
        patch.setattr(lti, "_MAX_SKIPPED_CHECKS", 0)
        cap = next(c for c in range(1, n // 2 + 1) if kernel(c) is not None)
    found = kernel(cap)
    assert found is not None
    p = found[0] @ found[0].T
    assert np.linalg.norm(a @ p + p @ a.T + w @ w.T) <= atol * (1 + 1e-8)


def test_lowrank_lyap_cap_returns_none():
    rng = np.random.default_rng(9)
    a = random_stable(rng, 12)
    assert lti._lowrank_lyap(a.__matmul__, rng.standard_normal((12, 2)), lu_solver(a), cap=3) is None


def test_lowrank_lyap_unstable_full_space_returns_none():
    a = np.array([[0.5, 1.0], [0.0, -2.0]])
    assert lti._lowrank_lyap(a.__matmul__, np.array([[1.0], [1.0]]), lu_solver(a), cap=2) is None


def test_factored_residual_norm_matches_dense():
    rng = np.random.default_rng(10)
    n = 30
    a = rng.standard_normal((n, n))
    z = rng.standard_normal((n, 4))
    w = rng.standard_normal((n, 2))
    g = rng.standard_normal((4, 2))
    dense = a @ z @ z.T + z @ z.T @ a.T + w @ w.T + z @ g @ g.T @ z.T
    assert lti._lowrank_residual_norm(a @ z, z, w, g) == pytest.approx(np.linalg.norm(dense), rel=1e-12)


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
    """Square-root Hankel values from dense Gramians of LAPACK ``trsyl``.

    ``scipy.linalg.solve_continuous_lyapunov`` shares no code with
    ``lti.solve_lyapunov``, from which balanced truncation takes its exact
    Gramians.
    """

    def factor(x):
        w, v = np.linalg.eigh(0.5 * (x + x.T))
        return v * np.sqrt(np.clip(w, 0.0, None))

    ctrb = sla.solve_continuous_lyapunov(sys.a, -sys.b @ sys.b.T)
    obsv = sla.solve_continuous_lyapunov(sys.a.T, -sys.c.T @ sys.c)
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


def test_bt_kernel_skips_checks_that_cannot_pass(monkeypatch):
    # The Gramian bases of a 373-state system grow over dozens of steps: a
    # check at every step takes 157 projected Schur forms.  The checks that
    # the extrapolated residual rate skips leave at most 60, and the Hankel
    # values keep 1e-8.
    sys = diffusive_system(n=373)
    r = 8
    orders = []
    real_schur = lti._real_schur

    def recording(t):
        orders.append(t.shape[0])
        return real_schur(t)

    monkeypatch.setattr(lti, "_real_schur", recording)
    hsv = lti.balanced_truncation(sys, r).hankel_singular_values
    assert len(orders) <= 60
    ref = dense_hankel_values(sys)
    assert np.max(np.abs(hsv[: r + 2] - ref[: r + 2]) / ref[: r + 2]) < 1e-8


def test_bt_grows_to_full_space_at_resolved_order(monkeypatch):
    # Below the number of Hankel values the low-rank factors resolve, both
    # Gramians are those factors; from that order on, the exact Gramians of
    # ``solve_lyapunov``.  At r = n the reduced system is the full one up to
    # the modes below the numerical Hankel rank.
    sys = diffusive_system(n=60)
    exact = lti.solve_lyapunov
    orders = []

    def recording(a, q):
        orders.append(a.shape[0])
        return exact(a, q)

    monkeypatch.setattr(lti, "solve_lyapunov", recording)
    hsv = lti.balanced_truncation(sys, 8).hankel_singular_values
    assert orders == []
    resolved = int(np.sum(hsv > 1e-13 * hsv[0]))
    for r in (resolved, sys.order):
        orders.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # rank clamp expected
            red = lti.balanced_truncation(sys, r)
        assert orders == [sys.order] * 2
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


def test_bt_rejects_unreached_unseen_unstable_mode_at_full_order():
    # A +0.5 mode that B does not reach and C does not see: no Krylov basis
    # meets it, so only the exact Gramians from the resolved order on do.
    rng = np.random.default_rng(3)
    n = 12
    sys = _random_system(rng, n)
    sys.a[-1, :] = sys.a[:, -1] = 0.0
    sys.a[-1, -1] = 0.5
    sys.b[-1] = 0.0
    sys.c[:, -1] = 0.0
    with pytest.raises(ValueError, match="stable"):
        lti.balanced_truncation(sys, n)
    # Below the resolved order the mode is not checked, and the reduced
    # system leaves it out.
    red = lti.balanced_truncation(sys, 3)
    assert red.system.order == 3 and lti.spectral_abscissa(red.system.a) < 0


def test_bt_clamps_rank_deficient(rng):
    # Uncontrollable second state: Hankel rank 1.
    a = np.diag([-1.0, -2.0])
    b = np.array([[1.0], [0.0]])
    c = np.array([[1.0, 0.0]])
    sys = StateSpace(a=a, b=b, c=c)
    with pytest.warns(UserWarning):
        red = lti.balanced_truncation(sys, 2)
    assert red.system.order == 1


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


def test_frequency_error_rejects_different_widths():
    one = StateSpace(-np.eye(2), np.ones((2, 1)), np.ones((1, 2)))
    two = StateSpace(-np.eye(2), np.eye(2), np.eye(2))
    with pytest.raises(ValueError, match=r"shapes \(1, 1\) and \(2, 2\)"):
        lti.sample_frequency_error(one, two, [1.0])


@pytest.mark.parametrize(
    "a, b, c, message",
    [
        (np.ones((3, 2)), np.ones((3, 1)), np.ones((1, 2)), r"^a must be a square matrix"),
        (np.ones(3), np.ones((3, 1)), np.ones((1, 3)), r"^a must be a square matrix"),
        (-np.eye(3), np.ones((2, 1)), np.ones((1, 3)), r"^b must be a matrix with 3 rows"),
        (-np.eye(3), np.ones(3), np.ones((1, 3)), r"^b must be a matrix with 3 rows"),
        (-np.eye(3), np.ones((3, 1)), np.ones((1, 2)), r"^c must be a matrix with 3 columns"),
        (np.diag([np.nan, -1.0, -1.0]), np.ones((3, 1)), np.ones((1, 3)), r"^a has non-finite"),
        (-np.eye(3), np.full((3, 1), np.nan), np.ones((1, 3)), r"^b has non-finite"),
        (-np.eye(3), np.ones((3, 1)), np.full((1, 3), np.inf), r"^c has non-finite"),
    ],
    ids=["a-not-square", "a-vector", "b-rows", "b-vector", "c-columns", "a-nan", "b-nan", "c-inf"],
)
def test_statespace_rejects_malformed_input(a, b, c, message):
    with pytest.raises(ValueError, match=message):
        StateSpace(a=a, b=b, c=c)


def test_frequency_error_conjugate_symmetry(rng):
    s1 = _random_system(rng, 5)
    s2 = _random_system(rng, 4)
    for w in (0.3, 2.0):
        e_pos = lti.sample_frequency_error(s1, s2, [w])
        e_neg = lti.sample_frequency_error(s1, s2, [-w])
        assert e_pos == pytest.approx(e_neg, rel=1e-12)
