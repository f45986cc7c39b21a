"""Property tests of the dense LTI kernels on random stable systems.

Each example is built from a seed that hypothesis draws, so the examples
are reproducible; ``derandomize=True`` fixes them for every run.
"""

import functools
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoreg import lti
from thermoreg.lti import StateSpace

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=15, database=None)


def quasi_triangular(rng, n, near_axis, pair_at=(), unstable=0):
    """Quasi-upper-triangular T with real eigenvalues and 2x2 blocks.

    A complex pair starts at each index of ``pair_at``.  The first diagonal
    block sits ``near_axis`` left of the imaginary axis, the next
    ``unstable`` ones right of it, and the others in [-5, -0.1].
    """
    t = np.triu(rng.standard_normal((n, n)), 1) / np.sqrt(n)
    k = block = 0
    while k < n:
        if block == 0:
            re = -near_axis
        elif block <= unstable:
            re = rng.uniform(0.1, 1.0)
        else:
            re = -rng.uniform(0.1, 5.0)
        pair = k in pair_at or (k + 1 not in pair_at and rng.random() < 0.3)
        if pair and k + 1 < n:
            b, c = rng.uniform(0.5, 3.0, size=2)
            t[k : k + 2, k : k + 2] = [[re, b], [-c, re]]
            k += 2
        else:
            t[k, k] = re
            k += 1
        block += 1
    return t


def orthogonal(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), extra=st.integers(1, lti._TRSYL_BLOCK - 1),
       near_axis=st.floats(1e-3, 1.0))
def test_bartels_stewart_backward_error(seed, extra, near_axis):
    # Orders above _TRSYL_BLOCK take the blocked recursion; a 2x2 block
    # straddles its midpoint split.
    rng = np.random.default_rng(seed)
    n = lti._TRSYL_BLOCK + extra
    t = quasi_triangular(rng, n, near_axis, pair_at=(n // 2 - 1,))
    assert t[n // 2, n // 2 - 1] != 0.0
    z = orthogonal(rng, n)
    a = z @ t @ z.T
    q0 = rng.standard_normal((n, 3))
    q = q0 @ q0.T
    x = lti._lyap_from_schur(t, z, q)
    res = a @ x + x @ a.T + q
    denom = np.linalg.norm(q) + 2.0 * np.linalg.norm(a) * np.linalg.norm(x)
    assert np.linalg.norm(res) / denom < 1e-13


def random_stable(rng, n, near_axis, nonnormal=1.0):
    """Z T Z^T with T from quasi_triangular, its entries above the first
    superdiagonal scaled by ``nonnormal`` (the 2x2 blocks stay as drawn)."""
    t = quasi_triangular(rng, n, near_axis)
    t += (nonnormal - 1.0) * np.triu(t, 2)
    z = orthogonal(rng, n)
    return z @ t @ z.T


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 60), m=st.integers(1, 2),
       near_axis=st.floats(1e-3, 1.0), exact=st.booleans())
def test_krylov_factor_residual(seed, n, m, near_axis, exact):
    rng = np.random.default_rng(seed)
    a = random_stable(rng, n, near_axis, nonnormal=3.0)
    w = rng.standard_normal((n, m))
    if exact:
        z = lti._psd_factor(lti.solve_lyapunov(a, w @ w.T))
    else:
        found = lti._lowrank_lyap(a.__matmul__, w, functools.partial(sla.lu_solve, sla.lu_factor(a)), cap=n)
        z = None if found is None else found[0]
    assert z is not None
    p = z @ z.T
    res = np.linalg.norm(a @ p + p @ a.T + w @ w.T)
    denom = np.linalg.norm(w.T @ w) + 2.0 * np.linalg.norm(a) * np.linalg.norm(p)
    assert res / denom < 1e-12
    assert lti._lowrank_residual_norm(a @ z, z, w) <= 2.0 * res + 1e-14 * denom


def riccati_problem(rng, n, m, unstable, near_axis):
    """Drift A with ``unstable`` unstable blocks, and B."""
    t = quasi_triangular(rng, n, near_axis, unstable=unstable)
    z = orthogonal(rng, n)
    return z @ t @ z.T, rng.standard_normal((n, m))


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 40), m=st.integers(1, 2),
       unstable=st.integers(0, 3), near_axis=st.floats(1e-2, 1.0))
def test_riccati_matches_hamiltonian(seed, n, m, unstable, near_axis):
    rng = np.random.default_rng(seed)
    a, b = riccati_problem(rng, n, m, unstable, near_axis)
    for sol, x_ref in (
        (lti.solve_riccati_control(a, b), lti.riccati_hamiltonian(a, b)),
        (lti.solve_riccati_filter(a, b.T), lti.riccati_hamiltonian(a.T, b)),
    ):
        assert sol.residual_norm <= 1e-9
        assert np.linalg.norm(sol.x - x_ref) <= 1e-7 * np.linalg.norm(x_ref)
        assert sol.closed_loop_decay < 0.0


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 40), m=st.integers(1, 2),
       unstable=st.integers(0, 3), near_axis=st.floats(1e-2, 1.0))
def test_riccati_decay_bounds_closed_loop_abscissa(seed, n, m, unstable, near_axis):
    # The inertia certificate is a negative upper bound on the abscissa of
    # the closed loop.  The abscissa is formed as the solver's dense fallback
    # forms it, closed loop of the control problem, so that the fallback
    # meets it up to no rounding.
    rng = np.random.default_rng(seed)
    a, b = riccati_problem(rng, n, m, unstable, near_axis)
    for sol, drift in (
        (lti.solve_riccati_control(a, b), a),
        (lti.solve_riccati_filter(a, b.T), a.T),
    ):
        abscissa = lti.spectral_abscissa(drift - b @ (b.T @ sol.x))
        assert abscissa - 1e-12 <= sol.closed_loop_decay < 0.0


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 40), m=st.integers(1, 2), p=st.integers(1, 2),
       near_axis=st.floats(1e-2, 1.0), order=st.floats(0.0, 1.0))
def test_bt_error_within_bound(seed, n, m, p, near_axis, order):
    rng = np.random.default_rng(seed)
    sys = StateSpace(
        a=random_stable(rng, n, near_axis, nonnormal=2.0),
        b=rng.standard_normal((n, m)),
        c=rng.standard_normal((p, n)),
    )
    r = 1 + int(order * (n - 2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # rank clamp
        red = lti.balanced_truncation(sys, r)
    hsv = red.hankel_singular_values
    grid = np.r_[0.0, np.logspace(-3, 2, 60)]
    err = lti.sample_frequency_error(sys, red.system, grid)
    assert err <= red.error_bound * (1 + 1e-8) + 1e-9 * hsv[0]
    assert np.all(np.diff(hsv) <= 1e-12 * hsv[0])


def non_minimal_system(rng, k, unreached, unseen, m, p, near_axis):
    """A stable minimal part of order k with a block that B does not reach
    (zero rows of B) and a block that C does not see (zero columns of C).

    The unreached block drives the minimal part and the minimal part drives
    the unseen block, so the Hankel rank is still at most k.
    """
    n = k + unreached + unseen
    hi = k + unreached
    a = np.zeros((n, n))
    for block, order in ((slice(0, k), k), (slice(k, hi), unreached), (slice(hi, n), unseen)):
        a[block, block] = random_stable(rng, order, near_axis, nonnormal=2.0)
    a[:k, k:hi] = rng.standard_normal((k, unreached)) / np.sqrt(n)
    a[hi:, :k] = rng.standard_normal((unseen, k)) / np.sqrt(n)
    b = rng.standard_normal((n, m))
    b[k:hi] = 0.0
    c = rng.standard_normal((p, n))
    c[:, hi:] = 0.0
    return StateSpace(a=a, b=b, c=c)


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8), unreached=st.integers(1, 4),
       unseen=st.integers(1, 4), m=st.integers(1, 2), p=st.integers(1, 2), near_axis=st.floats(1e-2, 1.0))
def test_bt_of_non_minimal_system(seed, k, unreached, unseen, m, p, near_axis):
    sys = non_minimal_system(np.random.default_rng(seed), k, unreached, unseen, m, p, near_axis)
    with pytest.warns(UserWarning, match="clamping"):
        resolved = lti.balanced_truncation(sys, sys.order).system.order
    assert resolved <= k
    red = lti.balanced_truncation(sys, resolved)
    hsv = red.hankel_singular_values
    grid = np.r_[0.0, np.logspace(-3, 2, 60)]
    err = lti.sample_frequency_error(sys, red.system, grid)
    assert err <= red.error_bound * (1 + 1e-8) + 1e-9 * hsv[0]
    with pytest.warns(UserWarning, match="clamping"):
        assert lti.balanced_truncation(sys, resolved + 1).system.order == resolved
