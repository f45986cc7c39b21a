import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from thermoreg import controller as ctrl_mod
from thermoreg import lti, plant as plant_mod
from thermoreg.flow import solve_navier_stokes
from thermoreg.lti import StateSpace

FREQS = (1.0, 2.0, 3.0)


@pytest.fixture(scope="module")
def design11(mesh11, shapes):
    ns = solve_navier_stokes(mesh11, re=100.0)
    p = plant_mod.build_plant(mesh11, ns, 100.0, 0.7, *shapes)
    return plant_mod.to_standard_form(p), p


@pytest.fixture(scope="module")
def synthesis11(design11):
    std, _ = design11
    im = ctrl_mod.build_internal_model(FREQS, p=1)
    return ctrl_mod.synthesize_dual_observer(std, im, r=4)


# ---------------------------------------------------------------------------
# Internal model

def test_internal_model_dimension():
    im = ctrl_mod.build_internal_model(FREQS, p=1)
    assert im.dim == 6
    assert im.k1.shape == (1, 6)


def test_internal_model_single_frequency_blocks():
    im = ctrl_mod.build_internal_model([2.0], p=1)
    assert np.array_equal(im.g1, np.array([[0.0, 2.0], [-2.0, 0.0]]))
    assert np.array_equal(im.k1, np.array([[1.0, 0.0]]))


def test_internal_model_spectrum_exact():
    im = ctrl_mod.build_internal_model(FREQS, p=1)
    eigs = np.sort_complex(np.linalg.eigvals(im.g1))
    expected = np.sort_complex(np.array([1j, -1j, 2j, -2j, 3j, -3j]))
    assert np.max(np.abs(eigs - expected)) < 1e-12


def test_internal_model_rejects_bad_frequencies():
    with pytest.raises(ValueError):
        ctrl_mod.build_internal_model([1.0, 1.0], p=1)
    with pytest.raises(ValueError):
        ctrl_mod.build_internal_model([0.0, 1.0], p=1)
    # Non-finite values would put NaN or inf into G1.
    for bad in ([np.nan], [np.inf], [1.0, np.inf]):
        with pytest.raises(ValueError, match="positive and finite"):
            ctrl_mod.build_internal_model(bad, p=1)


def test_internal_model_with_ten_harmonics():
    # K1 observes every internal model with distinct frequencies (Hautus),
    # however badly conditioned its Krylov matrix [K1 G1^j] is.
    freqs = tuple(float(k) for k in range(1, 11))
    assert ctrl_mod.build_internal_model(freqs, p=1).dim == 20
    ctrl = ctrl_mod.synthesize_low_gain([np.array([[1.0 + 0j]])] * 10, freqs, eps=0.1)
    assert ctrl.dim == 20
    assert ctrl_mod.internal_model_eigenvalues_present(ctrl, freqs)


@pytest.mark.parametrize("p", [0, -1, 1.5, 2.0, True, "1"])
def test_internal_model_rejects_bad_output_dimension(p):
    with pytest.raises(ValueError, match="output dimension"):
        ctrl_mod.build_internal_model(FREQS, p=p)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ctrl_mod.build_internal_model(()),
        lambda: ctrl_mod.synthesize_low_gain([], (), eps=0.1),
        lambda: ctrl_mod.internal_model_eigenvalues_present(
            ctrl_mod.synthesize_low_gain([np.array([[1.0 + 0j]])], (1.0,), eps=0.1), ()
        ),
    ],
    ids=["internal-model", "low-gain", "eigenvalue-check"],
)
def test_empty_frequency_set_rejected(build):
    # A controller without an internal model would regulate nothing, and an
    # empty check would pass any controller.
    with pytest.raises(ValueError, match="at least one frequency"):
        build()


# ---------------------------------------------------------------------------
# Dual observer-based controller

def test_dual_dimensions(synthesis11, design11):
    std, _ = design11
    n = std.order
    assert synthesis11.full.dim == 6 + n
    assert synthesis11.reduced.dim == 6 + 4
    assert synthesis11.full.g2.shape == (6 + n, 1)
    assert synthesis11.reduced.k.shape == (1, 10)


def test_dual_reduction_is_wired_into_the_reduced_controller(synthesis11):
    syn = synthesis11
    red = syn.reduction.system
    assert red.order == 4
    assert syn.reduced.dim == 6 + 4
    # Observer block A_r + L_r C_r, with C_r the first p rows of the reduced output map.
    assert np.array_equal(syn.reduced.g1[6:, 6:], red.a + red.b @ red.c[:1])


def test_dual_riccati_quality(synthesis11, design11):
    # Both equations are posed on drifts shifted by the decay margin, so a
    # negative certified bound leaves the unshifted closed loops at least the
    # margin left of the axis.
    std, _ = design11
    im = ctrl_mod.build_internal_model(FREQS, p=1)
    a_s = np.block([[im.g1, np.zeros((im.dim, std.order))], [std.b @ im.k1, std.a]])
    c_s = np.hstack([np.zeros((1, im.dim)), std.c])
    ctrl, fil = synthesis11.control_riccati, synthesis11.filter_riccati
    for sol, closed in ((ctrl, std.a - std.b @ (std.b.T @ ctrl.x)), (fil, a_s - fil.x @ c_s.T @ c_s)):
        assert sol.residual_norm <= 1e-9
        assert sol.closed_loop_decay < 0.0
        assert lti.spectral_abscissa(closed) <= sol.closed_loop_decay - ctrl_mod._DECAY_MARGIN + 1e-10


def _closed_loop_matrix(std, ctrl):
    n = std.order
    nz = ctrl.dim
    top = np.hstack([std.a, std.b @ ctrl.k])
    bottom = np.hstack([ctrl.g2 @ std.c, ctrl.g1])
    return np.vstack([top, bottom])


def test_dual_closed_loop_stable(synthesis11, design11):
    std, _ = design11
    for ctrl in (synthesis11.full, synthesis11.reduced):
        a_e = _closed_loop_matrix(std, ctrl)
        assert lti.spectral_abscissa(a_e) < 0


def test_dual_full_equals_unreduced_at_r_n(design11):
    # With r = N the reduction step is a pure similarity (up to modes below
    # the numerical Hankel rank): the full and "reduced" controllers have
    # the same transfer function.  The grid avoids the internal-model poles
    # at +-i w_k, where both transfer functions blow up.
    std, _ = design11
    im = ctrl_mod.build_internal_model(FREQS, p=1)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # rank clamp expected
        syn = ctrl_mod.synthesize_dual_observer(std, im, r=std.order)
    grid = np.array([0.33, 0.71, 1.5, 2.4, 3.7, 8.1])
    err = lti.sample_frequency_error(syn.full.as_statespace(), syn.reduced.as_statespace(), grid)
    assert err < 1e-8


@pytest.mark.parametrize("p", [1, 2])
def test_cascade_schur_pair(p):
    # G1 is quasi-triangular only for p = 1; the pair must hold for both.
    rng = np.random.default_rng(p)
    n = 25
    a = rng.standard_normal((n, n)) / np.sqrt(n) - 0.5 * np.eye(n)
    b = rng.standard_normal((n, p))
    im = ctrl_mod.build_internal_model(FREQS, p=p)
    t, z = sla.schur(a.T, output="real")
    t_s, z_s = ctrl_mod._cascade_schur(im, b, t, z)
    a_s = np.block([[im.g1, np.zeros((im.dim, n))], [b @ im.k1, a]])
    assert np.linalg.norm(z_s @ t_s @ z_s.T - a_s) <= 1e-12 * np.linalg.norm(a_s)
    assert np.linalg.norm(z_s.T @ z_s - np.eye(n + im.dim)) <= 1e-12 * n
    # Quasi-upper-triangular with standardized 2x2 blocks, as LAPACK's
    # reordering requires.
    assert not np.any(np.tril(t_s, -2))
    sub = np.flatnonzero(np.diag(t_s, -1))
    assert not np.any(np.diff(sub) == 1)
    for k in sub:
        assert t_s[k, k] == t_s[k + 1, k + 1] and t_s[k, k + 1] * t_s[k + 1, k] < 0


def test_dual_synthesis_takes_one_order_n_schur_form(design11, schur_orders):
    std, _ = design11
    im = ctrl_mod.build_internal_model(FREQS, p=1)
    syn = ctrl_mod.synthesize_dual_observer(std, im, r=4)
    assert sum(k >= std.order for k in schur_orders) == 1
    assert syn.control_riccati.residual_norm <= 1e-9 and syn.filter_riccati.residual_norm <= 1e-9


@pytest.fixture(scope="module")
def design21(mesh21, flow41, shapes):
    """Flow on n=41, design on n=21: 373 states, cascade 379."""
    return plant_mod.to_standard_form(plant_mod.build_plant(mesh21, flow41, 100.0, 0.7, *shapes))


def test_dual_design_n21_filter_takes_no_polish(design21, eigvals_orders, lu_orders, cholesky_orders):
    # With a fixed inner tolerance the filter's first low-rank step left a
    # Galerkin residual above the outer tolerance and an exact polish
    # followed.  The decay margins come from the inertia certificate, with no
    # dense eigenvalue solve; each Riccati solve serves its low-rank steps
    # from one LU, and balanced truncation serves both Gramians from one LU.
    # Only the exact iterate of each solve takes an order-N Cholesky
    # factorization; the low-rank steps are certified through it.
    std = design21
    lu_orders.clear()
    syn = ctrl_mod.synthesize_dual_observer(std, ctrl_mod.build_internal_model(FREQS, p=1), r=10)
    n = std.order
    assert eigvals_orders == [] and lu_orders == [n, n + 6, n]
    assert [k for k in cholesky_orders if k >= n] == [n, n + 6]
    assert (syn.control_riccati.iterations, syn.filter_riccati.iterations) == (6, 12)
    for sol in (syn.control_riccati, syn.filter_riccati):
        assert sol.exact_steps == 1
        assert sol.residual_norm <= 1e-9
        assert sol.closed_loop_decay < 0.0  # of the loop shifted by the margin


def test_dual_design_n21_peak_memory(design21):
    # The traced peak of the synthesis, above what was allocated before it,
    # is at most 10 order-N arrays of doubles: each Schur pair is released
    # after its first exact step, the closed loops exist only to be factored,
    # and the first right-hand side is formed in the Schur basis.
    std = design21
    im = ctrl_mod.build_internal_model(FREQS, p=1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ctrl_mod.synthesize_dual_observer(std, im, r=10)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 8 * std.order**2


def test_dual_requires_square_plant(design11):
    std, _ = design11
    wide = StateSpace(a=std.a, b=np.hstack([std.b, std.b]), c=std.c)
    im = ctrl_mod.build_internal_model(FREQS, p=1)
    with pytest.raises(ValueError):
        ctrl_mod.synthesize_dual_observer(wide, im)


def test_dual_rejects_internal_model_of_another_output_dimension(design11):
    std, _ = design11
    im = ctrl_mod.build_internal_model(FREQS, p=2)
    with pytest.raises(ValueError, match="internal model output dimension does not match the plant"):
        ctrl_mod.synthesize_dual_observer(std, im)


def test_dual_design_has_no_weight_or_margin_knobs(design11):
    # Unit weights and a constant decay margin, which only the dual design
    # applies: a stray weight or margin argument is a TypeError, not a
    # silently rebound parameter.
    std, _ = design11
    im = ctrl_mod.build_internal_model(FREQS, p=1)
    a, b = -np.eye(2), np.ones((2, 1))
    with pytest.raises(TypeError):
        ctrl_mod.synthesize_dual_observer(std, im, alpha1=1.0)
    with pytest.raises(TypeError):
        lti.solve_riccati_control(a, b, np.eye(1), np.eye(2))
    with pytest.raises(TypeError):
        lti.solve_riccati_control(a, b, alpha=1.0)
    with pytest.raises(TypeError):
        lti.solve_riccati_filter(a, b.T, alpha=1.0)
    with pytest.raises(TypeError):
        lti.riccati_hamiltonian(a, b, np.eye(1), np.eye(2))


@pytest.mark.parametrize("r", [0, "N+1", 2.5, True], ids=["0", "N+1", "2.5", "True"])
def test_dual_rejects_bad_order_before_any_riccati_solve(design11, monkeypatch, schur_orders, r):
    std, _ = design11
    solve = lti.solve_riccati_control  # the filter solver calls it too
    solves = []

    def counting(*args, **kwargs):
        solves.append(np.shape(args[0])[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(lti, "solve_riccati_control", counting)
    im = ctrl_mod.build_internal_model(FREQS, p=1)
    with pytest.raises(ValueError, match="reduced order"):
        ctrl_mod.synthesize_dual_observer(std, im, r=std.order + 1 if r == "N+1" else r)
    assert solves == [] and schur_orders == []


def test_internal_model_inclusion(synthesis11):
    for ctrl in (synthesis11.full, synthesis11.reduced):
        assert ctrl_mod.internal_model_eigenvalues_present(ctrl, FREQS)


# ---------------------------------------------------------------------------
# Low-gain controller

def test_low_gain_scalar_unity_plant():
    vals = [np.array([[1.0 + 0j]])] * 3
    ctrl = ctrl_mod.synthesize_low_gain(vals, FREQS, eps=1.0)
    assert ctrl.dim == 6
    assert np.allclose(ctrl.k, np.array([[1.0, 0.0, 1.0, 0.0, 1.0, 0.0]]), atol=1e-15)
    assert np.allclose(ctrl.g2[0::2, 0], -1.0)
    assert np.allclose(ctrl.g2[1::2, 0], 0.0)


def test_low_gain_transfer_at_an_internal_model_pole_is_singular():
    # The low-gain controller's drift is G1, whose eigenvalues are +-i w_k.
    ctrl = ctrl_mod.synthesize_low_gain([np.array([[1.0 + 0j]])] * 3, FREQS, eps=0.1)
    with pytest.raises(ValueError, match="shift 1j"):
        ctrl.as_statespace().transfer(1j)


def test_low_gain_scaling():
    vals = [np.array([[2.0 - 1j]])] * 3
    c1 = ctrl_mod.synthesize_low_gain(vals, FREQS, eps=0.08)
    c2 = ctrl_mod.synthesize_low_gain(vals, FREQS, eps=0.16)
    assert np.allclose(2.0 * c1.k, c2.k, atol=1e-15)


@pytest.mark.parametrize("count", [2, 4])
def test_low_gain_rejects_wrong_number_of_transfer_values(count):
    vals = [np.array([[1.0 + 0j]])] * count
    with pytest.raises(ValueError, match="need one transfer value per frequency"):
        ctrl_mod.synthesize_low_gain(vals, FREQS, eps=0.1)


def test_low_gain_rejects_singular_transfer():
    vals = [np.array([[1.0 + 0j]]), np.array([[0.0 + 0j]]), np.array([[1.0 + 0j]])]
    with pytest.raises(ValueError):
        ctrl_mod.synthesize_low_gain(vals, FREQS, eps=0.1)


@pytest.mark.parametrize(
    "bad, message",
    [
        (np.array([[1.0 + 0j, 2.0 + 0j]]), r"frequency 2\.0 has shape \(1, 2\), need \(1, 1\)"),
        (np.ones((2, 2), dtype=complex), r"frequency 2\.0 has shape \(2, 2\), need \(1, 1\)"),
        (np.array([[np.nan + 0j]]), r"frequency 2\.0 is not finite"),
        (np.array([[1.0 + 1j * np.inf]]), r"frequency 2\.0 is not finite"),
    ],
    ids=["1x2", "2x2", "nan", "inf"],
)
def test_low_gain_rejects_malformed_transfer_value(bad, message):
    # The bad value must be named before np.linalg.cond or inv sees it.
    vals = [np.array([[1.0 + 0j]]), bad, np.array([[1.0 + 0j]])]
    with pytest.raises(ValueError, match=f"plant transfer value at {message}"):
        ctrl_mod.synthesize_low_gain(vals, FREQS, eps=0.1)


def test_low_gain_reads_output_dimension_off_the_values():
    # P_k = 2^k [[1, i], [0, 2]] has the exact inverse 2^-k [[1, -i/2], [0, 1/2]].
    vals = [2.0**k * np.array([[1.0, 1j], [0.0, 2.0]]) for k in range(3)]
    ctrl = ctrl_mod.synthesize_low_gain(vals, FREQS, eps=0.5)
    re, im = np.array([[1.0, 0.0], [0.0, 0.5]]), np.array([[0.0, -0.5], [0.0, 0.0]])
    assert np.array_equal(ctrl.k, 0.5 * np.hstack([2.0**-k * blk for k in range(3) for blk in (re, im)]))
    assert np.array_equal(ctrl.g1, ctrl_mod.build_internal_model(FREQS, p=2).g1)
    assert np.array_equal(ctrl.g2, np.tile(np.vstack([-np.eye(2), np.zeros((2, 2))]), (3, 1)))


@pytest.mark.parametrize("eps", [0.0, -0.1, np.nan, np.inf])
def test_low_gain_rejects_bad_eps(eps):
    vals = [np.array([[1.0 + 0j]])] * 3
    with pytest.raises(ValueError, match="low-gain parameter must be positive and finite"):
        ctrl_mod.synthesize_low_gain(vals, FREQS, eps=eps)


def test_low_gain_internal_model_inclusion(design11):
    _, gen = design11
    vals = [plant_mod.transfer_value(gen, 1j * w) for w in FREQS]
    ctrl = ctrl_mod.synthesize_low_gain(vals, FREQS, eps=0.05)
    assert ctrl_mod.internal_model_eigenvalues_present(ctrl, FREQS)
    # The low-gain controller's G1 is the internal model's own array, so its +-i w_k are exact.
    assert np.array_equal(ctrl.g1, ctrl_mod.build_internal_model(FREQS).g1)


def test_low_gain_stability_persists_below_working_eps(design11):
    # Once some eps_max stabilizes, every smaller eps > 0 does too.
    std, gen = design11
    vals = [plant_mod.transfer_value(gen, 1j * w) for w in FREQS]
    eps_max = 0.3
    abscissas = []
    for eps in (eps_max, 0.15, 0.05, 0.01):
        ctrl = ctrl_mod.synthesize_low_gain(vals, FREQS, eps=eps)
        abscissas.append(lti.spectral_abscissa(_closed_loop_matrix(std, ctrl)))
    assert abscissas[0] < 0
    assert all(a < 0 for a in abscissas)
