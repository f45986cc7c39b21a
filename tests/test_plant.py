import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from thermoreg import fem, plant as plant_mod
from thermoreg.flow import restrict_velocity, solve_navier_stokes, solve_stokes
from thermoreg.mesh import INLET, WALL, Geometry, build_structured_mesh


@pytest.fixture(scope="module")
def small_flow(mesh11):
    st = solve_stokes(mesh11, re=100.0)
    return solve_navier_stokes(mesh11, re=100.0, initial=st)


@pytest.fixture(scope="module")
def small_plant(mesh11, small_flow, shapes):
    return plant_mod.build_plant(mesh11, small_flow, 100.0, 0.7, *shapes)


def test_alpha(small_plant, mesh11, shapes):
    # Diffusion and the inlet load both carry alpha = 1 / (Re Pr) = 1 / 70.
    mesh = mesh11
    _, bd_shape, _ = shapes
    free = np.flatnonzero(mesh.node_tags != WALL)
    stiff = fem.assemble_stiffness(mesh)
    adv = fem.assemble_advection(mesh, solve_navier_stokes(mesh, re=100.0).velocity)
    drift = (-(stiff / 70.0 + adv))[free][:, free]
    assert abs(small_plant.drift - drift).max() <= 1e-15 * abs(drift).max()
    load = fem.assemble_load_boundary(mesh, INLET, bd_shape)[free] / 70.0
    assert np.allclose(small_plant.disturbance[:, 0], load, rtol=1e-15, atol=0)


def test_plant_is_the_full_assembly_off_the_walls(small_plant, small_flow, mesh11, shapes):
    # Every plant array is the full P2 assembly with the wall rows and
    # columns dropped, bit for bit.
    mesh = mesh11
    b_shape, bd_shape, c1_shape = shapes
    free = np.flatnonzero(mesh.node_tags != WALL)
    assert free.size < mesh.num_p2
    alpha = 1.0 / (100.0 * 0.7)
    adv = fem.assemble_advection(mesh, restrict_velocity(small_flow, mesh))
    drift = -(alpha * fem.assemble_stiffness(mesh) + adv)
    assert np.array_equal(small_plant.mass.toarray(), fem.assemble_mass(mesh).toarray()[np.ix_(free, free)])
    assert np.array_equal(small_plant.drift.toarray(), drift.toarray()[np.ix_(free, free)])
    assert np.array_equal(small_plant.control[:, 0], fem.assemble_load_domain(mesh, b_shape)[free])
    bd = alpha * fem.assemble_load_boundary(mesh, INLET, bd_shape)
    assert np.array_equal(small_plant.disturbance[:, 0], bd[free])
    assert np.array_equal(small_plant.observation[0], fem.assemble_load_domain(mesh, c1_shape)[free])


def test_design_mesh_state_dimension(mesh41, flow41, shapes):
    p = plant_mod.build_plant(mesh41, flow41, 100.0, 0.7, *shapes)
    n = p.drift.shape[0]
    assert 1545 <= n <= 1553
    assert p.mass.shape == (n, n)
    assert (p.control.shape, p.disturbance.shape, p.observation.shape) == ((n, 1), (n, 1), (1, n))


def test_operators_nonzero(small_plant):
    assert np.linalg.norm(small_plant.control) > 0
    assert np.linalg.norm(small_plant.disturbance) > 0
    assert np.linalg.norm(small_plant.observation) > 0


def test_standard_form_preserves_transfer(small_plant):
    std = plant_mod.to_standard_form(small_plant)
    for w in (1.0, 2.0, 3.0):
        gen = plant_mod.transfer_value(small_plant, 1j * w)
        assert np.max(np.abs(std.transfer(1j * w) - gen)) < 1e-10


def test_standard_form_identity_mass(small_plant):
    n = small_plant.drift.shape[0]
    eye_plant = plant_mod.GeneralizedPlant(
        mass=sp.identity(n, format="csr"),
        drift=small_plant.drift,
        control=small_plant.control,
        disturbance=small_plant.disturbance,
        observation=small_plant.observation,
    )
    std = plant_mod.to_standard_form(eye_plant)
    assert np.allclose(std.a, small_plant.drift.toarray(), atol=1e-14)
    assert np.allclose(std.b, small_plant.control, atol=1e-14)


def test_standard_form_eigenvalues_match_generalized(small_plant):
    std = plant_mod.to_standard_form(small_plant)
    direct = np.linalg.eigvals(std.a)
    oracle = sla.eig(
        small_plant.drift.toarray(), small_plant.mass.toarray(), right=False
    )
    dist = np.abs(direct[:, None] - oracle[None, :])
    assert dist.min(axis=1).max() < 1e-8
    assert dist.min(axis=0).max() < 1e-8


def _rightmost(plant, k):
    eigs = np.linalg.eigvals(plant_mod.to_standard_form(plant).a)
    return eigs[np.argsort(-eigs.real)[:k]]


def test_rightmost_spectrum_stable_and_conjugate_closed(small_plant):
    eigs = _rightmost(small_plant, k=6)
    assert eigs[0].real < 0
    assert np.all(np.diff(eigs.real) <= 1e-12)
    complex_ones = eigs[np.abs(eigs.imag) > 1e-10]
    for lam in complex_ones:
        assert np.min(np.abs(complex_ones - lam.conjugate())) < 1e-8


def test_rightmost_spectrum_pure_diffusion(geometry):
    # All-wall boundary and zero velocity: the slowest mode of the Dirichlet
    # Laplacian on the unit square is -alpha * 2 pi^2.
    import dataclasses

    mesh = build_structured_mesh(Geometry(), 21)
    mesh = dataclasses.replace(
        mesh,
        node_tags=np.where(mesh.node_tags != 0, WALL, 0).astype(np.int8),
    )
    re, pr = 100.0, 0.7
    alpha = 1.0 / (re * pr)
    mass = fem.assemble_mass(mesh)
    stiff = fem.assemble_stiffness(mesh)
    free = np.flatnonzero(mesh.node_tags != WALL)
    p = plant_mod.GeneralizedPlant(
        mass=mass[free][:, free].tocsr(),
        drift=(-alpha * stiff).tocsr()[free][:, free].tocsr(),
        control=np.ones((free.size, 1)),
        disturbance=np.ones((free.size, 1)),
        observation=np.ones((1, free.size)),
    )
    lam = _rightmost(p, k=1)[0]
    expected = -alpha * 2.0 * np.pi**2
    assert abs(lam.real - expected) / abs(expected) < 0.05
    assert abs(lam.imag) < 1e-10


def test_transfer_conjugate_symmetry(small_plant):
    for w in (0.5, 1.0, 3.0):
        pw = plant_mod.transfer_value(small_plant, 1j * w)
        pmw = plant_mod.transfer_value(small_plant, -1j * w)
        assert np.max(np.abs(pmw - np.conj(pw))) < 1e-12
        assert np.all(np.isfinite(pw))


def test_transfer_matches_dense_resolvent(small_plant):
    std = plant_mod.to_standard_form(small_plant)
    for s in (1j, 0.5 + 2j, 3.0):
        gen = plant_mod.transfer_value(small_plant, s)
        assert np.max(np.abs(gen - std.transfer(s))) < 1e-10


def test_transfer_decays_at_infinity(small_plant):
    vals = [np.abs(plant_mod.transfer_value(small_plant, s))[0, 0] for s in (1e2, 1e4, 1e6)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-6


@pytest.mark.parametrize("s", [np.nan, np.inf, complex(0.0, np.nan)], ids=["nan", "inf", "nan-imag"])
def test_transfer_value_rejects_non_finite_shift(small_plant, s):
    with pytest.raises(ValueError, match="not finite"):
        plant_mod.transfer_value(small_plant, s)


def test_transfer_value_at_an_eigenvalue_is_singular():
    eye = sp.identity(2, format="csr")
    diag = sp.diags([-1.0, -2.0], format="csr")
    gen = plant_mod.GeneralizedPlant(eye, diag, np.ones((2, 1)), np.ones((2, 1)), np.ones((1, 2)))
    with pytest.raises(ValueError, match="singular"):
        plant_mod.transfer_value(gen, -1.0)


def test_standard_form_rejects_indefinite_mass():
    mass = sp.diags([1.0, -1.0], format="csr")
    drift = sp.diags([-1.0, -2.0], format="csr")
    gen = plant_mod.GeneralizedPlant(mass, drift, np.ones((2, 1)), np.ones((2, 1)), np.ones((1, 2)))
    with pytest.raises(ValueError, match="mass matrix is not positive definite"):
        plant_mod.to_standard_form(gen)


def test_invalid_parameters(mesh11, shapes):
    st = solve_stokes(mesh11, re=100.0)
    with pytest.raises(ValueError):
        plant_mod.build_plant(mesh11, st, -1.0, 0.7, *shapes)
    # NaN would give a NaN drift, and an infinite Re or Pr alpha = 0.
    for re, pr in ((np.nan, 0.7), (np.inf, 0.7), (100.0, np.inf), (100.0, np.nan)):
        with pytest.raises(ValueError, match="Re and Pr must be positive and finite"):
            plant_mod.build_plant(mesh11, st, re, pr, *shapes)
