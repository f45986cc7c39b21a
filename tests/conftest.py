import numpy as np
import pytest
import scipy.linalg as sla

from thermoreg.fem import ShapeSpec
from thermoreg.flow import solve_navier_stokes
from thermoreg.mesh import Geometry, build_structured_mesh


@pytest.fixture(scope="session")
def geometry():
    return Geometry()


@pytest.fixture(scope="session")
def mesh5(geometry):
    return build_structured_mesh(geometry, 5)


@pytest.fixture(scope="session")
def mesh11(geometry):
    return build_structured_mesh(geometry, 11)


@pytest.fixture(scope="session")
def mesh21(geometry):
    return build_structured_mesh(geometry, 21)


@pytest.fixture(scope="session")
def mesh41(geometry):
    return build_structured_mesh(geometry, 41)


@pytest.fixture(scope="session")
def shapes():
    """The paper's control, disturbance and observation shapes, in the order ``build_plant`` takes them."""
    return (
        ShapeSpec("indicator-rectangle", bounds=(0.0, 0.05, 0.1, 0.4)),
        ShapeSpec("boundary-indicator"),
        ShapeSpec("indicator-rectangle", bounds=(0.7, 0.9, 0.1, 0.3), amplitude=0.2**-2),
    )


@pytest.fixture(scope="session")
def flow41(mesh41):
    """Steady Navier-Stokes flow at Re=100 on the n=41 mesh, from the solver's default start."""
    return solve_navier_stokes(mesh41, re=100.0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240607)


def _record_orders(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records the order of its first argument."""
    orders = []
    original = getattr(module, name)

    def counting(a, *args, **kwargs):
        orders.append(np.shape(a)[0])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return orders


@pytest.fixture
def schur_orders(monkeypatch):
    """Orders of the matrices handed to scipy's Schur decomposition."""
    return _record_orders(monkeypatch, sla, "schur")


@pytest.fixture
def lu_orders(monkeypatch):
    """Orders of the matrices handed to scipy's LU factorization."""
    return _record_orders(monkeypatch, sla, "lu_factor")


@pytest.fixture
def eigvals_orders(monkeypatch):
    """Orders of the matrices handed to numpy's dense eigenvalue solver."""
    return _record_orders(monkeypatch, np.linalg, "eigvals")


@pytest.fixture
def cholesky_orders(monkeypatch):
    """Orders of the matrices handed to numpy's Cholesky factorization."""
    return _record_orders(monkeypatch, np.linalg, "cholesky")
