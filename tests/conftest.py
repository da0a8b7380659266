import numpy as np
import pytest

from nelsonlab import fock, model


@pytest.fixture(scope="session")
def grid4():
    return fock.line_grid(4, 1.0, 0.2)


@pytest.fixture(scope="session")
def basis4(grid4):
    return fock.build_basis(grid4, 3)


@pytest.fixture(scope="session")
def grid12():
    return fock.line_grid(12, 1.5, 0.2)


@pytest.fixture(scope="session")
def basis12(grid12):
    return fock.build_basis(grid12, 2)


@pytest.fixture(scope="session")
def basis2925():
    """The fiber benchmark's basis: 24 modes, n_max = 3, above DENSE_CUTOFF."""
    return fock.build_basis(fock.line_grid(24, 1.5, 0.2), 3)


@pytest.fixture(scope="session")
def nonrel():
    return model.DispersionLaw("nonrel", 1.0)


@pytest.fixture(scope="session")
def relativistic():
    return model.DispersionLaw("rel", 1.0)


@pytest.fixture(scope="session")
def ff():
    return model.FormFactor(1.0, 1.0, 0.2)


@pytest.fixture(scope="session")
def ms_default(nonrel, ff, grid12):
    return model.ModelSpec(nonrel, ff, grid12, 0.05, use_modified=True)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240810)
