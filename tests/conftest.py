import numpy as np
import pytest

from fracstep.fem import assemble_1d, assemble_2d_tensor
from fracstep.spectral import eig_1d, eig_2d_tensor


@pytest.fixture(scope="session")
def op_1d_small():
    return assemble_1d(np.linspace(0.0, 1.0, 201))


@pytest.fixture(scope="session")
def decomp_1d_small(op_1d_small):
    return eig_1d(op_1d_small)


@pytest.fixture(scope="session")
def op_2d_small():
    return assemble_2d_tensor(8)


@pytest.fixture(scope="session")
def decomp_2d_small(op_2d_small):
    return eig_2d_tensor(op_2d_small)
