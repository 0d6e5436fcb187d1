import numpy as np
import pytest

from zpfsim import build_grid
from zpfsim.constants import PhysicalConstants


@pytest.fixture(scope="session")
def unit_constants():
    return PhysicalConstants()


@pytest.fixture(scope="session")
def small_grid(unit_constants):
    # 18 wavevectors, 36 modes
    return build_grid(2.0 * np.pi, 1.5, unit_constants)


@pytest.fixture(scope="session")
def medium_grid(unit_constants):
    # 80 wavevectors, 160 modes
    return build_grid(2.0 * np.pi, 2.5, unit_constants)
