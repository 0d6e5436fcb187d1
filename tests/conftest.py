import os
from pathlib import Path

import numpy as np
import pytest

import zpfsim
from zpfsim import build_grid
from zpfsim.constants import PhysicalConstants

ROOT = Path(__file__).resolve().parent.parent


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


@pytest.fixture
def child_env():
    """The environment of a child interpreter that imports the zpfsim under
    test, also when pytest alone put it on the path (pyproject's pythonpath)."""
    paths = [str(Path(zpfsim.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


@pytest.fixture
def fuzz_cli(monkeypatch):
    """tools/fuzz_cli.py: the exit contract's base configs, leaf walk and rule."""
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import fuzz_cli
    return fuzz_cli
