import numpy as np
import pytest

from landau_spectral.kernel import build_kernel_tables

_TABLE_CACHE = {}


@pytest.fixture(scope="session")
def tables_for():
    """Session-wide kernel table builder; tables are reused across tests."""

    def build(grid):
        key = (grid.L, grid.P, grid.gamma)
        if key not in _TABLE_CACHE:
            _TABLE_CACHE[key] = build_kernel_tables(grid)
        return _TABLE_CACHE[key]

    return build


@pytest.fixture
def rng():
    return np.random.default_rng(182750)
