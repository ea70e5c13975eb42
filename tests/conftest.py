import numpy as np
import pytest

from chevlat import lattice, models
from chevlat.rings import ZmRing


def ctx_for(kind, degree, m, blocks):
    """Contexts are cached process-wide, so tests share element tables."""
    return lattice.get_context(models.GroupModel(kind, degree, ZmRing(m), blocks))


def index_of(table, mat):
    """Table index of one matrix, None if it is not a group element."""
    idx = int(table.lookup(np.asarray(mat)[None])[0])
    return None if idx < 0 else idx


@pytest.fixture(scope="session")
def sl3_2():
    return ctx_for("SL", 3, 2, (1, 1, 1))


@pytest.fixture(scope="session")
def sl3_3():
    return ctx_for("SL", 3, 3, (1, 1, 1))


@pytest.fixture(scope="session")
def sl3_4():
    return ctx_for("SL", 3, 4, (1, 1, 1))


@pytest.fixture(scope="session")
def sl4_2():
    return ctx_for("SL", 4, 2, (1, 1, 1, 1))


@pytest.fixture(scope="session")
def sp4_2():
    return ctx_for("Sp", 4, 2, "borel")


@pytest.fixture(scope="session")
def sp4_3():
    return ctx_for("Sp", 4, 3, "line")
