import numpy as np
import pytest

from chevlat import lattice, models
from chevlat.rings import ZmRing, adjugate_int, det_int, unit_inverses


def ctx_for(kind, degree, m, blocks):
    """Contexts are cached process-wide, so tests share element tables."""
    return lattice.get_context(models.GroupModel(kind, degree, ZmRing(m), blocks))


def index_of(table, mat):
    """Table index of one matrix, None if it is not a group element."""
    idx = int(table.lookup(np.asarray(mat)[None])[0])
    return None if idx < 0 else idx


def mat_inverse_mod(mat, m):
    """Inverse mod m of one matrix or of a (..., n, n) stack, via the
    adjugate; None when a determinant is not a unit."""
    a = np.asarray(mat, dtype=np.int64)
    dinv = unit_inverses(m)[np.asarray(det_int(a)) % m]  # 0 marks a non-unit
    if not dinv.all():
        return None
    return (adjugate_int(a) * dinv[..., None, None]) % m


def plain_normal_closure(table, seeds):
    """Reference normal closure under E: grow the generated subgroup until
    the bitset is a fixed point of every generator conjugation."""
    sub = lattice.subgroup_closure(table, seeds)
    while True:
        members = sub.indices()
        images = np.concatenate([perm[members] for perm in table.egen_conj_perms()])
        missing = np.unique(images[~sub.member[images]])
        if not missing.size:
            return sub
        sub = lattice.subgroup_closure(table, missing, base=sub)


def bfs_orbits(table):
    """Reference E-orbits: one BFS over the generator conjugations per
    element not yet reached, orbits numbered in order of their least
    member."""
    perms = table.egen_conj_perms()
    orbit = np.full(table.N, -1, dtype=np.int64)
    next_id = 0
    for start in range(table.N):
        if orbit[start] >= 0:
            continue
        orbit[start] = next_id
        frontier = np.array([start], dtype=np.int64)
        while frontier.size:
            images = np.unique(np.concatenate([perm[frontier] for perm in perms]))
            new = images[orbit[images] < 0]
            orbit[new] = next_id
            frontier = new
        next_id += 1
    return orbit


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
