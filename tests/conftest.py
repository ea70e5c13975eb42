import math

import numpy as np
import pytest

from chevlat import calculus, lattice, models, relroots
from chevlat.rings import ZmIdeal, ZmRing, adjugate_int, det_int, unit_inverses


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


def units(m):
    """The units of Z/m."""
    return [a for a in range(1, m) if math.gcd(a, m) == 1]


def ideal_generated_by(ring, x):
    """The ideal (x) of Z/m, as (gcd(x, m))."""
    g = math.gcd(x % ring.modulus, ring.modulus)
    return ZmIdeal(ring, g if g else ring.modulus)


def relative_simple_roots(rel):
    """Images of the simple roots that survive the projection."""
    idx = rel.index
    return set(map(tuple, idx.coords[idx.simple].tolist()))


def check_fiber_additivity(rel, a, b):
    """Every root over a+b splits as a root over a plus a root over b."""
    s = tuple(x + y for x, y in zip(a, b))
    ids = relroots._root_ids(rel, [a, b, s])
    for v, i in zip((a, b, s), ids):
        if i < 0:
            raise ValueError(f"{v} is not a relative root")
    # mu - nu is a root for mu over a+b and nu over a, so it lies over b.
    return bool(rel.index.split[ids[2], ids[0]])


def unipotent_factor(model, psi, g):
    """Components of g as an ordered product over psi; error if g is not in
    the corresponding unipotent group."""
    ch = calculus.chart(model, tuple(psi))
    comps = ch.components(g)
    if comps is None:
        raise ValueError("matrix is not a product over the given root set")
    return dict(zip(ch.roots, comps))


def reference_elements_on(model, support, chunk=8192):
    """Reference predicate scan: every filling of the support decided one by
    one by is_element, in chunks, in lexicographic order of the supported
    entries read row by row."""
    m, n = model.m, model.degree
    pos = np.flatnonzero(support)
    weights = m ** np.arange(len(pos) - 1, -1, -1, dtype=np.int64)  # first entry most significant
    found, total = [], m ** len(pos)
    for lo in range(0, total, chunk):
        c = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        mats = np.zeros((len(c), n * n), dtype=np.int64)
        mats[:, pos] = c[:, None] // weights % m
        mats = mats.reshape(-1, n, n)
        found.append(mats[model.is_element(mats)])
    return np.concatenate(found)


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
