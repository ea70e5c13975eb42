import numpy as np
import pytest

from chevlat.errors import SizeCapError
from chevlat.models import GroupModel
from chevlat.rings import ZmRing
from chevlat.table import ElementTable


def test_orders_match_frozen_counts(sl3_2, sl3_4, sp4_2, sl4_2, sp4_3, sl3_3):
    assert sl3_2.table.N == 168
    assert sl3_3.table.N == 5616
    assert sl3_4.table.N == 43008
    assert sl4_2.table.N == 20160
    assert sp4_2.table.N == 720
    assert sp4_3.table.N == 51840


def test_congruence_kernel_count_oracle(sl3_4):
    # kernel of SL3(Z/4) -> SL3(Z/2): matrices I + 2M with tr M even mod 2
    count = 0
    for bits in range(2**9):
        mm = [(bits >> k) & 1 for k in range(9)]
        if (mm[0] + mm[4] + mm[8]) % 2 == 0:
            count += 1
    assert count == 256
    assert sl3_4.table.N == 168 * count


def test_inverses(sl3_4, sp4_3):
    for ctx in (sl3_4, sp4_3):
        t = ctx.table
        rng = np.random.default_rng(5)
        for i in rng.integers(0, t.N, size=64):
            g = t.mat(int(i))
            gi = t.mat(int(t.inv[int(i)]))
            assert ((g @ gi) % t.m == np.eye(t.n, dtype=np.int64)).all()


def test_lookup_rejects_non_elements(sl3_2):
    t = sl3_2.table
    bad = np.zeros((1, 3, 3), dtype=np.int64)  # det 0
    assert t.lookup(bad)[0] == -1


def test_conj_perm_matches_direct(sl3_4):
    t = sl3_4.table
    g_idx = int(t.gen_idxs[0])
    perm = t.conj_perm(g_idx)
    g = t.mat(g_idx)
    ginv = t.mat(int(t.inv[g_idx]))
    rng = np.random.default_rng(9)
    for i in rng.integers(0, t.N, size=32):
        expect = (ginv @ t.mat(int(i)) @ g) % t.m
        assert int(perm[int(i)]) == t.lookup_one(expect)


def test_size_cap_names_cap():
    model = GroupModel("SL", 3, ZmRing(7), (1, 1, 1))
    with pytest.raises(SizeCapError) as err:
        ElementTable(model, cap=100_000)
    assert "100000" in str(err.value)
    assert err.value.needed == 5630688


def _scalar_bfs(t):
    """Element order of a breadth-first scan with one dict lookup per product."""
    n, m = t.n, t.m
    gens = np.stack([g % m for g in t.model.generator_mats()]).astype(np.int64)
    ident = np.eye(n, dtype=np.int64)
    mats, index = [ident], {int(t.encode(ident[None])[0])}
    frontier = ident[None]
    while len(frontier):
        prods = ((frontier[:, None] @ gens[None]) % m).reshape(-1, n, n)
        new = []
        for k, mat in zip(t.encode(prods).tolist(), prods):
            if k not in index:
                index.add(k)
                mats.append(mat)
                new.append(mat)
        frontier = np.stack(new) if new else np.empty((0, n, n), dtype=np.int64)
    return np.stack(mats)


def test_bfs_order_matches_scalar_scan(sl3_3, sp4_2):
    for ctx in (sl3_3, sp4_2):
        t = ctx.table
        assert np.array_equal(t.mats, _scalar_bfs(t))
        assert t.identity_idx == t.lookup_one(ctx.model.identity())
