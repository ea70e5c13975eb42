import hashlib
import tracemalloc

import numpy as np
import pytest

from chevlat import table as table_mod
from chevlat.cli import DEFAULT_MODELS
from chevlat.errors import ShortEnumerationError, SizeCapError, TableBoundError
from chevlat.models import GroupModel
from chevlat.table import ElementTable, check_bounds, matrix_keys

from conftest import ctx_for, index_of, reference_dedupe


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


def test_inverses(sl3_2, sl3_3, sl3_4, sl4_2, sp4_2, sp4_3):
    # exhaustive: every element times its tree-walk inverse, as one stacked product
    for ctx in (sl3_2, sl3_3, sl3_4, sl4_2, sp4_2, sp4_3):
        t = ctx.table
        prods = (t.mat(np.arange(t.N)) @ t.mat(t.inv)) % t.m
        assert (prods == np.eye(t.n, dtype=np.int64)).all()
        assert np.array_equal(t.inv[t.inv], np.arange(t.N))


@pytest.mark.parametrize("name", ["sl3_2", "sl3_3", "sl3_4", "sl4_2", "sp4_2", "sp4_3"])
def test_cached_generator_perms_match_kernel(name, request):
    # right multiplication through the row kernel, by each E generator and
    # its inverse, equals the matrix products looked up in the table, one
    # generator at a time and all at once
    t = request.getfixturevalue(name).table
    everything = np.arange(t.N)
    want = {}
    for g in t.gen_idxs.tolist():
        for h in (g, int(t.inv[g])):
            want[h] = t.lookup(t.mat(everything) @ t.mat(h) % t.m)
    assert np.array_equal(t.gen_idxs, t.lookup(np.stack(t.model.generator_mats())))
    for h, right in want.items():
        assert np.array_equal(t.right_mult(everything, t.row_tables(t.mat(h)))[0], right)
    gens = sorted(want)
    assert np.array_equal(t.right_mult(everything[::7], t.row_tables(t.mat(gens))),
                          np.stack([want[h][::7] for h in gens]))


def test_lookup_rejects_non_elements(sl3_2):
    t = sl3_2.table
    bad = np.zeros((1, 3, 3), dtype=np.int64)  # det 0
    assert t.lookup(bad)[0] == -1
    # a shuffled batch with repeats and zero matrices: the sorted search
    # must scatter every answer back to its own query
    rng = np.random.default_rng(3)
    want = rng.integers(0, t.N, size=300)
    want[rng.integers(0, want.size, size=40)] = -1
    mats = np.where(want[:, None, None] >= 0, t.mat(want), 0)
    assert np.array_equal(t.lookup(mats), want)


def test_conj_perm_matches_direct(sl3_4, sp4_3, sl4_2):
    for ctx in (sl3_4, sp4_3, sl4_2):
        t = ctx.table
        rng = np.random.default_rng(9)
        egens = set(t.gen_idxs.tolist()) | {t.identity_idx}
        other = next(int(i) for i in rng.integers(0, t.N, size=100) if int(i) not in egens)
        xs = rng.integers(0, t.N, size=64)
        for g_idx in t.gen_idxs.tolist():
            perm = t.conj_perm(g_idx)
            g = t.mat(g_idx)
            ginv = t.mat(int(t.inv[g_idx]))
            for i in xs[:32]:
                expect = (ginv @ t.mat(int(i)) @ g) % t.m
                assert int(perm[int(i)]) == index_of(t, expect)
        # only the E generators' conjugations are kept
        with pytest.raises(ValueError, match=f"element {other} is not an E generator"):
            t.conj_perm(other)
        for g_idx in (int(t.gen_idxs[0]), other):
            # the row-table kernel: right multiplication by g
            g = t.mat(g_idx)
            right = t.lookup_keys(t.product_keys(xs, t.row_tables(g))[0])
            assert np.array_equal(right, t.lookup((t.mat(xs) @ g) % t.m))


def _held(t):
    """The shapes of the table's N-sized arrays, by attribute name."""
    held = [(key, a) for key, v in vars(t).items()
            for a in (v.values() if isinstance(v, dict) else [v])]
    return {key: a.shape for key, a in held if isinstance(a, np.ndarray) and t.N in a.shape}


@pytest.mark.parametrize("spec", [("SL", 3, 4, (1, 1, 1)), ("Sp", 4, 3, "line")],
                         ids=["sl3_4", "sp4_3"])
def test_table_keeps_only_the_generator_conjugations(spec):
    # a fresh table holds the rows and the BFS's three arrays: right
    # multiplication by each E generator and the tree's parents and
    # generators.  Once the conjugations are read it holds the rows, the
    # inverses and one (k, N) int32 array, conjugation by each E generator,
    # and no right multiplication; its conjugations match the matrix products
    kind, degree, m, blocks = spec
    t = ElementTable(GroupModel(kind, degree, m, blocks))
    k = len(t.gen_idxs)
    assert _held(t) == {"rows": (t.N, t.n), "_right": (k, t.N), "_parent": (t.N,), "_gen": (t.N,)}
    perms = t.conj
    assert _held(t) == {"rows": (t.N, t.n), "inv": (t.N,), "conj": (k, t.N)}
    everything = t.mat(np.arange(t.N))
    want = np.stack([t.lookup(t.mat(int(t.inv[g])) @ everything @ t.mat(g) % t.m)
                     for g in t.gen_idxs.tolist()])
    assert perms.dtype == np.int32 and np.array_equal(perms, want)


def test_first_inverse_read_drops_the_tree():
    # the inverses alone leave right multiplication as the BFS wrote it
    t = ElementTable(GroupModel("SL", 3, 2, (1, 1, 1)))
    right = t._right.copy()
    inv = t.inv
    assert _held(t) == {"rows": (t.N, t.n), "_right": right.shape, "inv": (t.N,)}
    assert np.array_equal(t._right, right) and t.inv is inv
    assert ((t.mat(np.arange(t.N)) @ t.mat(inv)) % t.m == np.eye(t.n)).all()


def _arrays(t):
    return [a for obj in (t, t._index) for a in vars(obj).values() if isinstance(a, np.ndarray)]


def test_table_has_no_keyspace_sized_array():
    # Sp4(Z/3) has 3**16 possible keys; a direct-address lookup array over
    # them alone took 164 MiB
    t = ElementTable(GroupModel("Sp", 4, 3, "line"))
    assert sum(a.nbytes for a in _arrays(t)) < 16 * 2**20
    # only a key space within the predicate scan's bound gets a dense index
    for m, dense in ((4, True), (5, False)):
        t = ElementTable(GroupModel("SL", 3, m, (1, 1, 1)))
        assert (m**9 <= table_mod._SCAN_LIMIT) == dense
        assert any(len(a) >= m**9 for a in _arrays(t)) == dense


def test_table_stores_each_element_once(sl3_4, sp4_3):
    # the matrices are decoded from `rows` on demand, on the dense and the
    # sorted index alike
    for t in (sl3_4.table, sp4_3.table):
        assert all(a.shape != (t.N, t.n, t.n) for a in _arrays(t))
        one = t.mat(5)
        assert one.shape == (t.n, t.n) and one.dtype == np.int64
        stack = t.mat(np.array([5, 0, 7, 5]))
        assert stack.shape == (4, t.n, t.n) and stack.dtype == np.int64
        assert np.array_equal(stack[0], one) and np.array_equal(stack[1], np.eye(t.n))
        assert t.lookup(stack).tolist() == [5, 0, 7, 5]


@pytest.mark.parametrize("spec", [("SL", 3, 3, (1, 1, 1)), ("SL", 4, 2, (1, 1, 1, 1)),
                                  ("Sp", 4, 2, "borel")], ids=["SL3(Z/3)", "SL4(Z/2)", "Sp4(Z/2)"])
def test_dense_and_sorted_index_agree(spec, monkeypatch):
    kind, degree, m, blocks = spec
    model = GroupModel(kind, degree, m, blocks)
    dense = ElementTable(model)
    monkeypatch.setattr(table_mod, "_SCAN_LIMIT", 0)
    srt = ElementTable(model)
    assert isinstance(dense._index, table_mod._DenseIndex)
    assert isinstance(srt._index, table_mod._SortedIndex)
    for a, b in ((dense.rows, srt.rows), (dense.inv, srt.inv), (dense.gen_idxs, srt.gen_idxs)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert np.array_equal(dense.conj, srt.conj)
    # every element, keys next to elements (most are not elements), and
    # both ends just outside the key space
    keys = matrix_keys(dense.mat(np.arange(dense.N)), m)
    near = np.concatenate([keys - 1, keys + 1])
    rng = np.random.default_rng(5)
    probes = [keys, near, rng.permutation(near)[:999].reshape(27, 37),
              np.array([-1, m ** (degree * degree), 0, m ** (degree * degree) - 1]),
              np.array([[-1], [m ** (degree * degree)]])]
    for probe in probes:
        got, want = dense.lookup_keys(probe), srt.lookup_keys(probe)
        assert got.dtype == want.dtype == np.int64 and got.shape == probe.shape
        assert np.array_equal(got, want)
    assert np.array_equal(dense.lookup_keys(keys), np.arange(dense.N))
    assert dense.lookup_keys(np.array([-1, m ** (degree * degree)])).tolist() == [-1, -1]


# Every accepted spec of at most 51,840 elements: SL2(Z/m) for m <= 16,
# SL3(Z/2..4), SL4(Z/2) and Sp4(Z/2..3) under each parabolic
SMALL_SPECS = ([("SL", 2, m, (1, 1)) for m in range(2, 17)]
               + [("SL", 3, m, (1, 1, 1)) for m in (2, 3, 4)] + [("SL", 4, 2, (1, 1, 1, 1))]
               + [("Sp", 4, m, b) for m in (2, 3) for b in ("borel", "line", "siegel")])


def _sorted_keys(t):
    return np.sort(matrix_keys(t.mat(np.arange(t.N)), t.m))


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda s: f"{s[0]}{s[1]}(Z/{s[2]})[{s[3]}]")
def test_simple_root_generators_enumerate_the_whole_group(spec):
    # the 2 * rank generators of the group suite's table reach the order
    # formula and the elements of the table over every E generator
    model = GroupModel(*spec)
    if spec in [(s.kind, s.degree, s.modulus, s.blocks) for s in DEFAULT_MODELS]:
        full = ctx_for(*spec).table  # shared with the other tests
    else:
        full = ElementTable(model)
    t = ElementTable(model, generators=model.simple_generator_mats())
    assert len(t.gen_idxs) == len(model.simple_generator_mats())
    assert t.N == check_bounds(model) == full.N
    assert np.array_equal(_sorted_keys(t), _sorted_keys(full))


def test_a_short_enumeration_carries_both_counts():
    model = GroupModel("SL", 3, 2, (1, 1, 1))
    # x_01, x_10 and x_12 fix the last row (0, 0, 1): 168 / 7 matrices
    with pytest.raises(ShortEnumerationError, match="enumerated 24 elements, order formula "
                                                   "gives 168") as err:
        ElementTable(model, generators=model.simple_generator_mats()[:-1])
    assert (err.value.found, err.value.expected) == (24, 168)


def test_table_refuses_a_scan_that_misses_an_element(monkeypatch):
    scan = table_mod.scan_on

    def scan_dropping_one(model, support):
        return scan(model, support)[1:]

    monkeypatch.setattr(table_mod, "scan_on", scan_dropping_one)
    with pytest.raises(RuntimeError, match="BFS and predicate scan disagree"):
        ElementTable(GroupModel("SL", 3, 2, (1, 1, 1)))


def test_table_refuses_a_scan_with_a_non_element(monkeypatch):
    # as many scanned keys as elements, one of them the zero matrix's
    scan = table_mod.scan_on

    def scan_replacing_one(model, support):
        keys = scan(model, support).copy()
        keys[len(keys) // 2] = matrix_keys(np.zeros((model.degree, model.degree)), model.m)
        return keys

    monkeypatch.setattr(table_mod, "scan_on", scan_replacing_one)
    with pytest.raises(RuntimeError, match="BFS and predicate scan disagree"):
        ElementTable(GroupModel("SL", 3, 2, (1, 1, 1)))


@pytest.mark.parametrize("shift, found", [(-1, "more"), (1, "168")])
def test_table_refuses_a_count_off_the_order_formula(monkeypatch, shift, found):
    # the BFS fills arrays of the order formula's size and stops before passing it
    monkeypatch.setattr(table_mod, "order_formula", lambda model: 168 + shift)
    with pytest.raises(RuntimeError, match=f"enumerated {found} elements, order formula "
                                           f"gives {168 + shift}"):
        ElementTable(GroupModel("SL", 3, 2, (1, 1, 1)))


def _bfs_arrays(t):
    """The BFS's arrays, then the inverses and conjugations built from them."""
    return [t.rows, t._right.copy(), t._parent, t._gen, t.inv, t.conj]


@pytest.mark.parametrize("chunk", ["1", "k", "2k + 1", "37"])
@pytest.mark.parametrize("spec, index", [
    (("SL", 3, 3, (1, 1, 1)), table_mod._DenseIndex),
    (("Sp", 4, 2, "borel"), table_mod._DenseIndex),
    (("Sp", 4, 3, "line"), table_mod._SortedIndex)], ids=["SL3(Z/3)", "Sp4(Z/2)", "Sp4(Z/3)"])
def test_bfs_in_chunks_keeps_the_level_order(spec, index, chunk, monkeypatch):
    # a level scanned in chunks of any size numbers its elements as the whole
    # level does
    model = GroupModel(*spec)
    want = _bfs_arrays(ElementTable(model))
    k = len(model.generator_positions())
    monkeypatch.setattr(table_mod, "CHUNK", {"1": 1, "k": k, "2k + 1": 2 * k + 1, "37": 37}[chunk])
    t = ElementTable(model)
    assert isinstance(t._index, index)
    for a, b in zip(_bfs_arrays(t), want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_table_refuses_a_count_passed_in_a_later_chunk_of_a_level(monkeypatch):
    # one frontier element per chunk: the last element's parent is not the
    # first of its level, so the order formula's count one short is passed
    # in a level's later chunk
    model = GroupModel("SL", 3, 2, (1, 1, 1))
    t = ElementTable(model)
    depth = np.zeros(t.N, dtype=np.int64)
    for x in range(1, t.N):
        depth[x] = depth[t._parent[x]] + 1
    parent = int(t._parent[-1])
    assert depth[parent - 1] == depth[parent]
    monkeypatch.setattr(table_mod, "CHUNK", len(t.gen_idxs))
    monkeypatch.setattr(table_mod, "order_formula", lambda model: t.N - 1)
    with pytest.raises(RuntimeError, match=f"enumerated more elements, order formula "
                                           f"gives {t.N - 1}"):
        ElementTable(model)


def test_table_build_peak_memory():
    # Sp4(Z/3) line: levels of 148,648 and 178,512 products, scanned in
    # chunks of at most 65,536; whole, they took the build to 8.3 MiB
    model = GroupModel("Sp", 4, 3, "line")
    tracemalloc.start()
    try:
        ElementTable(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * 2**20


def test_table_inverses_peak_memory():
    # the tree walk gathers in stacks of at most an eighth of N, so reading
    # inv keeps the traced peak of the build (6.07 MiB); stacks of N took 6.53
    model = GroupModel("Sp", 4, 3, "line")
    tracemalloc.start()
    try:
        ElementTable(model).inv
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * 2**20


def test_size_cap_names_cap():
    model = GroupModel("SL", 3, 7, (1, 1, 1))
    with pytest.raises(SizeCapError) as err:
        ElementTable(model, cap=100_000)
    assert "100000" in str(err.value)
    assert err.value.needed == 5630688


def test_table_refuses_keys_past_int64_before_enumerating(monkeypatch):
    # SL2(Z/2**16): the 2x2 base-m keys reach 2**64
    def enumeration(*args):
        raise AssertionError("the table started enumerating")

    monkeypatch.setattr(ElementTable, "_bfs", enumeration)
    monkeypatch.setattr(ElementTable, "_decode", enumeration)
    model = GroupModel("SL", 2, 2**16, (1, 1))
    with pytest.raises(TableBoundError) as err:
        ElementTable(model, cap=10**15)
    assert isinstance(err.value, SizeCapError)
    assert model.name() in str(err.value) and "2**63 - 1" in str(err.value)
    assert err.value.needed == 2**64 and err.value.cap == 2**63 - 1


def test_table_refuses_order_past_int32(monkeypatch):
    monkeypatch.setattr(ElementTable, "_bfs", lambda *args: pytest.fail("enumeration started"))
    model = GroupModel("SL", 3, 17, (1, 1, 1))
    with pytest.raises(TableBoundError) as err:
        ElementTable(model, cap=10**12)
    assert model.name() in str(err.value) and "2**31 - 1" in str(err.value)
    assert err.value.needed > 2**31 - 1


def test_table_refuses_composites_past_uint64(monkeypatch):
    # the BFS sorts uint64 composites key * kF + position, kF <= k N; Sp4(Z/6)
    # passes the key and index bounds, but 6**16 * 8 * 37,324,800 > 2**64
    monkeypatch.setattr(ElementTable, "_bfs", lambda *args: pytest.fail("enumeration started"))
    model = GroupModel("Sp", 4, 6, "line")
    with pytest.raises(TableBoundError) as err:
        ElementTable(model, cap=10**9)
    assert model.name() in str(err.value) and "2**64" in str(err.value)
    assert err.value.needed == 6**16 * 8 * 37_324_800 and err.value.cap == 2**64
    # Sp4(Z/5) reaches 5**16 * 8 * 9,360,000 = 2**63.3 and still fits
    assert check_bounds(GroupModel("Sp", 4, 5, "line"), 10_000_000) == 9_360_000


@pytest.mark.parametrize("seed", range(4))
def test_dedupe_matches_np_unique(seed):
    rng = np.random.default_rng(seed)
    top = 127**9 - 1  # the largest key of SL3(Z/127), 2**62.9: key * 2 + 1 is near 2**64
    cases = [rng.integers(0, 40, size=500), rng.integers(0, 5**16, size=300),
             rng.choice([0, 5**16 - 1, 7], size=200), rng.permutation([top, 3]),
             np.array([top, top]), np.array([top])]
    cases += [rng.integers(0, 5**16, size=size) for j in (4, 16) for size in (2**j, 2**j + 1)]
    for keys in cases:
        keys = keys.astype(np.uint64)
        want = reference_dedupe(keys)
        got = table_mod._dedupe(keys.copy())
        assert all(np.array_equal(w, g) for w, g in zip(want, got))


# SHA-256 of rows, inv, gen_idxs, the index of every element key in
# increasing key order, those keys, and the right multiplications (by
# generator index), each cast to int64
TABLE_DIGESTS = {
    ("SL", 3, 2, (1, 1, 1)): "5ea230502be96575476ec75c9e23f22a0b5987a8c2db79f11bec13a500c1d038",
    ("SL", 3, 3, (1, 1, 1)): "b42094378646391ff3a5035d8275f6bd2c75f846207c84256892e424d5aeb49a",
    ("SL", 3, 4, (1, 1, 1)): "e6171b7aaf7a80d21852fa446f6459d9c4ba412a2cae964ab0a12ca96d3d586d",
    ("SL", 4, 2, (1, 1, 1, 1)): "d80da880c1708a4eaace8f25ee9364cbd23c94076e5e1ecd2b80c2234ffcc28e",
    ("Sp", 4, 2, "borel"): "9075319877690fc04c626a4a6d1321d1735d1ffb2121f7b13056733f4a9ee78b",
    ("Sp", 4, 3, "line"): "c8c7fd751e8e3d2a1a30c362d60d8708122c901737c5d4689ab1fb0027ff9e0a",
    ("SL", 3, 6, (1, 1, 1)): "a7c5f7a48530685feea1b5afa6df8d749c9852d0319b4a8c57686ee266cbc7f7",
    ("Sp", 4, 4, "line"): "4a56ca693ab4a4738c3c263a94da942fb250c9eb56576bf39dd761cb9de12b76",
}


def _order_and_sorted_keys(t):
    """The element keys in increasing order, after the index of each, read
    from either key index."""
    if isinstance(t._index, table_mod._DenseIndex):
        keys = np.flatnonzero(t._index.where >= 0)
        return t._index.where[keys], keys
    return t._index.order, t._index.keys


@pytest.mark.parametrize("spec", TABLE_DIGESTS, ids=lambda s: f"{s[0]}{s[1]}(Z/{s[2]})")
def test_table_arrays_are_pinned(spec):
    kind, degree, m, blocks = spec
    if spec in [(s.kind, s.degree, s.modulus, s.blocks) for s in DEFAULT_MODELS]:
        t = ctx_for(*spec).table  # shared with the other tests
    else:
        t = ElementTable(GroupModel(kind, degree, m, blocks))  # freed after the test
    # right multiplication by every E generator and its inverse, the BFS's
    # Cayley graph, rebuilt through the row kernel
    everything = np.arange(t.N)
    right = (t.right_mult(everything, t.row_tables(t.mat(g)))[0]
             for g in sorted({*t.gen_idxs.tolist(), *t.inv[t.gen_idxs].tolist()}))
    digest = hashlib.sha256()
    for a in (t.rows, t.inv, t.gen_idxs, *_order_and_sorted_keys(t), *right):
        digest.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    assert digest.hexdigest() == TABLE_DIGESTS[spec]


def _scalar_bfs(t):
    """Element order of a breadth-first scan with one dict lookup per product."""
    n, m = t.n, t.m
    gens = np.stack([g % m for g in t.model.generator_mats()]).astype(np.int64)
    ident = np.eye(n, dtype=np.int64)
    mats, index = [ident], {int(matrix_keys(ident, m))}
    frontier = ident[None]
    while len(frontier):
        prods = ((frontier[:, None] @ gens[None]) % m).reshape(-1, n, n)
        new = []
        for k, mat in zip(matrix_keys(prods, m).tolist(), prods):
            if k not in index:
                index.add(k)
                mats.append(mat)
                new.append(mat)
        frontier = np.stack(new) if new else np.empty((0, n, n), dtype=np.int64)
    return np.stack(mats)


def test_bfs_order_matches_scalar_scan(sl3_3, sp4_2):
    for ctx in (sl3_3, sp4_2):
        t = ctx.table
        assert np.array_equal(t.mat(np.arange(t.N)), _scalar_bfs(t))
        assert t.identity_idx == index_of(t, ctx.model.identity())
