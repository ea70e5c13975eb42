import hashlib
import tracemalloc

import numpy as np
import pytest

from chevlat import table as table_mod
from chevlat.cli import DEFAULT_MODELS
from chevlat.errors import ShortEnumerationError, SizeCapError, TableBoundError
from chevlat.models import GroupModel
from chevlat.table import ElementTable, check_bounds, matrix_keys

from conftest import ctx_for, index_of, reference_dedupe, table_inverses


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
    # exhaustive: every element times its looked-up model inverse, as one stacked product
    for ctx in (sl3_2, sl3_3, sl3_4, sl4_2, sp4_2, sp4_3):
        t = ctx.table
        inv = table_inverses(t)
        prods = (t.mat(np.arange(t.N)) @ t.mat(inv)) % t.m
        assert (prods == np.eye(t.n, dtype=np.int64)).all()
        assert np.array_equal(inv[inv], np.arange(t.N))


@pytest.mark.parametrize("name", ["sl3_2", "sl3_3", "sl3_4", "sl4_2", "sp4_2", "sp4_3"])
def test_cached_generator_perms_match_kernel(name, request):
    # right multiplication through the row kernel, by each E generator and
    # its inverse, equals the matrix products looked up in the table, one
    # generator at a time and all at once
    t = request.getfixturevalue(name).table
    everything = np.arange(t.N)
    want = {}
    for g, g_inv in zip(t.gen_idxs.tolist(), table_inverses(t, t.gen_idxs).tolist()):
        for h in (g, g_inv):
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
            ginv = t.mat(table_inverses(t, [g_idx])[0])
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
    # a fresh table holds the rows and the BFS's right multiplication by
    # each E generator, and no spanning tree.  Once the conjugations are
    # read it holds the rows and one (k, N) int32 array, conjugation by each
    # E generator, and no right multiplication, inverse or transpose; its
    # conjugations match the matrix products e^-1 x e
    kind, degree, m, blocks = spec
    t = ElementTable(GroupModel(kind, degree, m, blocks))
    k = len(t.gen_idxs)
    assert _held(t) == {"rows": (t.N, t.n), "_right": (k, t.N)}
    perms = t.conj
    assert _held(t) == {"rows": (t.N, t.n), "conj": (k, t.N)}
    everything = t.mat(np.arange(t.N))
    want = np.stack([t.lookup(t.mat(g_inv) @ everything @ t.mat(g) % t.m) for g, g_inv
                     in zip(t.gen_idxs.tolist(), table_inverses(t, t.gen_idxs).tolist())])
    assert perms.dtype == np.int32 and np.array_equal(perms, want)


@pytest.mark.parametrize("spec", [("SL", 3, 4, (1, 1, 1)), ("Sp", 4, 3, "line")],
                         ids=["sl3_4", "sp4_3"])
def test_transpose_is_an_involution_and_the_transposes_lookup(spec):
    # T[x] is the index of x^T on the dense and the hash index alike
    t = ctx_for(*spec).table
    T = t._transpose()
    assert T.dtype == np.int32 and np.array_equal(T[T], np.arange(t.N))
    assert np.array_equal(T, t.lookup(t.mat(np.arange(t.N)).swapaxes(-1, -2)))


def test_conjugations_refuse_a_generator_without_a_transpose_partner():
    # every off-diagonal position but (2, 0): the whole group, but x_20(1),
    # the transpose of x_02(1), is not one of the generators
    model = GroupModel("SL", 3, 2, (1, 1, 1))
    gens = [g for p, g in zip(model.generator_positions(), model.generator_mats()) if p != (2, 0)]
    t = ElementTable(model, generators=gens)
    assert t.N == 168
    with pytest.raises(ValueError, match=r"SL3\(Z/2\).*: the transpose of generator 1 is not a "
                                         r"generator"):
        t.conj


@pytest.mark.parametrize("spec", DEFAULT_MODELS, ids=lambda s: s.build().name())
def test_simple_root_generators_have_transpose_partners(spec):
    # the group suite's generators x_{+-alpha}(1) at the simple roots are
    # closed under transposition, so their conjugations need no inverse
    model = spec.build()
    gens = np.stack(model.simple_generator_mats())
    keys = matrix_keys(gens, model.m).tolist()
    assert sorted(matrix_keys(gens.swapaxes(-1, -2), model.m).tolist()) == sorted(keys)
    if model.m == 2:  # and the conjugations of the smallest tables match the products
        t = ElementTable(model, generators=gens)
        everything = t.mat(np.arange(t.N))
        want = np.stack([t.lookup(model.inverse(g) @ everything @ g % t.m) for g in gens])
        assert np.array_equal(t.conj, want)


def test_conjugations_refuse_a_transpose_missing_from_the_table(monkeypatch):
    # a lookup that no longer finds the key of one element's transpose
    t = ElementTable(GroupModel("Sp", 4, 2, "borel"))
    x = t.N - 1
    missing = matrix_keys(t.mat(x).T, t.m)
    lookup = t.lookup_keys
    monkeypatch.setattr(t, "lookup_keys", lambda keys: np.where(keys == missing, -1, lookup(keys)))
    with pytest.raises(RuntimeError, match=rf"Sp4\(Z/2\).*: the transpose of element {x} is not "
                                           rf"in the table"):
        t.conj


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


def _non_member_mats(model, mats, rng):
    """Matrices off the group: the given elements with their first row times
    each c != 1 (det c), and, for Sp4, det-1 matrices that are not symplectic:
    random ones and the given elements times x_01(1) of SL4."""
    m = model.m
    off = [np.concatenate([mats[:, :1] * c, mats[:, 1:]], axis=1) for c in range(m) if c != 1]
    if model.kind == "Sp":
        sl4 = GroupModel("SL", 4, m, (1, 1, 1, 1))
        shear = np.eye(4, dtype=np.int64)
        shear[0, 1] = 1
        rand = rng.integers(0, m, size=(4000, 4, 4))
        off += [rand[sl4.is_element(rand) & ~model.is_element(rand)], mats @ shear % m]
    off = np.concatenate(off)
    assert not model.is_element(off).any()
    return off


def _probe_keys(keys, keyspace, rng):
    """Keys of elements, keys next to them (most are not elements), both ends
    just outside the key space, negative keys, and keys at and above 2**31,
    among them the element keys plus 2**32, which an int32 cast would alias."""
    near = np.concatenate([keys - 1, keys + 1])
    return [keys, near, rng.permutation(near)[:999].reshape(27, 37),
            np.array([-1, keyspace, 0, keyspace - 1]), np.array([[-1], [keyspace]]),
            -keys - 1, np.array([-2**63, -2**32, -2**31, 2**31 - 1, 2**31, 2**32, 2**62]),
            keys + 2**31, keys + 2**32, keys - 2**32, keys + 2**40]


@pytest.mark.parametrize("spec", [("SL", 3, 3, (1, 1, 1)), ("SL", 4, 2, (1, 1, 1, 1)),
                                  ("Sp", 4, 2, "borel")], ids=["SL3(Z/3)", "SL4(Z/2)", "Sp4(Z/2)"])
def test_dense_and_hash_index_agree(spec, monkeypatch):
    kind, degree, m, blocks = spec
    model = GroupModel(kind, degree, m, blocks)
    dense = ElementTable(model)
    monkeypatch.setattr(table_mod, "_SCAN_LIMIT", 0)
    hashed = ElementTable(model)
    assert isinstance(dense._index, table_mod._DenseIndex)
    assert isinstance(hashed._index, table_mod._HashIndex)
    assert hashed._index.keys.dtype == np.int32  # m**(n*n) <= 2**31
    for a, b in ((dense.rows, hashed.rows), (table_inverses(dense), table_inverses(hashed)),
                 (dense.gen_idxs, hashed.gen_idxs)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert np.array_equal(dense.conj, hashed.conj)
    everything = dense.mat(np.arange(dense.N))
    keys = matrix_keys(everything, m)
    keyspace = m ** (degree * degree)
    rng = np.random.default_rng(5)
    for probe in _probe_keys(keys, keyspace, rng):
        got, want = dense.lookup_keys(probe), hashed.lookup_keys(probe)
        assert got.dtype == want.dtype == np.int64 and got.shape == probe.shape
        assert np.array_equal(got, want)
    assert np.array_equal(dense.lookup_keys(keys), np.arange(dense.N))
    for probe in _probe_keys(keys, keyspace, rng)[5:]:
        assert (hashed.lookup_keys(probe) == -1).all()
    off = _non_member_mats(model, everything, rng)
    assert (dense.lookup(off) == -1).all() and (hashed.lookup(off) == -1).all()


def test_hash_index_refuses_non_members(sp4_3):
    # Sp4(Z/3) line, past the dense bound: det != 1, and det 1 off Sp4
    t = sp4_3.table
    assert isinstance(t._index, table_mod._HashIndex)
    rng = np.random.default_rng(6)
    sample = rng.choice(t.N, 2000, replace=False)
    mats = t.mat(sample)
    assert np.array_equal(t.lookup(mats), sample)
    off = _non_member_mats(t.model, mats, rng)
    assert len(off) > 6500 and (t.lookup(off) == -1).all()
    keys = matrix_keys(mats, t.m)
    for j, probe in enumerate(_probe_keys(keys, 3**16, rng)):
        got = t.lookup_keys(probe)
        found = got >= 0  # only elements' keys, and none past the probes of element keys
        assert np.array_equal(matrix_keys(t.mat(got[found]), t.m), probe[found])
        assert j < 5 or not found.any()


def test_hash_index_stores_wide_keys():
    # keys past 2**31 (Sp4 over Z/4 and up) are stored as int64; chunk keys
    # at and around them, and their int32 aliases, look up exactly
    keyspace = 2**40
    rng = np.random.default_rng(7)
    keys = rng.permutation(np.arange(2**31 - 500, 2**31 + 1500, dtype=np.int64) * 3 + 2**32)
    index = table_mod._HashIndex(len(keys) + 1, 2**32 + 1, keyspace)
    assert index.keys.dtype == np.int64
    repeated = np.concatenate([keys[:700], keys[:300], keys[700:]])
    idx, born = index.add(repeated.astype(np.uint64), 1)
    first = np.concatenate([np.arange(700), np.arange(1000, len(repeated))])
    assert np.array_equal(born, first)
    assert np.array_equal(idx, np.concatenate([np.arange(1, 701), np.arange(1, 301),
                                               np.arange(701, len(keys) + 1)]))
    assert np.array_equal(index.lookup(np.concatenate([[2**32 + 1], keys])),
                          np.arange(len(keys) + 1))
    for probe in (keys + 1, keys - 2**32, keys % 2**31, keys + 2**40, -keys):
        assert (index.lookup(probe) == -1).all()


@pytest.mark.parametrize("slots", ["one", "two"])
@pytest.mark.parametrize("spec", [("SL", 3, 3, (1, 1, 1)), ("Sp", 4, 2, "borel")],
                         ids=["SL3(Z/3)", "Sp4(Z/2)"])
def test_hash_index_survives_collisions(spec, slots, monkeypatch):
    # every key in one slot, then in two: chains of N and N / 2 elements, and
    # chunks that push many new elements onto one slot
    model = GroupModel(*spec)
    dense = ElementTable(model)
    monkeypatch.setattr(table_mod, "_SCAN_LIMIT", 0)
    monkeypatch.setattr(table_mod, "_slots", {
        "one": lambda keys, bits: np.zeros(keys.shape, dtype=np.int64),
        "two": lambda keys, bits: keys.astype(np.int64) % 2}[slots])
    hashed = ElementTable(model)
    assert isinstance(hashed._index, table_mod._HashIndex)
    assert (hashed._index.head >= 0).sum() == {"one": 1, "two": 2}[slots]
    for a, b in ((dense.rows, hashed.rows), (table_inverses(dense), table_inverses(hashed)),
                 (dense.conj, hashed.conj), (dense.gen_idxs, hashed.gen_idxs)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    keys = matrix_keys(dense.mat(np.arange(dense.N)), model.m)
    rng = np.random.default_rng(8)
    probe = np.concatenate([keys, rng.choice(np.concatenate([keys - 1, keys + 1]), 500),
                            [-1, -2**32, 2**32, model.m ** (model.degree ** 2)]])
    assert np.array_equal(hashed.lookup_keys(probe), dense.lookup_keys(probe))


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
    """The BFS's arrays, then the inverses and conjugations read from them."""
    return [t.rows, t._right.copy(), table_inverses(t), t.conj]


def _bfs_parents(t):
    """The BFS tree's parent of every element but the identity, from a fresh
    table's right multiplications: the least element whose product with a
    generator reaches it, as the level scan meets it first."""
    parent = np.full(t.N, t.N)
    np.minimum.at(parent, t._right.reshape(-1), np.tile(np.arange(t.N), len(t._right)))
    return parent


@pytest.mark.parametrize("chunk", ["1", "k", "2k + 1", "37"])
@pytest.mark.parametrize("spec, index", [
    (("SL", 3, 3, (1, 1, 1)), table_mod._DenseIndex),
    (("Sp", 4, 2, "borel"), table_mod._DenseIndex),
    (("Sp", 4, 3, "line"), table_mod._HashIndex)], ids=["SL3(Z/3)", "Sp4(Z/2)", "Sp4(Z/3)"])
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
    parents = _bfs_parents(t)
    depth = np.zeros(t.N, dtype=np.int64)
    for x in range(1, t.N):
        depth[x] = depth[parents[x]] + 1
    parent = int(parents[-1])
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


def test_table_conjugations_peak_memory():
    # the conjugations read the transpose permutation and two N-entry
    # temporaries, and no inverse table: the traced peak through them is
    # 4.46 MiB (the build alone 4.38), against 5.89 with the inverses'
    # k x N scatter and tree walk; the bound leaves 0.24 MiB of margin
    model = GroupModel("Sp", 4, 3, "line")
    tracemalloc.start()
    try:
        ElementTable(model).conj
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.7 * 2**20


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
             np.array([top, top]), np.array([top]), np.array([], dtype=np.int64)]
    cases += [rng.integers(0, 5**16, size=size) for j in (4, 16) for size in (2**j, 2**j + 1)]
    for keys in cases:
        keys = keys.astype(np.uint64)
        want = reference_dedupe(keys)
        got = table_mod._dedupe(keys.copy())
        assert all(np.array_equal(w, g) for w, g in zip(want, got))


# SHA-256 of rows, the inverses, gen_idxs, the index of every element key in
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
    order = np.argsort(t._index.keys)
    return order, t._index.keys[order]


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
             for g in sorted({*t.gen_idxs.tolist(), *table_inverses(t, t.gen_idxs).tolist()}))
    digest = hashlib.sha256()
    for a in (t.rows, table_inverses(t), t.gen_idxs, *_order_and_sorted_keys(t), *right):
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
