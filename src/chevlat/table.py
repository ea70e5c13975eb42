"""Complete enumeration of a finite matrix group with indexed lookup.

Each element is stored once, by its n row keys: row i of a matrix, read
as a base-m number (`rows`, an (N, n) int32 array).  The element's key is
the row keys read as base m**n digits, the same as the matrix read as n*n
base-m digits.  Matrices are read through `mat`, which decodes the row
keys of the indices asked for.

The enumeration is a BFS from the identity over right multiplication by k
generators e of E(R): by default all the elementary generators of
`generator_mats`, whose order of discovery fixes every element index the
lattice, its pinned digests and the reports' seed indices rest on.  A
caller that reads only N and lookups may pass a smaller generating set:
the group suite passes the 2 * rank of `simple_generator_mats` (4 of 6 on
SL_3, 6 of 12 on SL_4, 4 of 8 on Sp_4), so its table numbers the same
elements in another order than the sandwich suite's.  The BFS scans each
level in chunks of at most CHUNK products (CHUNK / 2 on the hash index)
and hands each chunk to a key index, which recognizes the elements seen
so far, numbers the chunk's new keys in scan order after those of the
chunks before it, and is the table's lookup afterwards: the elements are
numbered as by whole levels, and the build holds one chunk's arrays at a
time.  With at most _SCAN_LIMIT possible keys (m**(n*n), at most 1.6 MB of
int32) the index is dense, `where[key]` the index or -1: `np.minimum.at`
over a chunk's unseen products' scan ranks finds each new key's first
occurrence, and a lookup is one gather.  Above that bound it is a chained
hash sized by the group (12 to 16 B per int32 key): a lookup walks its
keys' chains comparing stored keys, so a non-member finds none, and a
chunk deduplicates its unseen products by one sort of composites.

The BFS keeps x -> x e, one int32 row per generator; its spanning tree
(parent and generator) lives only in the chunk that finds each element.  `conj`, conjugation by
each generator, x -> e^-1 x e, is built on first read as one (k, N) int32
array written over x -> x e, the one thing the lattice needs of the
generators; its closures run entirely on indices.  It needs no inverse:
with T the transpose permutation x -> x^T and f the generator e^T (x_ij
and x_ji for SL_n, x_alpha and x_-alpha for Sp_4), e^-1 x e =
R_e(T(R_f^-1(T(x)))) for R_e: x -> x e.  T is one lookup of the
transposes' keys, summed from one digit table per row (row i of x is
column i of x^T); T R_f^-1 T is one scatter of T R_f, and the rows are
rewritten a transpose pair at a time.  The group suite reads no conjugation.

`right_mult` is the one entry point for products, and it has one path for
every g, resting on row_i(x g) = row_i(x) g: a row table of g, with one
entry per possible row (m**n of them), maps a row key to the row key of
that row times g, so the keys of all x g are one gather and one weighted
sum, looked up in the key index.  It takes the row tables, which a caller
multiplying by the same g many times builds once.

Before enumerating, the table refuses (`check_bounds`, SizeCapError) a
group over the element cap, one whose base-m keys could pass 2**63 - 1, one
whose indices do not fit int32 and one whose composites could pass 2**64.
Under the dense index's bound the BFS is also checked against the predicate
scan that decides every n x n matrix by its defining equation
(`models.scan_on` with every entry supported: det through first-row
cofactors shared between matrices for SL_n, column pairings for Sp_4): the
scan's keys must be N, each of them in the table.  The BFS's N keys are
distinct, so the two sets are equal.  A BFS that ends short of the order
formula raises ShortEnumerationError with both counts: its generators do
not generate the group.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import ShortEnumerationError, SizeCapError, TableBoundError
from .models import GroupModel, check_key_bound, order_formula, scan_on
from .rings import residues

DEFAULT_CAP = 2_000_000
CHUNK = 65536  # products per stack of a BFS level, a closure or an exhaustive check
_SCAN_LIMIT = 400_000  # m**(n*n) bound for the dense key index and the predicate scan
_INDEX_BOUND = 2**31 - 1  # permutation entries are int32


def check_bounds(model: GroupModel, cap: int = DEFAULT_CAP, k: int | None = None) -> int:
    """The group's order by the order formula, once its table is known to fit: SizeCapError
    above the element cap, TableBoundError past the int64 key, the int32 index or the
    uint64 bound of the BFS's composites (below m**(n*n) k N for k generators, by default
    all of generator_mats)."""
    expected = order_formula(model)
    if expected > cap:
        raise SizeCapError(expected, cap, model.name())
    check_key_bound(model)
    if expected > _INDEX_BOUND:
        raise TableBoundError(
            expected, _INDEX_BOUND,
            f"{model.name()} has {expected} elements, past the int32 index bound 2**31 - 1")
    keys = model.m ** (model.degree ** 2)
    k = len(model.generator_positions()) if k is None else k
    if keys * k * expected > 2**64:
        raise TableBoundError(keys * k * expected, 2**64, f"{model.name()}: BFS composites reach "
                              f"{keys} keys x {k} generators x {expected} elements, past 2**64")
    return expected


def matrix_keys(mats, m: int) -> np.ndarray:
    """The keys of a (..., n, n) stack of matrices: the entries reduced mod m
    and read as n*n base-m digits, row by row, first entry least significant."""
    mats = np.asarray(mats, dtype=np.int64)
    k = mats.shape[-1] ** 2
    return residues(mats.reshape(*mats.shape[:-2], k), m) @ m ** np.arange(k, dtype=np.int64)


class ElementTable:
    def __init__(self, model: GroupModel, cap: int = DEFAULT_CAP, generators=None):
        """The table of the group the generators generate, by default all of
        generator_mats; see the module notes."""
        self.model = model
        self.n = n = model.degree
        self.m = m = model.m
        gens = np.stack(model.generator_mats() if generators is None else generators)
        expected = check_bounds(model, cap, len(gens))

        self._digit = m ** np.arange(n, dtype=np.int64)  # entry weights in a row key
        self._row_w = (m ** n) ** np.arange(n, dtype=np.int64)  # row-key weights in a key
        self.row_vecs = self._decode(np.arange(m ** n, dtype=np.int64))  # every row, by key
        small = (keyspace := m ** (n * n)) <= _SCAN_LIMIT
        identity = int(self._digit @ self._row_w)  # row i of the identity has key m**i
        # the key index holds the identity at index 0; the BFS fills in the rest
        self._index = (_DenseIndex(keyspace, identity) if small
                       else _HashIndex(expected, identity, keyspace))
        self.rows, self._right = self._bfs(expected, gens)
        self.N = expected
        self.identity_idx = 0  # the BFS starts from the identity
        self.gen_idxs = self._right[:, 0].astype(np.int64)
        self._gen_pos = {g: j for j, g in enumerate(self.gen_idxs.tolist())}
        if small:
            scanned = scan_on(model, np.ones((n, n), dtype=bool))
            if len(scanned) != self.N or (self.lookup_keys(scanned) < 0).any():
                raise RuntimeError(f"{model.name()}: BFS and predicate scan disagree")

    @cached_property
    def conj(self) -> np.ndarray:
        """The (k, N) int32 conjugations by the generators: row j, x -> e_j^-1
        x e_j = R_j(T(R_f^-1(T(x)))) for the partner f = e_j^T (module notes),
        written over the BFS's x -> x e_j a transpose pair at a time (np.take
        gathers these int32 indices faster than fancy indexing).  A ValueError
        when some e_j^T is not a generator."""
        right, t = self._right, self._transpose()
        partner = [self._gen_pos.get(x) for x in t.take(self.gen_idxs).tolist()]
        if None in partner:
            raise ValueError(f"{self.model.name()}: the transpose of generator "
                             f"{partner.index(None)} is not a generator")
        swap = np.empty((2, self.N), dtype=np.int32)  # T R_f^-1 T and T R_j^-1 T
        for j, f in enumerate(partner):
            if j <= f:
                swap[0][t.take(right[f])] = t  # T R_f^-1 T maps T(x f) to T(x)
                swap[1][t.take(right[j])] = t
                right[j] = right[j].take(swap[0])
                right[f] = right[f].take(swap[1]) if f != j else right[j]
        del self._right
        return right

    # -- construction ---------------------------------------------------------

    def _decode(self, row_keys: np.ndarray) -> np.ndarray:
        """The rows (one more trailing axis of n entries) of row keys."""
        return row_keys[..., None] // self._digit % self.m

    def _bfs(self, expected: int, gens: np.ndarray):
        """Breadth-first enumeration from the identity over the generators
        gens, as row keys, filling the key index.  Each level keeps the
        products not seen before, in order of first occurrence, so an
        element's index is its position in the scan of frontier x generator
        products.  The scan goes in chunks of at most CHUNK products, or CHUNK
        / 2 on the hash index, whose lookup holds a few temporaries per product.
        Also returns the (k, N) int32 array whose entry [j, x] is the index of
        x e_j.  A chunk's new elements are its tree edges' ends: each one's
        parent times the generator that reached it."""
        tables = self.row_tables(gens)
        k = len(tables)
        # weighted[i][v, j]: the key digits of row i of x e_j when row i of x has key v
        weighted = [(w * tables.T).view(np.uint64) for w in self._row_w.tolist()]
        rows = np.empty((expected, self.n), dtype=np.int32)  # filled chunk by chunk
        right = np.empty((k, expected), dtype=np.int32)
        rows[0] = self._digit  # the identity
        step = max(1, (CHUNK if isinstance(self._index, _DenseIndex) else CHUNK // 2) // k)
        lo, hi = 0, 1  # the frontier is [lo, hi); the elements found so far are [0, end)
        end = 1
        while lo < hi:
            for a in range(lo, hi, step):
                b = min(a + step, hi)
                # keys of x e_j at scan position (x - a) * k + j: one (b - a, k) gather per row
                keys = np.take(weighted[0], rows[a:b, 0], axis=0)
                for w, col in zip(weighted[1:], rows[a:b, 1:].T):
                    keys += np.take(w, col, axis=0)
                idx, born = self._index.add(keys.reshape(-1), end)
                del keys  # before this chunk's rows are gathered
                if (new := end + len(born)) > expected:
                    raise RuntimeError(f"{self.model.name()}: enumerated more elements, "
                                       f"order formula gives {expected}")
                right[:, a:b] = idx.reshape(-1, k).T
                parent, gen = np.divmod(born, k)
                rows[end:new] = tables[gen[:, None], np.take(rows, parent + a, axis=0)]
                del idx, born, parent, gen  # before the next chunk's products
                end = new
            lo, hi = hi, end
        if hi != expected:
            raise ShortEnumerationError(hi, expected, f"{self.model.name()}: enumerated {hi} "
                                        f"elements, order formula gives {expected}")
        return rows, right

    def _transpose(self) -> np.ndarray:
        """T[x], the index of x^T, an int32 array: row i of x is column i of
        x^T, so the key of x^T sums one digit table per row, looked up in
        stacks of CHUNK; a RuntimeError if some x^T is not an element."""
        n, m = self.n, self.m
        # digits[i, v]: the key digits of x^T from row i of x, when that row has key v
        digits = (self.row_vecs @ m ** (np.arange(n, dtype=np.int64)[:, None] * n + np.arange(n))).T
        t = np.empty(self.N, dtype=np.int32)
        for a in range(0, self.N, CHUNK):
            rows = self.rows[a:a + CHUNK]
            t[a:a + len(rows)] = self.lookup_keys(sum(d.take(r) for d, r in zip(digits, rows.T)))
        if (t < 0).any():
            raise RuntimeError(f"{self.model.name()}: the transpose of element "
                               f"{int(np.argmax(t < 0))} is not in the table")
        return t

    # -- lookup ---------------------------------------------------------------

    def lookup(self, mats: np.ndarray) -> np.ndarray:
        """Indices of a (..., n, n) stack of matrices; -1 where not an element."""
        return self.lookup_keys(matrix_keys(mats, self.m))

    def lookup_keys(self, keys: np.ndarray) -> np.ndarray:
        """Indices (int64) of the elements with these keys, in their shape;
        -1 where none."""
        return self._index.lookup(keys).astype(np.int64, copy=False)

    def mat(self, idx) -> np.ndarray:
        """The int64 matrix of an index, or the (k, n, n) stack of an index array."""
        return self.row_vecs[self.rows[idx]]

    # -- products -------------------------------------------------------------

    def row_tables(self, mats: np.ndarray) -> np.ndarray:
        """Row tables of a stack of k matrices g, shape (k, m**n): entry v is
        the row key of (row with key v) times g."""
        return self.model.mul(self.row_vecs, np.reshape(mats, (-1, self.n, self.n))) @ self._digit

    def product_keys(self, idx: np.ndarray, tables: np.ndarray) -> np.ndarray:
        """Keys of x g, shape (k, len(idx)), for the elements x in idx and
        the k matrices g whose row tables are given."""
        return tables[:, self.rows[idx]] @ self._row_w

    def right_mult(self, idx: np.ndarray, tables: np.ndarray) -> np.ndarray:
        """Indices of x g, an int32 array of shape (k, len(idx)), for the
        elements x in idx and the k elements g whose row tables are given:
        their product keys and one lookup."""
        keys = self.product_keys(np.asarray(idx, dtype=np.int64), tables)
        return self.lookup_keys(keys).astype(np.int32)

    def conj_perm(self, g_idx: int) -> np.ndarray:
        """Index permutation of x -> g^-1 x g for a generator g of the BFS,
        built with the table; a ValueError for any other element."""
        j = self._gen_pos.get(int(g_idx))
        if j is None:
            raise ValueError(f"{self.model.name()}: element {g_idx} is not an E generator")
        return self.conj[j]


class _DenseIndex:
    """The key index of a table with at most _SCAN_LIMIT possible keys:
    where[key] is the index of the element with that key, -1 for none."""

    def __init__(self, keyspace: int, identity: int):
        self.where = np.full(keyspace, -1, dtype=np.int32)
        self.where[identity] = 0

    def add(self, keys: np.ndarray, found: int):
        """The index of every product key, in scan order, and the scan
        positions of the new elements, which get indices found, found + 1,
        ... in scan order.  The first occurrence of each unseen key is the least
        scan rank `np.minimum.at` leaves in its slot of `where`."""
        keys = keys.view(np.int64)
        idx = self.where[keys]
        unseen = np.flatnonzero(idx < 0)
        fresh = keys[unseen]
        rank = np.arange(len(unseen), dtype=np.int32)
        self.where[fresh] = _INDEX_BOUND  # above every rank
        np.minimum.at(self.where, fresh, rank)
        first = self.where[fresh] == rank
        born = unseen[first]
        self.where[fresh[first]] = np.arange(found, found + len(born), dtype=np.int32)
        idx[unseen] = self.where[fresh]
        return idx, born

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """One gather; keys outside [0, len(where)) are not elements."""
        inside = (keys >= 0) & (keys < len(self.where))
        return np.where(inside, self.where.take(keys, mode="clip"), np.int64(-1))


class _HashIndex:
    """The key index of a larger table: keys[x], the key of element x (int32 if
    every key fits), head[s], the last element pushed onto slot s of 2**b for N
    of b bits, and next[x], the one pushed onto x's slot before x; -1 ends a chain."""

    def __init__(self, size: int, identity: int, keyspace: int):
        self.bits = size.bit_length()
        self.head = np.full(1 << self.bits, -1, dtype=np.int32)
        self.next = np.empty(size, dtype=np.int32)
        self.keys = np.full(size, identity, dtype=np.int32 if keyspace <= 2**31 else np.int64)
        self._push(0, 1)

    def add(self, keys: np.ndarray, found: int):
        """As `_DenseIndex.add`: the unseen products are deduplicated (`_dedupe`) and pushed."""
        idx = self.lookup(keys.view(np.int64))
        unseen = np.flatnonzero(idx < 0)
        _, first, where = _dedupe(keys[unseen])
        order = np.argsort(first)  # the new keys in scan order
        number = np.empty(len(order), dtype=np.int32)
        number[order] = np.arange(found, found + len(order), dtype=np.int32)
        idx[unseen] = number.take(where)
        born, stop = unseen.take(first.take(order)), found + len(order)
        self.keys[found:stop] = keys.take(born)
        self._push(found, stop)
        return idx, born

    def _push(self, start: int, stop: int):
        """Pushes the elements [start, stop) onto their chains in rounds: of those
        written to one slot of `head`, the one left there is pushed, the rest retry."""
        x = np.arange(start, stop, dtype=np.int32)
        slot = _slots(self.keys[start:stop], self.bits)
        while len(x):
            self.next[x] = self.head.take(slot)
            self.head[slot] = x
            left = self.head.take(slot) != x
            x, slot = x[left], slot[left]

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """int32 indices: walks the chain of each key's slot, one link for all
        unfinished keys at a time, comparing stored keys (-1 if on no chain)."""
        flat = keys.reshape(-1)
        node = self.head.take(_slots(flat, self.bits))
        live = node >= 0
        hit = (self.keys.take(node) == flat) & live  # node -1 reads the last key, masked
        idx = np.where(hit, node, np.int32(-1))
        at = np.flatnonzero(live ^ hit)  # the keys on a chain, not found yet
        node = node.take(at)
        while len(at):
            node = self.next.take(node)
            at, node = at[node >= 0], node[node >= 0]
            hit = self.keys.take(node) == flat.take(at)
            idx[at[hit]] = node[hit]
            at, node = at[~hit], node[~hit]
        return idx.reshape(keys.shape)


def _slots(keys: np.ndarray, bits: int) -> np.ndarray:
    """The slots of int keys among 2**bits: the top bits of key * 0x9E3779B97F4A7C15
    mod 2**64 (Fibonacci hashing; Knuth, TAOCP Vol. 3, 6.4)."""
    spread = keys.astype(np.int64, copy=False).view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return np.right_shift(spread, np.uint64(64 - bits), out=spread).view(np.int64)


def _dedupe(keys: np.ndarray):
    """np.unique(keys, return_index=True, return_inverse=True) of uint64 keys
    with key * len(keys) < 2**64, by one in-place sort of the composites
    key * len(keys) + position: the least composite of a key is its first
    occurrence.  Positions and ids are int32.  Consumes keys."""
    size = np.uint64(len(keys))
    keys *= size
    keys += np.arange(len(keys), dtype=np.uint32)
    keys.sort()
    pos = np.empty(len(keys), dtype=np.int32)
    np.remainder(keys, size, out=pos, casting="unsafe")
    keys //= size
    head = np.concatenate(([True], keys[1:] != keys[:-1]))[:len(keys)]  # the first of each run
    where = np.empty(len(keys), dtype=np.int32)
    where[pos] = np.cumsum(head, dtype=np.int32) - 1
    starts = np.flatnonzero(head)
    return keys[starts], pos[starts], where
