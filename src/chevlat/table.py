"""Complete enumeration of a finite matrix group with indexed lookup.

Each element is stored by its n row keys: row i of a matrix, read as a
base-m number (`rows`, an (N, n) int64 array).  The element's key is the
row keys read as base m**n digits, the same as the matrix read as n*n
base-m digits, which stays below 2**63 for m <= 9 and n <= 4.  Lookup is
one binary search of the sorted queries over the sorted element keys.

Every product of table elements goes through one kernel resting on
row_i(x g) = row_i(x) g: a row table of g, with one entry per possible row
(m**n of them), maps a row key to the row key of that row times g, so the
keys of all x g for a batch of x and a set of g are one gather and one
weighted sum, with no matrix products over the table.  Conjugation by an
element is cached as an index permutation built from right multiplication
by it; subgroup and normal-closure computations in lattice.py run
entirely on indices.

When there are at most _SCAN_LIMIT n x n matrices over Z/m, the BFS is
cross-checked against the predicate scan of all of them
(`models.elements_on` with every entry supported).
"""

from __future__ import annotations

import numpy as np

from .errors import SizeCapError
from .models import GroupModel, _chunks, elements_on, order_formula

DEFAULT_CAP = 2_000_000
_SCAN_LIMIT = 400_000  # m**(n*n) bound for the brute-force predicate scan


class ElementTable:
    def __init__(self, model: GroupModel, cap: int = DEFAULT_CAP):
        self.model = model
        self.n = n = model.degree
        self.m = m = model.m
        expected = order_formula(model)
        if expected > cap:
            raise SizeCapError(expected, cap, model.name())

        self._digit = m ** np.arange(n, dtype=np.int64)  # entry weights in a row key
        self._row_w = (m ** n) ** np.arange(n, dtype=np.int64)  # row-key weights in a key
        self._row_vecs = self._decode(np.arange(m ** n, dtype=np.int64))  # every row, by key
        gen_mats = model.generator_mats()
        rows = self._bfs(gen_mats)
        if len(rows) != expected:
            raise RuntimeError(
                f"{model.name()}: enumerated {len(rows)} elements, order formula gives {expected}"
            )
        self.N = len(rows)
        self.rows = rows
        self.mats = self._decode(rows).astype(np.int16)
        keys = rows @ self._row_w
        self._order = np.argsort(keys).astype(np.int64)
        self._keys_sorted = keys[self._order]
        self.identity_idx = 0  # the BFS starts from the identity
        self.gen_idxs = self.lookup(np.stack(gen_mats))
        self.inv = self._all_inverses()
        self._conj_perms: dict[int, np.ndarray] = {}
        if m ** (n * n) <= _SCAN_LIMIT:
            scanned = self.encode(elements_on(model, np.ones((n, n), dtype=bool)))
            if not np.array_equal(np.sort(scanned), self._keys_sorted):
                raise RuntimeError(f"{model.name()}: BFS and predicate scan disagree")

    # -- construction ---------------------------------------------------------

    def encode(self, mats: np.ndarray) -> np.ndarray:
        return (mats.astype(np.int64) @ self._digit).reshape(-1, self.n) @ self._row_w

    def _decode(self, row_keys: np.ndarray) -> np.ndarray:
        """The rows (one more trailing axis of n entries) of row keys."""
        return row_keys[..., None] // self._digit % self.m

    def _bfs(self, gen_mats) -> np.ndarray:
        """Breadth-first enumeration from the identity, as row keys.  Each
        level keeps the products not seen before, in order of first
        occurrence, so an element's index is its position in the scan of
        frontier x generator products."""
        n = self.n
        tables = self.row_tables(np.stack(gen_mats))
        frontier = self._digit[None, :]  # the identity's rows
        levels = [frontier]
        seen = frontier @ self._row_w  # sorted
        while len(frontier):
            prods = tables[:, frontier].transpose(1, 0, 2).reshape(-1, n)
            keys, first = np.unique(prods @ self._row_w, return_index=True)
            pos = np.minimum(np.searchsorted(seen, keys), len(seen) - 1)
            fresh = seen[pos] != keys
            frontier = prods[np.sort(first[fresh])]
            levels.append(frontier)
            seen = np.sort(np.concatenate([seen, keys[fresh]]))
        return np.concatenate(levels)

    def _all_inverses(self) -> np.ndarray:
        idx = np.concatenate([self.lookup(self.model.inverse(c)) for c in _chunks(self.mats)])
        assert (idx >= 0).all()
        return idx

    # -- lookup ---------------------------------------------------------------

    def lookup(self, mats: np.ndarray) -> np.ndarray:
        """Indices of a batch of matrices; -1 where not an element."""
        mats = np.asarray(mats, dtype=np.int64) % self.m
        return self.lookup_keys(self.encode(mats))

    def lookup_keys(self, keys: np.ndarray) -> np.ndarray:
        """Indices of the elements with these keys, in their shape; -1 where
        none.  The queries are searched in sorted order, which keeps the
        binary search cache-friendly on large tables."""
        flat = keys.ravel()
        sort = np.argsort(flat)
        pos = np.minimum(np.searchsorted(self._keys_sorted, flat[sort]), self.N - 1)
        idx = np.empty(flat.size, dtype=np.int64)
        idx[sort] = np.where(self._keys_sorted[pos] == flat[sort], self._order[pos], -1)
        return idx.reshape(keys.shape)

    def mat(self, idx: int) -> np.ndarray:
        return self.mats[idx].astype(np.int64)

    # -- the product kernel ---------------------------------------------------

    def row_tables(self, mats: np.ndarray) -> np.ndarray:
        """Row tables of a stack of k matrices g, shape (k, m**n): entry v is
        the row key of (row with key v) times g."""
        g = np.asarray(mats, dtype=np.int64).reshape(-1, self.n, self.n)
        return (self._row_vecs @ g) % self.m @ self._digit

    def product_keys(self, idx: np.ndarray, tables: np.ndarray) -> np.ndarray:
        """Keys of x g, shape (k, len(idx)), for the elements x in idx and
        the k matrices g whose row tables are given."""
        return tables[:, self.rows[idx]] @ self._row_w

    def conj_perm(self, g_idx: int) -> np.ndarray:
        """Index permutation of x -> g^-1 x g.  With R the right
        multiplication by g, x -> x^-1 g -> g^-1 x -> g^-1 x g."""
        g_idx = int(g_idx)
        if g_idx not in self._conj_perms:
            keys = self.product_keys(np.arange(self.N), self.row_tables(self.mats[g_idx]))
            right = self.lookup_keys(keys[0])
            assert (right >= 0).all()
            inv = self.inv
            self._conj_perms[g_idx] = right[inv[right[inv]]]
        return self._conj_perms[g_idx]

    def egen_conj_perms(self) -> list[np.ndarray]:
        return [self.conj_perm(i) for i in self.gen_idxs.tolist()]
