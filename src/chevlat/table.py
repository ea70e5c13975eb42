"""Complete enumeration of a finite matrix group with indexed lookup.

Elements are stored as one (N, n, n) integer array.  A matrix is encoded as
a base-m integer key (n*n digits, which stays below 2**63 for m <= 9 and
n <= 4), and lookup is a binary search over the sorted key array, so batch
queries vectorize.  Conjugation by each elementary generator is cached as
an index permutation; subgroup and normal-closure computations in
lattice.py run entirely on indices.
"""

from __future__ import annotations

import numpy as np

from .errors import SizeCapError
from .models import GroupModel, order_formula

DEFAULT_CAP = 2_000_000
_SCAN_LIMIT = 400_000  # m**(n*n) bound for the brute-force predicate scan
_CHUNK = 8192  # matrices per kernel call; bounds the minor stacks of a 4x4 adjugate to ~25 MiB


class ElementTable:
    def __init__(self, model: GroupModel, cap: int = DEFAULT_CAP):
        self.model = model
        self.n = model.degree
        self.m = model.m
        expected = order_formula(model)
        if expected > cap:
            raise SizeCapError(expected, cap, model.name())

        self._powers = (self.m ** np.arange(self.n * self.n, dtype=np.int64))
        gen_mats = model.generator_mats()
        mats = self._bfs(gen_mats)
        if len(mats) != expected:
            raise RuntimeError(
                f"{model.name()}: enumerated {len(mats)} elements, order formula gives {expected}"
            )
        self.N = len(mats)
        self.mats = mats
        keys = self.encode(mats)
        self._order = np.argsort(keys).astype(np.int64)
        self._keys_sorted = keys[self._order]
        keyspace = self.m ** (self.n * self.n)
        self._dense = None
        if keyspace <= 50_000_000:
            # direct-address lookup; 0 marks a non-element
            self._dense = np.zeros(keyspace, dtype=np.int32)
            self._dense[keys] = np.arange(self.N, dtype=np.int32) + 1
        self.identity_idx = 0  # the BFS starts from the identity
        self.gen_idxs = self.lookup(np.stack(gen_mats))
        self.inv = self._all_inverses()
        self._conj_perms: dict[int, np.ndarray] = {}
        if self.m ** (self.n * self.n) <= _SCAN_LIMIT:
            scanned = self._predicate_scan()
            if not np.array_equal(np.sort(scanned), np.sort(keys)):
                raise RuntimeError(f"{model.name()}: BFS and predicate scan disagree")

    # -- construction ---------------------------------------------------------

    def encode(self, mats: np.ndarray) -> np.ndarray:
        flat = mats.reshape(-1, self.n * self.n).astype(np.int64)
        return flat @ self._powers

    def _bfs(self, gen_mats) -> np.ndarray:
        """Breadth-first enumeration from the identity.  Each level keeps
        the products not seen before, in order of first occurrence, so an
        element's index is its position in the scan of frontier x generator
        products."""
        n, m = self.n, self.m
        gens = np.stack([g % m for g in gen_mats]).astype(np.int64)
        frontier = np.eye(n, dtype=np.int64)[None, :, :]
        levels = [frontier]
        seen = self.encode(frontier)  # sorted
        while len(frontier):
            prods = ((frontier[:, None, :, :] @ gens[None, :, :, :]) % m).reshape(-1, n, n)
            keys, first = np.unique(self.encode(prods), return_index=True)
            pos = np.minimum(np.searchsorted(seen, keys), len(seen) - 1)
            fresh = seen[pos] != keys
            frontier = prods[np.sort(first[fresh])]
            levels.append(frontier)
            seen = np.sort(np.concatenate([seen, keys[fresh]]))
        return np.concatenate(levels).astype(np.int16)

    def _predicate_scan(self) -> np.ndarray:
        n, m = self.n, self.m
        nums = np.arange(m ** (n * n), dtype=np.int64)
        good = [self.model.is_element((c[:, None] // self._powers % m).reshape(-1, n, n))
                for c in _chunks(nums)]
        return nums[np.concatenate(good)]

    def _all_inverses(self) -> np.ndarray:
        idx = np.concatenate([self.lookup(self.model.inverse(c)) for c in _chunks(self.mats)])
        assert (idx >= 0).all()
        return idx

    # -- lookup ---------------------------------------------------------------

    @property
    def powers(self) -> np.ndarray:
        return self._powers

    def lookup(self, mats: np.ndarray) -> np.ndarray:
        """Indices of a batch of matrices; -1 where not an element."""
        mats = np.asarray(mats, dtype=np.int64) % self.m
        return self.lookup_keys(self.encode(mats))

    def lookup_keys(self, keys: np.ndarray) -> np.ndarray:
        if self._dense is not None:
            return self._dense[keys].astype(np.int64) - 1
        pos = np.searchsorted(self._keys_sorted, keys)
        pos_c = np.minimum(pos, self.N - 1)
        found = self._keys_sorted[pos_c] == keys
        return np.where(found, self._order[pos_c], -1)

    def lookup_one(self, mat: np.ndarray) -> int | None:
        r = int(self.lookup(np.asarray(mat)[None, :, :])[0])
        return None if r < 0 else r

    def mat(self, idx: int) -> np.ndarray:
        return self.mats[idx].astype(np.int64)

    # -- cached permutation actions -------------------------------------------

    def conj_perm(self, gen_idx: int) -> np.ndarray:
        """Index permutation of x -> g^-1 x g for a fixed generator g."""
        gen_idx = int(gen_idx)
        if gen_idx not in self._conj_perms:
            g = self.mat(gen_idx)
            ginv = self.mat(int(self.inv[gen_idx]))
            perm = self.lookup(ginv @ self.mats.astype(np.int64) @ g)
            assert (perm >= 0).all()
            self._conj_perms[gen_idx] = perm
        return self._conj_perms[gen_idx]

    def egen_conj_perms(self) -> list[np.ndarray]:
        return [self.conj_perm(i) for i in self.gen_idxs.tolist()]


def _chunks(a: np.ndarray) -> list[np.ndarray]:
    return np.split(a, range(_CHUNK, len(a), _CHUNK))
