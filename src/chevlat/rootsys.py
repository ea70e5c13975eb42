"""Irreducible crystallographic root systems in simple-root coordinates.

A root is an integer coordinate vector over the simple roots (Bourbaki
numbering).  The geometry lives in the doubled Gram matrix
2(alpha_i, alpha_j) = C_ij (alpha_j, alpha_j), an integer matrix because the
squared root lengths are integers (1, 2, 4 or 6), so pairings, Cartan
integers and sign tests are integer sums; there are no fractions and no
floats.  Reflection data comes straight from the Cartan matrix, which
makes root generation purely combinatorial.

Each system is indexed once (`RootSystem.index`): an (N, r) int64 array of
its roots in sorted order, a sorted-key lookup from coordinate vectors to
root ids, the addition table add[i, j] (the id of root_i + root_j, or -1),
the negation map and the doubled Gram as an array.  Checks over all roots
or all pairs of roots are integer array operations on that index.  Diagram
automorphisms are found by backtracking over the Cartan matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

Coords = tuple[int, ...]
Perm = tuple[int, ...]

FAMILIES = "ABCDEFG"

# Largest |coefficient| of a root over the simple roots in any irreducible
# system: the highest root of E8 has coefficient 6.  It sizes the key digits.
COEFF_BOUND = 6

# Rank cap 9, not 8: type A_9 is needed to unfold C_5, see relroots._unfolded.
_RANK_RANGE = {
    "A": (1, 9),
    "B": (2, 9),
    "C": (2, 9),
    "D": (3, 9),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


@dataclass(frozen=True)
class RootSystemType:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        lo, hi = _RANK_RANGE[self.family]
        if not lo <= self.rank <= hi:
            raise ValueError(
                f"rank {self.rank} out of range [{lo}, {hi}] for family {self.family}"
            )

    def __str__(self):
        return f"{self.family}{self.rank}"


def classical_root_count(rtype: RootSystemType) -> int:
    f, r = rtype.family, rtype.rank
    if f == "A":
        return r * (r + 1)
    if f in "BC":
        return 2 * r * r
    if f == "D":
        return 2 * r * (r - 1)
    if f == "E":
        return {6: 72, 7: 126, 8: 240}[r]
    if f == "F":
        return 48
    return 12  # G2


def _chain_edges(r: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(r - 1)]


def _edges(family: str, r: int) -> list[tuple[int, int]]:
    if family in "ABCFG":
        return _chain_edges(r)
    if family == "D":
        return _chain_edges(r - 1) + [(r - 3, r - 1)]
    # E_r, Bourbaki: chain 1-3-4-5-..., node 2 hangs off node 4.
    edges = [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, r - 1)]
    return edges


def _cartan_and_lengths(family: str, r: int) -> tuple[list[list[int]], list[int]]:
    """Cartan matrix C[i][j] = <alpha_i, alpha_j^vee> and squared lengths."""
    C = [[2 if i == j else 0 for j in range(r)] for i in range(r)]
    for i, j in _edges(family, r):
        C[i][j] = C[j][i] = -1
    if family == "B":
        C[r - 2][r - 1] = -2  # alpha_{r} is the short root
        lengths = [2] * (r - 1) + [1]
    elif family == "C":
        C[r - 1][r - 2] = -2  # alpha_{r} is the long root
        lengths = [2] * (r - 1) + [4]
    elif family == "F":
        C[1][2] = -2
        lengths = [2, 2, 1, 1]
    elif family == "G":
        C[1][0] = -3
        lengths = [2, 6]
    else:
        lengths = [2] * r
    for i in range(r):
        for j in range(r):
            assert C[i][j] * lengths[j] == C[j][i] * lengths[i]
    return C, lengths


def sorted_find(keys: np.ndarray, queries, ids=None) -> np.ndarray:
    """For sorted keys: the position of each query among them, or ids at
    that position, -1 where the query is absent."""
    if not len(keys):
        return np.full(np.shape(queries), -1, dtype=np.int64)
    pos = np.minimum(keys.searchsorted(queries), len(keys) - 1)
    return np.where(keys[pos] == queries, pos if ids is None else ids[pos], -1)


class VectorIndex:
    """Ids of a set of integer vectors, with their addition and negation.

    The vectors (repeats allowed) are stored once each, as an (N, width)
    int64 array in sorted order.  A vector's key reads its coordinates,
    shifted by `bound`, as the digits of a base-(2*bound + 1) number, first
    coordinate most significant, so sorted vectors have increasing keys and
    an id is a binary search.  add[i, j] is the id of vector i + vector j
    and neg[i] the id of -vector i, -1 where the result is not in the set.
    """

    def __init__(self, name: str, vectors, width: int, bound: int):
        base = 2 * bound + 1
        if base ** width > 2 ** 63:
            raise ValueError(
                f"{name}: base-{base} keys of {width} coordinates could pass 2**63"
            )
        coords = np.asarray(vectors, dtype=np.int64).reshape(len(vectors), width)
        top = int(np.abs(coords).max()) if coords.size else 0
        if top > bound:
            raise ValueError(f"{name}: coordinate {top} outside the key digit range "
                             f"[-{bound}, {bound}]")
        self.bound = bound
        self.weights = base ** np.arange(width - 1, -1, -1, dtype=np.int64)
        keys = (coords + bound) @ self.weights
        order = keys.argsort()
        keys = keys[order]
        first = np.ones(len(keys), dtype=bool)  # the first of each run of equal keys
        first[1:] = keys[1:] != keys[:-1]
        self.coords, self.keys = coords[order[first]], keys[first]
        # key(v + w) = key(v) + key(w) - key(0) (int64 wrapping cancels) where v + w
        # is inside the digit range, which it leaves only if a |coordinate| > bound / 2
        self.zero, ct = bound * int(self.weights.sum()), self.coords.T  # zero: key of 0
        inside = 2 * top <= bound or (np.abs(ct[:, :, None] + ct[:, None]) <= bound).all(axis=0)
        self.add = np.where(inside, sorted_find(self.keys, self.keys[:, None] + self.keys[None]
                                                - self.zero), -1)
        self.neg = sorted_find(self.keys, 2 * self.zero - self.keys)

    def lookup(self, vecs: np.ndarray) -> np.ndarray:
        """Ids of the vectors along the last axis of vecs, -1 where absent."""
        # the weights are positive: in range means the out-of-range coordinates
        # weigh 0, one product (a reduction over a short last axis is slow); a
        # key out of range is meaningless (it may even wrap)
        found = sorted_find(self.keys, (vecs + self.bound) @ self.weights)
        return np.where((np.abs(vecs) > self.bound) @ self.weights == 0, found, -1)


@dataclass(frozen=True)
class RootSystem:
    rtype: RootSystemType
    simple_roots: tuple[Coords, ...]
    roots: frozenset[Coords]
    cartan: tuple[tuple[int, ...], ...]
    gram2: tuple[tuple[int, ...], ...] = field(repr=False)  # doubled Gram, 2(alpha_i, alpha_j)

    @property
    def rank(self) -> int:
        return self.rtype.rank

    def is_simply_laced(self) -> bool:
        return self.rtype.family in "ADE"

    @cached_property
    def index(self) -> RootIndex:
        return RootIndex(self)


class RootIndex(VectorIndex):
    """The roots of a system as a VectorIndex, with the doubled Gram array."""

    def __init__(self, sys: RootSystem):
        super().__init__(str(sys.rtype), list(sys.roots), sys.rank, COEFF_BOUND)
        self.gram2 = np.array(sys.gram2, dtype=np.int64)

    @cached_property
    def pair2(self) -> np.ndarray:
        """pair2[i, j] = 2(root_i, root_j)."""
        return self.coords @ self.gram2 @ self.coords.T

    @cached_property
    def diff(self) -> np.ndarray:
        """diff[i, j]: root_i - root_j is a root."""
        return self.add[:, self.neg] >= 0


def is_positive(coords: Coords) -> bool:
    return any(coords) and all(c >= 0 for c in coords)


@lru_cache(maxsize=None)
def build_root_system(rtype: RootSystemType) -> RootSystem:
    """Construct the full root system by closing the simple roots under
    simple reflections."""
    r = rtype.rank
    C, lengths = _cartan_and_lengths(rtype.family, r)
    simple = tuple(tuple(1 if j == i else 0 for j in range(r)) for i in range(r))
    gram2 = tuple(tuple(C[i][j] * lengths[j] for j in range(r)) for i in range(r))

    # close the simple roots under s_j(v) = v - <v, alpha_j^vee> alpha_j: a
    # frontier's images, deduplicated by a sort of their keys, less those known
    cartan, eye = np.array(C, dtype=np.int64), np.eye(r, dtype=np.int64)
    weights = (2 * COEFF_BOUND + 1) ** np.arange(r, dtype=np.int64)
    found, known, frontier = [], np.empty(0, dtype=np.int64), eye
    while len(frontier):
        found.append(frontier)
        known = np.sort(np.concatenate([known, (frontier + COEFF_BOUND) @ weights]))
        images = (frontier[:, None] - (frontier @ cartan)[:, :, None] * eye).reshape(-1, r)
        keys = (images + COEFF_BOUND) @ weights
        order = keys.argsort()
        images, keys = images[order], keys[order]
        fresh = np.diff(keys, prepend=-1) != 0  # keys are nonnegative
        fresh &= sorted_find(known, keys) < 0
        frontier = images[fresh]
    roots = set(map(tuple, np.concatenate(found).tolist()))  # s_j(alpha_j) = -alpha_j

    expected = classical_root_count(rtype)
    if len(roots) != expected:
        raise RuntimeError(
            f"{rtype}: generated {len(roots)} roots, expected {expected}"
        )
    sys = RootSystem(
        rtype=rtype,
        simple_roots=simple,
        roots=frozenset(roots),
        cartan=tuple(tuple(row) for row in C),
        gram2=gram2,
    )
    return sys


def structure_constant_primes(sys: RootSystem) -> set[int]:
    """Primes among the structure constants of the commutator formulas."""
    f = sys.rtype.family
    if f in "BCF":
        return {2}
    if f == "G":
        return {2, 3}
    return set()


def check_root_system(sys: RootSystem) -> tuple[bool, dict]:
    """The verdict and witness of one root system: the classical root count,
    stability under every reflection, and every diagram automorphism
    permuting the roots and keeping the pairing.  All in integer arithmetic:
    s_b(a) = a - <a, b^vee> b with <a, b^vee> = 2 * 2(a, b) / 2(b, b); a
    ValueError when a Cartan value is not an integer."""
    idx = sys.index
    roots, gram2 = idx.coords, idx.gram2
    count_ok = len(sys.roots) == classical_root_count(sys.rtype)
    twice, norm2 = 2 * idx.pair2, idx.pair2.diagonal()
    if (twice % norm2).any():
        raise ValueError(f"{sys.rtype}: a Cartan value <a, b^vee> is not an integer")
    cartan = twice // norm2
    reflected = roots[:, None] - cartan[:, :, None] * roots[None]
    stable = bool((idx.lookup(reflected) >= 0).all())
    autos = diagram_automorphisms(sys)
    # p permutes the roots and keeps the pairing iff it keeps the Gram
    preserve = all(
        (idx.lookup(roots[:, list(perm_inverse(p))]) >= 0).all()
        and (gram2[list(p)][:, list(p)] == gram2).all()
        for p in autos
    )
    witness = {"roots": len(sys.roots), "automorphisms": len(autos),
               "structure_primes": sorted(structure_constant_primes(sys))}
    return count_ok and stable and preserve, witness


def perm_on_root(perm: Perm, coords: Coords) -> Coords:
    """Action of a simple-root permutation on a root-lattice vector."""
    out = [0] * len(coords)
    for i, c in enumerate(coords):
        out[perm[i]] = c
    return tuple(out)


def perm_compose(p: Perm, q: Perm) -> Perm:
    """p after q."""
    return tuple(p[q[i]] for i in range(len(p)))


def perm_inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, pi in enumerate(p):
        out[pi] = i
    return tuple(out)


def diagram_automorphisms(sys: RootSystem) -> list[Perm]:
    """All permutations of the simple roots preserving the Cartan matrix,
    in sorted order."""
    return list(_cartan_automorphisms(sys.cartan))


@lru_cache(maxsize=None)
def _cartan_automorphisms(C: tuple[tuple[int, ...], ...]) -> tuple[Perm, ...]:
    """The automorphisms of a Cartan matrix, by backtracking: node k is
    sent to an unused node v only when the Cartan entries between v and the
    images of nodes 0..k-1 equal those between k and nodes 0..k-1, so every
    partial map is a partial automorphism, and when the rows of k and v hold
    the same entries (an automorphism permutes each row), which cuts dead
    branches early.
    """
    r = len(C)
    row_entries = [sorted(row) for row in C]
    autos = []

    def extend(p: list[int]) -> None:
        k = len(p)
        if k == r:
            autos.append(tuple(p))
            return
        for v in range(r):
            if v not in p and row_entries[v] == row_entries[k] and all(
                C[v][p[j]] == C[k][j] and C[p[j]][v] == C[j][k] for j in range(k)
            ):
                extend(p + [v])

    extend([])
    return tuple(autos)


def automorphism_subgroups(autos: list[Perm]) -> list[tuple[Perm, ...]]:
    """All subgroups of a (small) diagram automorphism group."""
    rank = len(autos[0])
    identity = tuple(range(rank))
    groups = set()
    for size in range(len(autos) + 1):
        for subset in itertools.combinations(autos, size):
            elems = set(subset) | {identity}
            closed = all(
                perm_compose(a, b) in elems and perm_inverse(a) in elems
                for a in elems
                for b in elems
            )
            if closed:
                groups.add(tuple(sorted(elems)))
    return sorted(groups, key=lambda g: (len(g), g))
