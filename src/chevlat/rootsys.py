"""Irreducible crystallographic root systems in simple-root coordinates.

A root is an integer coordinate vector over the simple roots (Bourbaki
numbering).  The geometry lives in the doubled Gram matrix
2(alpha_i, alpha_j) = C_ij (alpha_j, alpha_j), an integer matrix because the
squared root lengths are integers (1, 2, 4 or 6), so pairings, Cartan
integers and sign tests are integer sums; there are no fractions and no
floats.  Reflection data comes straight from the Cartan matrix, which
makes root generation purely combinatorial.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

Coords = tuple[int, ...]
Perm = tuple[int, ...]

FAMILIES = "ABCDEFG"

# Rank cap 9, not 8: type A_9 is needed to unfold C_5, see relroots.unfold.
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

    def pairing2(self, u: Coords, v: Coords) -> int:
        """Doubled scalar product 2(u, v) of two root-lattice vectors, an integer."""
        total = 0
        for ui, row in zip(u, self.gram2):
            if ui:
                total += ui * sum(g * vj for g, vj in zip(row, v))
        return total

    def cartan_int(self, u: Coords, v: Coords) -> int:
        """Cartan integer <u, v^vee> = 2(u,v)/(v,v); v must be a root."""
        c, rem = divmod(2 * self.pairing2(u, v), self.pairing2(v, v))
        if rem:
            raise ValueError(f"<{u}, {v}^vee> is not an integer; is {v} a root?")
        return c

    def reflect(self, u: Coords, beta: Coords) -> Coords:
        """Reflection s_beta(u) = u - <u, beta^vee> beta."""
        c = self.cartan_int(u, beta)
        return tuple(ui - c * bi for ui, bi in zip(u, beta))

    def positive_roots(self) -> list[Coords]:
        return sorted(r for r in self.roots if is_positive(r))

    def highest_root(self) -> Coords:
        return max(self.positive_roots(), key=lambda v: (sum(v), v))


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

    def pair_sr(u: Coords, j: int) -> int:
        # <u, alpha_j^vee> directly from the Cartan matrix
        return sum(u[i] * C[i][j] for i in range(r))

    roots = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for v in frontier:
            for j in range(r):
                c = pair_sr(v, j)
                w = tuple(vi - (c if i == j else 0) for i, vi in enumerate(v))
                if w not in roots:
                    roots.add(w)
                    nxt.append(w)
        frontier = nxt
    roots |= {tuple(-c for c in v) for v in roots}

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


def root_sum(sys: RootSystem, a: Coords, b: Coords) -> Coords | None:
    """a + b if it is a root, else None."""
    if a not in sys.roots or b not in sys.roots:
        raise ValueError("arguments must be roots")
    s = tuple(x + y for x, y in zip(a, b))
    return s if s in sys.roots else None


def structure_constant_primes(sys: RootSystem) -> set[int]:
    """Primes among the structure constants of the commutator formulas."""
    f = sys.rtype.family
    if f in "BCF":
        return {2}
    if f == "G":
        return {2, 3}
    return set()


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


_AUTOS_CACHE: dict[RootSystemType, list[Perm]] = {}


def diagram_automorphisms(sys: RootSystem) -> list[Perm]:
    """All permutations of the simple roots preserving the Cartan matrix."""
    if sys.rtype in _AUTOS_CACHE:
        return list(_AUTOS_CACHE[sys.rtype])
    r = sys.rank
    C = sys.cartan
    autos = []
    for p in itertools.permutations(range(r)):
        ok = True
        for i in range(r):
            for j in range(r):
                if C[p[i]][p[j]] != C[i][j]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            autos.append(p)
    _AUTOS_CACHE[sys.rtype] = sorted(autos)
    return list(_AUTOS_CACHE[sys.rtype])


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
