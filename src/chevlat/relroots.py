"""Relative root systems obtained by projecting an absolute root system.

The projection kills the simple roots outside a chosen set J and identifies
the orbits of a diagram automorphism group Gamma acting on J.  The image of
the root set, minus zero, is the relative root system; it may be non-reduced
(BC type).  Its roots and fibers as tuples, the form `models` reads, are
built on first use from the index.

The checks run on a cached integer index of each relative system
(`RelativeRootSystem.index`): the image of the base's roots, sorted by key
with repeats and zero dropped, as a `VectorIndex`, and the label of every
absolute root (its relative root's id, or -1 when it projects to 0).  The
rest comes from tables built once per base object: `pair2`, the difference
table `diff` and, for a multiply-laced base, its simply-laced cover's roots
folded into its coordinates.  Fiber additivity is `diff` summed over one-hot
labels; the sigma sets of all simple roots are one product of `pair2` with
them, and their properties are reductions over (simple root, root, root).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .rootsys import (
    COEFF_BOUND,
    Coords,
    Perm,
    RootSystem,
    RootIndex,
    RootSystemType,
    VectorIndex,
    automorphism_subgroups,
    build_root_system,
    diagram_automorphisms,
    perm_compose,
    perm_on_root,
    sorted_find,
)


def _gamma_orbits(indices: frozenset[int], gamma: tuple[Perm, ...]) -> list[tuple[int, ...]]:
    """Gamma-orbits of a set of simple-root indices, sorted by least member.

    gamma is a group (RelativeDatum checks it), so the orbit of i is
    {p[i] for p in gamma}.
    """
    return sorted({tuple(sorted({p[i] for p in gamma})) for i in indices})


def _generated_group(gen: Perm) -> tuple[Perm, ...]:
    """The cyclic group generated by one permutation, sorted."""
    group, p = [tuple(range(len(gen)))], gen
    while p != group[0]:
        group.append(p)
        p = perm_compose(gen, p)
    return tuple(sorted(group))


@dataclass(frozen=True)
class RelativeDatum:
    base: RootSystem
    J: frozenset[int]
    gamma: tuple[Perm, ...]

    def __post_init__(self):
        rank = self.base.rank
        identity = tuple(range(rank))
        gamma = tuple(sorted(set(self.gamma) | {identity}))
        object.__setattr__(self, "gamma", gamma)
        autos = set(diagram_automorphisms(self.base))
        for p in gamma:
            if p not in autos:
                raise ValueError(f"{p} is not a diagram automorphism of {self.base.rtype}")
        for a in gamma:
            for b in gamma:
                if perm_compose(a, b) not in gamma:
                    raise ValueError("gamma is not closed under composition")
        for p in gamma:
            if {p[i] for i in self.J} != set(self.J):
                raise ValueError(f"J={sorted(self.J)} is not invariant under {p}")


@dataclass(frozen=True)
class RelativeRootSystem:
    datum: RelativeDatum
    orbits: tuple[tuple[int, ...], ...]
    projection: tuple[tuple[int, ...], ...]  # k x rank integer matrix

    @property
    def rank(self) -> int:
        return len(self.orbits)

    @cached_property
    def rel_roots(self) -> frozenset[Coords]:
        return frozenset(map(tuple, self.index.coords.tolist()))

    @cached_property
    def fibers(self) -> dict[Coords, frozenset[Coords]]:
        idx = self.index
        fibers: list[list[Coords]] = [[] for _ in idx.coords]
        for mu, a in zip(map(tuple, idx.base.coords.tolist()), idx.label.tolist()):
            if a >= 0:
                fibers[a].append(mu)
        return {tuple(a): frozenset(f) for a, f in zip(idx.coords.tolist(), fibers)}

    def fiber(self, a: Coords) -> frozenset[Coords]:
        return self.fibers[a]

    @cached_property
    def index(self) -> RelativeIndex:
        return RelativeIndex(self)


class RelativeIndex(VectorIndex):
    """The relative roots as a VectorIndex, tied to the index of the base.

    label[mu] is the id of the relative root under root mu (-1 over 0), and
    simple the ids of the relative simple roots: the unit vectors, one per orbit.
    """

    def __init__(self, rel: RelativeRootSystem):
        datum = rel.datum
        self.base = datum.base.index
        self.proj = np.array(rel.projection, dtype=np.int64).reshape(rel.rank, datum.base.rank)
        image = self.base.coords @ self.proj.T
        over = image.any(axis=1)
        # A relative coordinate sums the absolute coefficients over one orbit.
        bound = COEFF_BOUND * max((len(orb) for orb in rel.orbits), default=1)
        super().__init__(f"{datum.base.rtype} relative to J={sorted(datum.J)}",
                         image[over], rel.rank, bound)
        self.label = np.where(over, sorted_find(self.keys, (image + bound) @ self.weights), -1)
        self.simple = sorted(set(sorted_find(self.keys, self.zero + self.weights).tolist()))


def build_relative(datum: RelativeDatum) -> RelativeRootSystem:
    orbits = _gamma_orbits(datum.J, datum.gamma)
    proj = tuple(tuple(int(i in orb) for i in range(datum.base.rank)) for orb in orbits)
    return RelativeRootSystem(datum=datum, orbits=tuple(orbits), projection=proj)


def _adjacent_ok(idx: RelativeIndex, ia: int, ib: int) -> bool:
    """For simple relative root ids ia, ib with a + b a relative root: a + j*b
    is a relative root for every j with j*b a relative root, walking the
    addition table from jb = b through (j+1)b = add[jb, b]."""
    jb = ib
    while jb >= 0:
        if idx.add[ia, jb] < 0:
            return False
        jb = idx.add[jb, ib]
    return True


def _onehot(label: np.ndarray, n: int) -> np.ndarray:
    """over[mu, a] = 1.0 when root mu lies over a.  Products with it sum at
    most 240 integers of size at most 12 in float64, so they are exact."""
    return (label[:, None] == np.arange(n)).astype(np.float64)


def _unsplit(idx: RelativeIndex) -> np.ndarray:
    """unsplit[s, a]: some root over s is not a root over a plus a root,
    read from the base's difference table and the one-hot labels."""
    over = _onehot(idx.label, len(idx.coords))
    return over.T @ (idx.base.diff @ over == 0) > 0


def _sigma_masks(rel: RelativeRootSystem) -> tuple[np.ndarray, np.ndarray]:
    """The sigma sets of all simple relative roots b, as (len(simple), n)
    masks of the relative roots whose fibers pair nonnegatively with the
    summed fiber of b: all of the fiber, and some of it.  One product
    pair2 @ onehot pairs every root with every summed fiber; a second counts
    the nonnegative signs per label.  For a multiply-laced base the fibers
    are read on its simply-laced cover, each cover root labelled with the
    relative root it folds and projects onto, all of which must be hit."""
    idx = rel.index
    roots, label = idx.base, idx.label
    if not rel.datum.base.is_simply_laced():
        cover, *_, folded = _unfolded(rel.datum.base.rtype)
        roots = cover.index
        image = folded @ idx.proj.T
        label = idx.lookup(image)
        if (label[image.any(axis=1)] < 0).any() or not np.bincount(
                label + 1, minlength=len(idx.coords) + 1)[1:].all():
            raise RuntimeError("cover projection disagrees with the direct one")
    over = _onehot(label, len(idx.coords))
    count = over.T @ (roots.pair2 @ over[:, idx.simple] >= 0)
    return (count == over.sum(axis=0)[:, None]).T, (count > 0).T


# Simply-laced covers of the multiply-laced families.  The automorphism
# listed generates the folding group on the cover's diagram (0-based).
def _unfold_recipe(rtype: RootSystemType) -> tuple[RootSystemType, Perm]:
    f, r = rtype.family, rtype.rank
    if f == "B":  # swap the two end nodes of D_{r+1}
        return RootSystemType("D", r + 1), (*range(r - 1), r, r - 1)
    if f == "C":
        return RootSystemType("A", 2 * r - 1), tuple(reversed(range(2 * r - 1)))
    if f == "F":
        return RootSystemType("E", 6), (5, 1, 4, 3, 2, 0)
    if f == "G":
        return RootSystemType("D", 4), (2, 1, 3, 0)
    raise ValueError(f"{rtype} is simply laced, nothing to unfold")


def fold(simply_laced: RootSystem, gamma: tuple[Perm, ...]) -> RelativeRootSystem:
    """Relative root system of a simply-laced system under a diagram
    automorphism group acting on the full simple set."""
    if not simply_laced.is_simply_laced():
        raise ValueError("fold expects a simply-laced base")
    datum = RelativeDatum(simply_laced, frozenset(range(simply_laced.rank)), gamma)
    return build_relative(datum)


def match_coordinates(rel_roots: frozenset[Coords], target: RootSystem) -> Perm | None:
    """A coordinate permutation identifying a relative root set with the
    root set of a target system, if one exists."""
    k = target.rank
    if not rel_roots or len(next(iter(rel_roots))) != k:
        return None
    for p in itertools.permutations(range(k)):
        mapped = {perm_on_root(p, v) for v in rel_roots}
        if mapped == target.roots:
            return p
    return None


@lru_cache(maxsize=None)
def _unfolded(rtype: RootSystemType) -> tuple[RootSystem, tuple[Perm, ...], Perm, np.ndarray]:
    """The simply-laced cover of the multiply-laced type rtype: (cover,
    gamma, coord_perm, folded), where folding the cover by gamma reproduces
    the system of type rtype, coord_perm maps the fold's orbit coordinates
    onto its Bourbaki simple-root indices, and folded holds the cover's
    roots in those simple-root coordinates."""
    cover_type, generator = _unfold_recipe(rtype)
    cover = build_root_system(cover_type)
    gamma = _generated_group(generator)
    p = match_coordinates(fold(cover, gamma).rel_roots, build_root_system(rtype))
    if p is None:
        raise RuntimeError(f"folding {cover_type} did not reproduce {rtype}")
    # fold orbit t of the cover becomes simple root p[t]
    to_base = np.zeros((rtype.rank, cover.rank), dtype=np.int64)
    for t, orb in enumerate(_gamma_orbits(frozenset(range(cover.rank)), gamma)):
        to_base[p[t], list(orb)] = 1
    return cover, gamma, p, cover.index.coords @ to_base.T


def _sigma_checks(idx: RelativeIndex, ids, inside: np.ndarray) -> dict[str, np.ndarray]:
    """The properties a sigma set must satisfy, each checked exhaustively,
    for the relative roots b with the given ids and the (len(ids), n) masks
    of their sigma sets: one verdict per b and property."""
    add = idx.add
    ia, ib = (add >= 0).nonzero()
    escapes = inside[:, ia] & inside[:, ib] & ~inside[:, add[ia, ib]]
    # a + b is not a root and not 0 (a = -b is excluded)
    required = (add[:, ids] < 0).T & (np.arange(len(idx.coords)) != idx.neg[ids][:, None])
    return {
        "additively_closed": ~escapes.any(axis=1),
        "covers_with_negation": (inside | inside[:, idx.neg]).all(axis=1),
        "proper": ~inside.all(axis=1),
        "contains_non_addable": (inside | ~required).all(axis=1),
    }


def _invariant_subsets(rank: int, gamma) -> list[frozenset[int]]:
    out = []
    for size in range(rank + 1):
        for j in itertools.combinations(range(rank), size):
            jset = frozenset(j)
            if all({p[i] for i in jset} == jset for p in gamma):
                out.append(jset)
    return out


def sweep_data(max_rank: int = 5) -> list[RelativeDatum]:
    """All (base, J, Gamma) with rank <= max_rank, plus the reversal-folded
    E6 configurations; J restricted to Gamma-invariant sets.

    The rank <= 5 sweep already covers D4 with its full triality group,
    since every subgroup of the diagram automorphism group is enumerated.
    """
    types = []
    for family, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3), ("F", 4), ("G", 2)):
        for r in range(lo, max_rank + 1):
            try:
                types.append(RootSystemType(family, r))
            except ValueError:
                pass
    data = []
    for rtype in types:
        base = build_root_system(rtype)
        for gamma in automorphism_subgroups(diagram_automorphisms(base)):
            for jset in _invariant_subsets(base.rank, gamma):
                data.append(RelativeDatum(base, jset, gamma))
    e6 = build_root_system(RootSystemType("E", 6))
    rev = (5, 1, 4, 3, 2, 0)
    for jset in _invariant_subsets(6, [rev]):
        data.append(RelativeDatum(e6, jset, (rev,)))
    return data


def check_datum(rel: RelativeRootSystem) -> dict[str, int]:
    """Run every combinatorial check a single relative datum supports.

    Returns counters; a nonzero failure count is a counterexample to one of
    the verified statements.
    """
    idx = rel.index
    # project(p . mu) - project(mu) = (P[:, p] - P) mu, for every p in gamma
    gamma = np.array(rel.datum.gamma)
    moved = (idx.proj[:, gamma] - idx.proj[:, None]).transpose(1, 0, 2) @ idx.base.coords.T
    adjacent = [pair for pair in itertools.permutations(idx.simple, 2) if idx.add[pair] >= 0]
    ia, ib = (idx.add >= 0).nonzero()
    every, some = _sigma_masks(rel)
    sigma_ok = reduce(np.logical_and, _sigma_checks(idx, idx.simple, every).values())
    laced = rel.datum.base.is_simply_laced()
    return {
        "adjacent_checked": len(adjacent),
        "adjacent_failed": sum(not _adjacent_ok(idx, *pair) for pair in adjacent),
        "fiber_checked": len(ia),
        "fiber_failed": int(np.count_nonzero(_unsplit(idx)[idx.add[ia, ib], ia])),
        "sigma_checked": len(idx.simple),
        "sigma_failed": int(np.count_nonzero(~sigma_ok)),
        "sigma_forms_checked": len(idx.simple) if laced else 0,
        "sigma_forms_failed": int(np.count_nonzero((every != some).any(axis=1))) if laced else 0,
        "gamma_invariance_failed": int(np.count_nonzero(moved.any(axis=1))),
    }


def sweep_totals(max_rank: int = 5) -> dict[str, int]:
    """The check_datum counters summed over sweep_data(max_rank)."""
    totals: dict[str, int] = {}
    for datum in sweep_data(max_rank):
        for k, v in check_datum(build_relative(datum)).items():
            totals[k] = totals.get(k, 0) + v
    return totals


# Foldings of simply laced systems: (base type, folded type, a diagram
# automorphism generating Gamma).
FOLDS = (
    (("A", 3), ("C", 2), (2, 1, 0)),
    (("A", 5), ("C", 3), (4, 3, 2, 1, 0)),
    (("D", 5), ("B", 4), (0, 1, 2, 4, 3)),
    (("D", 4), ("G", 2), (2, 1, 3, 0)),
    (("E", 6), ("F", 4), (5, 1, 4, 3, 2, 0)),
)


def fold_matches(base: tuple[str, int], target: tuple[str, int], gen: Perm) -> bool:
    """Whether folding the base system by the group Gamma generated by gen
    gives the target system, up to a permutation of coordinates."""
    rel = fold(build_root_system(RootSystemType(*base)), _generated_group(gen))
    return match_coordinates(rel.rel_roots, build_root_system(RootSystemType(*target))) is not None
