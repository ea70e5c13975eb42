"""Relative root systems obtained by projecting an absolute root system.

The projection kills the simple roots outside a chosen set J and identifies
the orbits of a diagram automorphism group Gamma acting on J.  The image of
the root set, minus zero, is the relative root system; it may be non-reduced
(BC type).  Fibers of the projection are stored eagerly as sets of root
tuples, the form `models` reads.

The checks run on a cached integer index of each relative system
(`RelativeRootSystem.index`): the relative roots as a `VectorIndex` with
their addition and negation tables, the label of every absolute root (the id
of its relative root, or -1 when it projects to 0), and the split table
split[s, a], true when every root over s is a root over a plus a root.
Fiber additivity for a pair (a, b) is split[a + b, a]; a sigma set is a
count of sign tests per label, run over the labels of the simply-laced
cover for a multiply-laced base; its properties are lookups in the addition
table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

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
    rel_roots: frozenset[Coords]
    fibers: dict[Coords, frozenset[Coords]] = field(repr=False)

    @property
    def rank(self) -> int:
        return len(self.orbits)

    def fiber(self, a: Coords) -> frozenset[Coords]:
        return self.fibers[a]

    @cached_property
    def index(self) -> RelativeIndex:
        return RelativeIndex(self)

    @cached_property
    def _cover(self) -> tuple[RootIndex, np.ndarray]:
        """For a multiply-laced base: the index of its simply-laced cover
        and the label of each cover root, the id of the relative root it
        lands on here through the fold and the projection (-1 for none).

        Exactly the relative roots must be hit, which is asserted.
        """
        if len(self.datum.gamma) != 1:
            raise ValueError("multiply-laced bases have no nontrivial diagram automorphisms")
        cover, cover_gamma, coord_perm = unfold(self.datum.base)
        # fold orbit t of the cover becomes simple root coord_perm[t] of the base
        to_base = np.zeros((self.datum.base.rank, cover.rank), dtype=np.int64)
        for t, orb in enumerate(_gamma_orbits(frozenset(range(cover.rank)), cover_gamma)):
            to_base[coord_perm[t], list(orb)] = 1
        image = cover.index.coords @ (self.index.proj @ to_base).T
        label = self.index.lookup(image)
        hit = set(label.tolist()) - {-1}
        if (label[image.any(axis=1)] < 0).any() or hit != set(range(len(self.index.coords))):
            raise RuntimeError("cover projection disagrees with the direct one")
        return cover.index, label


class RelativeIndex(VectorIndex):
    """The relative roots as a VectorIndex, tied to the index of the base.

    label[mu] is the id of the relative root under absolute root mu, or -1
    when mu projects to 0; simple lists the ids of the relative simple roots.
    """

    def __init__(self, rel: RelativeRootSystem):
        datum = rel.datum
        # A relative coordinate sums the absolute coefficients over one orbit.
        bound = COEFF_BOUND * max((len(orb) for orb in rel.orbits), default=1)
        super().__init__(f"{datum.base.rtype} relative to J={sorted(datum.J)}",
                         rel.rel_roots, rel.rank, bound)
        self.base = datum.base.index
        self.proj = np.array(rel.projection, dtype=np.int64).reshape(rel.rank, datum.base.rank)
        self.label = self.lookup(self.base.coords @ self.proj.T)
        self.simple = sorted(set(self.lookup(self.proj.T[sorted(datum.J)]).tolist()))

    @cached_property
    def split(self) -> np.ndarray:
        """split[s, a]: every root over s is a root over a plus a root."""
        over = self.label[:, None] == np.arange(len(self.coords))  # one-hot labels
        diff_ok = self.base.add[:, self.base.neg] >= 0  # root_mu - root_nu is a root
        partner = diff_ok @ over  # [mu, a]: some root over a leaves a root
        return ~(over.T @ ~partner)


def build_relative(datum: RelativeDatum) -> RelativeRootSystem:
    base = datum.base
    orbits = _gamma_orbits(datum.J, datum.gamma)
    proj = tuple(
        tuple(1 if i in orb else 0 for i in range(base.rank)) for orb in orbits
    )
    coords = base.index.coords
    image = coords @ np.array(proj, dtype=np.int64).reshape(len(orbits), base.rank).T
    fibers: dict[Coords, list[Coords]] = {}
    for mu, a in zip(map(tuple, coords.tolist()), map(tuple, image.tolist())):
        if any(a):
            fibers.setdefault(a, []).append(mu)
    return RelativeRootSystem(
        datum=datum,
        orbits=tuple(orbits),
        projection=proj,
        rel_roots=frozenset(fibers),
        fibers={a: frozenset(f) for a, f in fibers.items()},
    )


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


def _sigma_mask(rel: RelativeRootSystem, b: int, mode: str) -> np.ndarray:
    """Mask of the relative roots whose fibers pair nonnegatively (all of
    the fiber, or some of it) with the summed fiber of relative root id b.

    For a multiply-laced base the fibers are read on its simply-laced
    cover, each cover root labelled with the relative root it folds and
    projects onto."""
    idx = rel.index
    roots, label = (idx.base, idx.label) if rel.datum.base.is_simply_laced() else rel._cover
    n, coords, over = len(idx.coords), roots.coords, label >= 0
    # sign of (mu, fiber_sum) = sign of sum_i mu_i * 2(alpha_i, fiber_sum)
    form = roots.gram2 @ coords[label == b].sum(axis=0)
    hits = np.bincount(label[over & (coords @ form >= 0)], minlength=n)
    return hits == np.bincount(label[over], minlength=n) if mode == "all" else hits > 0


# Simply-laced covers of the multiply-laced families.  The automorphism
# listed generates the folding group on the cover's diagram (0-based).
def _unfold_recipe(rtype: RootSystemType) -> tuple[RootSystemType, Perm]:
    f, r = rtype.family, rtype.rank
    if f == "B":
        cover = RootSystemType("D", r + 1)
        p = list(range(r + 1))
        p[r - 1], p[r] = p[r], p[r - 1]
        return cover, tuple(p)
    if f == "C":
        cover = RootSystemType("A", 2 * r - 1)
        return cover, tuple(reversed(range(2 * r - 1)))
    if f == "F":
        cover = RootSystemType("E", 6)
        return cover, (5, 1, 4, 3, 2, 0)
    if f == "G":
        cover = RootSystemType("D", 4)
        return cover, (2, 1, 3, 0)
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


_UNFOLD_CACHE: dict[RootSystemType, tuple[RootSystem, tuple[Perm, ...], Perm]] = {}


def unfold(sys: RootSystem) -> tuple[RootSystem, tuple[Perm, ...], Perm]:
    """Simply-laced cover of a multiply-laced system.

    Returns (cover, gamma, coord_perm) where folding the cover by gamma
    reproduces sys, and coord_perm maps the fold's orbit coordinates onto
    the Bourbaki simple-root indices of sys.
    """
    if sys.rtype in _UNFOLD_CACHE:
        return _UNFOLD_CACHE[sys.rtype]
    cover_type, generator = _unfold_recipe(sys.rtype)
    cover = build_root_system(cover_type)
    gamma = _generated_group(generator)
    rel = fold(cover, gamma)
    p = match_coordinates(rel.rel_roots, sys)
    if p is None:
        raise RuntimeError(f"folding {cover_type} did not reproduce {sys.rtype}")
    _UNFOLD_CACHE[sys.rtype] = (cover, gamma, p)
    return _UNFOLD_CACHE[sys.rtype]


def _sigma_checks(idx: RelativeIndex, ib: int, inside: np.ndarray) -> dict[str, bool]:
    """The properties a sigma set must satisfy, each checked exhaustively,
    on the id of b and the mask of sigma."""
    sums = idx.add[np.ix_(inside, inside)]
    # a + b is not a root and not 0 (a = -b is excluded)
    required = (idx.add[:, ib] < 0) & (np.arange(len(idx.coords)) != idx.neg[ib])
    return {
        "additively_closed": bool(inside[sums[sums >= 0]].all()),
        "covers_with_negation": bool((inside | inside[idx.neg]).all()),
        "proper": not inside.all(),
        "contains_non_addable": bool(inside[required].all()),
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
    counts = {
        "adjacent_checked": 0, "adjacent_failed": 0,
        "fiber_checked": 0, "fiber_failed": 0,
        "sigma_checked": 0, "sigma_failed": 0,
        "sigma_forms_checked": 0, "sigma_forms_failed": 0,
        "gamma_invariance_failed": 0,
    }
    idx = rel.index
    for p in rel.datum.gamma:
        # project(p . mu) - project(mu) = mu @ (P[:, p] - P)^T
        moved = idx.base.coords @ (idx.proj[:, list(p)] - idx.proj).T
        counts["gamma_invariance_failed"] += int(moved.any(axis=1).sum())
    for ia in idx.simple:
        for ib in idx.simple:
            if ia != ib and idx.add[ia, ib] >= 0:
                counts["adjacent_checked"] += 1
                if not _adjacent_ok(idx, ia, ib):
                    counts["adjacent_failed"] += 1
    ia, ib = np.nonzero(idx.add >= 0)
    counts["fiber_checked"] = len(ia)
    counts["fiber_failed"] = int((~idx.split[idx.add[ia, ib], ia]).sum())
    for b in idx.simple:
        sigma = _sigma_mask(rel, b, "all")
        counts["sigma_checked"] += 1
        if not all(_sigma_checks(idx, b, sigma).values()):
            counts["sigma_failed"] += 1
        if rel.datum.base.is_simply_laced():
            counts["sigma_forms_checked"] += 1
            if not np.array_equal(sigma, _sigma_mask(rel, b, "some")):
                counts["sigma_forms_failed"] += 1
    return counts


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
