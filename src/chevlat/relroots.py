"""Relative root systems obtained by projecting an absolute root system.

The projection kills the simple roots outside a chosen set J and identifies
the orbits of a diagram automorphism group Gamma acting on J.  The image of
the root set, minus zero, is the relative root system; it may be non-reduced
(BC type).  `RelativeRootSystem.index` looks its roots up as a `VectorIndex`;
the roots and fibers as tuples, which `models` reads, are built from it.

The checks run on all data of one base at once (`_Stack`): one sort of keys
`d * span + key` numbers the relative roots of every datum d, and one sorted
search answers the label, unit-vector, negation and sum queries, the sums
over the pairs of one datum only.  Fiber additivity and the sigma sets are
products of `diff` and `pair2` with one-hot labels, batched in float32 over
slots padded to the largest datum (exact: a product sums at most 240 integers
of size at most 12); every reduction reads real slots only.
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
    """Gamma-orbits of a set of simple-root indices, sorted by least member;
    gamma is a group (RelativeDatum checks it), so i's orbit is {p[i] for p in gamma}."""
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
        gamma = tuple(sorted(set(self.gamma) | {tuple(range(self.base.rank))}))
        object.__setattr__(self, "gamma", gamma)
        autos = set(diagram_automorphisms(self.base))
        if bad := [p for p in gamma if p not in autos]:
            raise ValueError(f"{bad[0]} is not a diagram automorphism of {self.base.rtype}")
        if any(perm_compose(a, b) not in gamma for a in gamma for b in gamma):
            raise ValueError("gamma is not closed under composition")
        if bad := [p for p in gamma if {p[i] for i in self.J} != set(self.J)]:
            raise ValueError(f"J={sorted(self.J)} is not invariant under {bad[0]}")


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
        return {tuple(a): frozenset(map(tuple, idx.base.coords[idx.label == i].tolist()))
                for i, a in enumerate(idx.coords.tolist())}

    def fiber(self, a: Coords) -> frozenset[Coords]:
        return self.fibers[a]

    @cached_property
    def index(self) -> RelativeIndex:
        return RelativeIndex(self)


class RelativeIndex(VectorIndex):
    """The relative roots as a VectorIndex, tied to the index of the base:
    label[mu] is the id of the relative root under root mu (-1 over 0), and
    simple the ids of the relative simple roots, the unit vectors, one per orbit."""

    def __init__(self, rel: RelativeRootSystem):
        datum = rel.datum
        self.base = datum.base.index
        proj = np.array(rel.projection, dtype=np.int64).reshape(rel.rank, datum.base.rank)
        image = self.base.coords @ proj.T
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
    return next((p for p in itertools.permutations(range(k))
                 if {perm_on_root(p, v) for v in rel_roots} == target.roots), None)


@lru_cache(maxsize=None)
def _unfolded(rtype: RootSystemType) -> tuple[RootSystem, tuple[Perm, ...], Perm, np.ndarray]:
    """The simply-laced cover of the multiply-laced type rtype: (cover, gamma,
    coord_perm, folded), where folding the cover by gamma gives the system of
    type rtype, coord_perm maps the fold's orbit coordinates onto its Bourbaki
    simple-root indices and folded holds the cover's roots in those."""
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


def _invariant_subsets(rank: int, gamma) -> list[frozenset[int]]:
    subsets = map(frozenset, itertools.chain.from_iterable(
        itertools.combinations(range(rank), size) for size in range(rank + 1)))
    return [j for j in subsets if all({p[i] for i in j} == j for p in gamma)]


def sweep_data(max_rank: int = 5) -> list[RelativeDatum]:
    """All (base, J, Gamma) with rank <= max_rank, J Gamma-invariant, plus the
    reversal-folded E6 configurations.  Every subgroup of the diagram
    automorphism group is enumerated, so D4 comes with its full triality."""
    bases = [build_root_system(RootSystemType(f, r)) for f, lo, hi in (
        ("A", 1, 9), ("B", 2, 9), ("C", 2, 9), ("D", 3, 9), ("F", 4, 4), ("G", 2, 2))
        for r in range(lo, min(hi, max_rank) + 1)]
    data = [RelativeDatum(base, jset, gamma) for base in bases
            for gamma in automorphism_subgroups(diagram_automorphisms(base))
            for jset in _invariant_subsets(base.rank, gamma)]
    e6, rev = build_root_system(RootSystemType("E", 6)), (5, 1, 4, 3, 2, 0)
    return data + [RelativeDatum(e6, jset, (rev,)) for jset in _invariant_subsets(6, [rev])]


def _key_space(name: str, rank: int, bound: int, count: int) -> tuple[np.ndarray, int, np.ndarray]:
    """(weights, span, origin): v in datum d of `count` stacked data, |v| <= bound, has key
    origin[d] + v @ weights = d * span + (v + bound) read as base-(2*bound + 1) digits."""
    digits = 2 * bound + 1
    if count * digits ** rank > 2 ** 63:
        raise ValueError(f"{name}: {count} stacked data of base-{digits} keys of {rank} "
                         "coordinates could pass 2**63")
    weights = digits ** np.arange(rank - 1, -1, -1, dtype=np.int64)
    return weights, digits ** rank, np.arange(count) * digits ** rank + bound * int(weights.sum())


class _Stack:
    """D data on one base: datum d has the relative root ids start[d]:start[d+1],
    ordered as in its RelativeIndex; local[i] is id i's slot in it (-1 for
    id -1, no root).  label and cover hold the ids under each base and cover
    root, simple those of the unit vectors (-1 past the rank), neg those of -a,
    and (pa, pb, ps) every pair of one datum whose sum ps is a root."""

    def __init__(self, rels: list[RelativeRootSystem]):
        self.rels, base = rels, rels[0].datum.base
        idx, r, D = base.index, base.rank, len(rels)
        self.proj = np.zeros((D, r, r), dtype=np.int64)  # zero rows past the rank
        for d, rel in enumerate(rels):
            if rel.rank:
                self.proj[d, :rel.rank] = rel.projection
        cover, folded = base, idx.coords
        if not base.is_simply_laced():
            cover, *_, folded = _unfolded(base.rtype)
        self.pair2 = cover.index.pair2.astype(np.float32)
        image, cover_image = (x @ self.proj.transpose(0, 2, 1) for x in (idx.coords, folded))
        # twice the largest |coordinate|: a sum of two images keeps its digits
        bound = 2 * max(int(np.abs(image).max(initial=1)), int(np.abs(cover_image).max(initial=1)))
        weights, span, origin = _key_space(str(base.rtype), r, bound, D)
        key = origin[:, None] + image @ weights
        keys = np.sort(key[image.any(axis=2)])
        keys = keys[np.diff(keys, prepend=-1) != 0]  # the first of each run; keys are >= 0
        self.start = keys.searchsorted(np.arange(D + 1) * span)
        self.dat = np.repeat(np.arange(D), np.diff(self.start))
        self.local = np.append(np.arange(len(keys)) - self.start[self.dat], -1)
        n, own = np.diff(self.start)[self.dat], keys - origin[self.dat]  # own: key in the datum
        self.first = np.cumsum(n) - n  # the pair (a, first root of a's datum), a-major
        a = np.repeat(np.arange(len(keys)), n)
        b = np.arange(len(a)) - np.repeat(self.first - self.start[self.dat], n)
        queries = [key, origin[:, None] + weights, origin[:, None] + cover_image @ weights,
                   own[a] + keys[b], origin[self.dat] - own]
        found = sorted_find(keys, np.concatenate([q.ravel() for q in queries]))
        self.label, self.simple, self.cover, self.sums, self.neg = (
            f.reshape(q.shape)
            for q, f in zip(queries, np.split(found, np.cumsum([q.size for q in queries])[:-1])))
        self.pa, self.pb, self.ps = a[self.sums >= 0], b[self.sums >= 0], self.sums[self.sums >= 0]
        if (self.cover[cover_image.any(axis=2)] < 0).any() or not np.bincount(
                self.cover.ravel() + 1, minlength=len(keys) + 1)[1:].all():
            raise RuntimeError("cover projection disagrees with the direct one")

    def add(self, x, y) -> np.ndarray:
        """The ids of x + y, for ids x, y of one datum."""
        return self.sums[self.first[x] + self.local[y]]

    def onehot(self, ids: np.ndarray) -> np.ndarray:
        """over[..., mu, s] = 1 when root mu lies over slot s, in float32."""
        slots = np.arange(np.diff(self.start).max(initial=0))
        return (self.local[ids][..., None] == slots).astype(np.float32)

    def unsplit(self) -> np.ndarray:
        """unsplit[d, s, a] for slots of datum d: some root over s is not a root
        over a plus a root, read from the base's difference table."""
        over = self.onehot(self.label)
        return over.transpose(0, 2, 1) @ (self.rels[0].datum.base.index.diff @ over == 0) > 0

    def sigma_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """(T, r) masks of the sigma sets: root a is in that of its datum's unit
        vector j when all (some) of its fiber pairs nonnegatively with j's."""
        over, lab = self.onehot(self.cover), self.local[self.cover]
        over_j = (lab[..., None] == self.local[self.simple][:, None]).astype(np.float32)
        count = over.transpose(0, 2, 1) @ (self.pair2 @ over_j >= 0)
        at = self.dat, self.local[:-1]
        return (count == over.sum(axis=1)[..., None])[at], (count > 0)[at]

    def sigma_checks(self, inside: np.ndarray) -> dict[str, np.ndarray]:
        """The properties a sigma set must satisfy, each checked exhaustively, on
        (T, r) masks of the sets of every unit vector: (D, r) verdicts."""
        D, a, b, s = len(self.rels), self.pa, self.pb, self.ps
        ids, simple = np.arange(len(self.dat))[:, None], self.simple[self.dat]
        # a + b is not a root and not 0 (a = -b is excluded)
        required = (self.add(ids, simple) < 0) & (ids != self.neg[simple])
        return {
            "additively_closed": ~_flagged(self.dat[a], inside[a] & inside[b] & ~inside[s], D),
            "covers_with_negation": ~_flagged(self.dat, ~(inside | inside[self.neg]), D),
            "proper": _flagged(self.dat, ~inside, D),
            "contains_non_addable": ~_flagged(self.dat, required & ~inside, D),
        }


def _chains_ok(add, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """For simple relative roots a, b (id arrays) with a + b a root: a + j*b is
    a root for every j with j*b one, walking the chains b, 2b = add(b, b), ..."""
    ok, live, jb = np.ones(len(ia), dtype=bool), np.arange(len(ia)), np.asarray(ib)
    while live.size:
        ok[live[add(ia[live], jb) < 0]] = False
        jb = add(jb, ib[live])
        live, jb = live[jb >= 0], jb[jb >= 0]
    return ok


def _flagged(rows: np.ndarray, bad: np.ndarray, count: int) -> np.ndarray:
    """flag[d, j]: bad[i, j] for some i with rows[i] = d."""
    (i, j), width = bad.nonzero(), bad.shape[1]
    return np.bincount(rows[i] * width + j, minlength=count * width).reshape(count, width) > 0


def check_datum(rels):
    """Run every combinatorial check a relative datum supports, on one relative
    system (giving its counters) or a list (a list), in one stacked pass per
    base.  A nonzero failure count is a counterexample to a verified statement."""
    if isinstance(rels, RelativeRootSystem):
        return check_datum([rels])[0]
    stacks: dict[RootSystem, list[int]] = {}
    for k, rel in enumerate(rels):
        stacks.setdefault(rel.datum.base, []).append(k)
    out = [{}] * len(rels)
    for ks in stacks.values():
        st = _Stack([rels[k] for k in ks])
        (D, r), base, valid = st.simple.shape, st.rels[0].datum.base, st.simple >= 0
        # project(p . mu) - project(mu) for every p in gamma, (p . mu)[p[i]] = mu[i]
        gd, perm = map(np.array, zip(*[(d, p) for d, rel in enumerate(st.rels)
                                       for p in rel.datum.gamma]))
        coords = base.index.coords
        moved = st.proj[gd] @ (coords[:, perm.argsort(axis=1)] - coords[:, None]).transpose(1, 2, 0)
        i, j = np.nonzero(~np.eye(r, dtype=bool))  # the distinct unit vectors with a root sum
        sa, sb = st.simple[:, i].ravel(), st.simple[:, j].ravel()
        keep = np.flatnonzero((sa >= 0) & (sb >= 0))
        keep = keep[st.add(sa[keep], sb[keep]) >= 0]
        sa, sb, ad = sa[keep], sb[keep], keep // (r * r - r)
        fd, (every, some), laced = st.dat[st.pa], st.sigma_masks(), base.is_simply_laced()
        ok = reduce(np.logical_and, st.sigma_checks(every).values())
        counters = {
            "adjacent_checked": np.bincount(ad, minlength=D),
            "adjacent_failed": np.bincount(ad[~_chains_ok(st.add, sa, sb)], minlength=D),
            "fiber_checked": np.bincount(fd, minlength=D),
            "fiber_failed": np.bincount(fd[st.unsplit()[fd, st.local[st.ps], st.local[st.pa]]],
                                        minlength=D),
            "sigma_checked": valid.sum(axis=1),
            "sigma_failed": (valid & ~ok).sum(axis=1),
            "sigma_forms_checked": valid.sum(axis=1) * laced,
            "sigma_forms_failed": (valid & _flagged(st.dat, every != some, D)).sum(axis=1) * laced,
            "gamma_invariance_failed": np.bincount(gd, moved.any(axis=1).sum(axis=1), D),
        }
        for k, row in zip(ks, zip(*counters.values())):
            out[k] = dict(zip(counters, map(int, row)))
    return out


def sweep_totals(max_rank: int = 5) -> dict[str, int]:
    """The check_datum counters summed over sweep_data(max_rank)."""
    counts = check_datum([build_relative(datum) for datum in sweep_data(max_rank)])
    return {k: sum(c[k] for c in counts) for k in counts[0]}


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
