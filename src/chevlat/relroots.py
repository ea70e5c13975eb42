"""Relative root systems obtained by projecting an absolute root system.

The projection kills the simple roots outside a chosen set J and identifies
the orbits of a diagram automorphism group Gamma acting on J.  The image of
the root set, minus zero, is the relative root system; it may be non-reduced
(BC type).  `RelativeRootSystem.index` looks its roots up as a `VectorIndex`;
the roots and fibers as tuples, which `models` reads, are built from it.
A datum checks Gamma once per (base, Gamma) and its J on every construction.

The checks run on all data at once (`_Stack`), those of each base in one
run: one sort of keys `d * span + key` numbers the relative roots of every
datum d, and one sorted search answers the label, unit-vector, negation and
sum queries, the sums over the pairs a <= b of one datum only.  Fiber
additivity and the sigma sets are float32 products of a base's `diff` and
`pair2` with one-hot labels, one batch per run, exact below 2**24 (guarded).
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
    RootSystemType,
    VectorIndex,
    automorphism_subgroups,
    build_root_system,
    diagram_automorphisms,
    perm_compose,
    sorted_find,
)


def _gamma_orbits(indices: frozenset[int], gamma: tuple[Perm, ...]) -> list[tuple[int, ...]]:
    """Gamma-orbits of a set of simple-root indices, sorted by least member;
    gamma is a group (RelativeDatum checks it), so i's orbit is {p[i] for p in gamma}."""
    return sorted({tuple(sorted({p[i] for p in gamma})) for i in indices})


def _generated_group(gen: Perm) -> tuple[Perm, ...]:
    """The cyclic group generated by one permutation, sorted."""
    group = [tuple(range(len(gen)))]
    while (p := perm_compose(gen, group[-1])) != group[0]:
        group.append(p)
    return tuple(sorted(group))


@dataclass(frozen=True)
class RelativeDatum:
    base: RootSystem
    J: frozenset[int]
    gamma: tuple[Perm, ...]

    def __post_init__(self):
        gamma = tuple(sorted(set(self.gamma) | {tuple(range(self.base.rank))}))
        object.__setattr__(self, "gamma", _checked_group(self.base, gamma))
        if bad := [p for p in gamma if {p[i] for i in self.J} != self.J]:
            raise ValueError(f"J={sorted(self.J)} is not invariant under {bad[0]}")


@lru_cache(maxsize=None)
def _checked_group(base: RootSystem, gamma: tuple[Perm, ...]) -> tuple[Perm, ...]:
    """gamma, a group of diagram automorphisms of base; keyed by the base's value."""
    if bad := [p for p in gamma if p not in diagram_automorphisms(base)]:
        raise ValueError(f"{bad[0]} is not a diagram automorphism of {base.rtype}")
    if any(perm_compose(a, b) not in gamma for a in gamma for b in gamma):
        raise ValueError("gamma is not closed under composition")
    return gamma


@dataclass(frozen=True)
class RelativeRootSystem:
    datum: RelativeDatum
    orbits: tuple[tuple[int, ...], ...]

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
        datum, r = rel.datum, rel.datum.base.rank
        self.base = datum.base.index
        proj = np.array([[i in o for i in range(r)] for o in rel.orbits], dtype=bool).reshape(-1, r)
        image = self.base.coords @ proj.T
        over = image.any(axis=1)
        # A relative coordinate sums the absolute coefficients over one orbit.
        bound = COEFF_BOUND * max((len(orb) for orb in rel.orbits), default=1)
        super().__init__(f"{datum.base.rtype} relative to J={sorted(datum.J)}",
                         image[over], rel.rank, bound)
        self.label = np.where(over, sorted_find(self.keys, (image + bound) @ self.weights), -1)
        self.simple = sorted(set(sorted_find(self.keys, self.zero + self.weights).tolist()))


def build_relative(datum: RelativeDatum) -> RelativeRootSystem:
    return RelativeRootSystem(datum=datum, orbits=tuple(_gamma_orbits(datum.J, datum.gamma)))


# Simply-laced covers of the multiply-laced families.  The automorphism
# listed generates the folding group on the cover's diagram (0-based).
def _unfold_recipe(rtype: RootSystemType) -> tuple[RootSystemType, Perm]:
    f, r = rtype.family, rtype.rank
    if f not in "BCFG":
        raise ValueError(f"{rtype} is simply laced, nothing to unfold")
    cover, gen = {"B": (("D", r + 1), (*range(r - 1), r, r - 1)),  # swap the two end nodes
                  "C": (("A", 2 * r - 1), tuple(reversed(range(2 * r - 1)))),
                  "F": (("E", 6), (5, 1, 4, 3, 2, 0)), "G": (("D", 4), (2, 1, 3, 0))}[f]
    return RootSystemType(*cover), gen


def fold(simply_laced: RootSystem, gamma: tuple[Perm, ...]) -> RelativeRootSystem:
    """Relative root system of a simply-laced system under a diagram
    automorphism group acting on the full simple set."""
    if not simply_laced.is_simply_laced():
        raise ValueError("fold expects a simply-laced base")
    return build_relative(RelativeDatum(simply_laced, frozenset(range(simply_laced.rank)), gamma))


def match_coordinates(rel_roots: frozenset[Coords], target: RootSystem) -> Perm | None:
    """The first coordinate permutation p, in itertools order, identifying a relative root
    set with the root set of a target, if any: the keys of the images (p . v)[p[i]] = v[i] under
    every p are one search in the target's index; p matches if all are roots (same sizes)."""
    if len(rel_roots) != len(target.roots) or len(next(iter(rel_roots))) != target.rank:
        return None
    vecs, idx = np.array(list(rel_roots)), target.index
    perms = np.array(list(itertools.permutations(range(target.rank))))
    found = sorted_find(idx.keys, (vecs + idx.bound) @ idx.weights[perms].T) >= 0  # v_i at p[i]
    hit = found.all(axis=0) & (np.abs(vecs).max() <= idx.bound)  # no p maps v out of range
    return next((tuple(p) for p, ok in zip(perms.tolist(), hit) if ok), None)


@lru_cache(maxsize=None)
def _unfolded(rtype: RootSystemType) -> tuple[RootSystem, tuple[Perm, ...], Perm, np.ndarray]:
    """The simply-laced cover of the multiply-laced type rtype: (cover, gamma,
    coord_perm, folded), where folding the cover by gamma gives the system of
    type rtype, coord_perm maps the fold's orbit coordinates onto its Bourbaki
    simple-root indices and folded holds the cover's roots in those."""
    cover_type, generator = _unfold_recipe(rtype)
    cover = build_root_system(cover_type)
    gamma = _generated_group(generator)
    rel = fold(cover, gamma)
    p = match_coordinates(rel.rel_roots, build_root_system(rtype))
    if p is None:
        raise RuntimeError(f"folding {cover_type} did not reproduce {rtype}")
    # fold coordinate t becomes simple root p[t]; no cover root folds to 0
    return cover, gamma, p, rel.index.coords[rel.index.label][:, np.argsort(p)]


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


def _exact_in_float32(name: str, bound: int, terms: int):
    """A float32 sum of `terms` integers of size at most `bound` is exact below 2**24."""
    if bound * terms > 2 ** 24:
        raise ValueError(f"{name}: {terms} float32 terms of size {bound} could pass 2**24")


class _Stack:
    """D data in runs (base, cover, cover roots in base coordinates, lo, hi) of one base:
    datum d has the relative root ids start[d]:start[d+1], ordered as in its RelativeIndex;
    local[i] is id i's slot in it (-1 for id -1, no root).  label and cover hold the ids under each
    base and cover root (-1 past its run's roots), simple those of the unit vectors (-1 past the
    rank), neg those of -a, (pa, pb, ps) each root-sum pair of a datum, moved Gamma's failures."""

    def __init__(self, rels: list[RelativeRootSystem]):
        self.rels, bases = rels, [rel.datum.base for rel in rels]
        D, R = len(rels), max(base.rank for base in bases)
        cuts = [d for d in range(1, D) if bases[d] is not bases[d - 1]]
        self.runs = [(b, *((b, b.index.coords) if b.is_simply_laced() else
                           _unfolded(b.rtype)[::3]), lo, hi)
                     for lo, hi in zip([0, *cuts], [*cuts, D]) for b in [bases[lo]]]
        proj = np.zeros((D, R, R), dtype=np.int64)  # proj[d, t, i]: i in orbit t
        at = [(d, t, i) for d, rel in enumerate(rels) for t, o in enumerate(rel.orbits) for i in o]
        proj[tuple(np.array(at, dtype=np.int64).reshape(-1, 3).T)] = 1
        # a coordinate sums at most |orbit| coefficients, a sum of two twice that
        bound = 2 * COEFF_BOUND * max((len(orb) for rel in rels for orb in rel.orbits), default=1)
        weights, span, origin = _key_space(", ".join(str(run[0].rtype) for run in self.runs),
                                           R, bound, D)
        # the keys of every base (cover) root in every datum, that of 0 past its run's
        width = max(len(b.roots) for b, *_ in self.runs), max(len(f) for _, _, f, *_ in self.runs)
        key, cover_key = (np.repeat(origin[:, None], n, axis=1) for n in width)
        self.moved = np.zeros(D, dtype=np.int64)
        for base, _, folded, lo, hi in self.runs:
            w = weights @ proj[lo:hi, :, :base.rank]  # w[d, i]: the weight of simple root i
            key[lo:hi, :len(base.roots)] += w @ base.index.coords.T
            cover_key[lo:hi, :len(folded)] += w @ folded.T
            # project(p . mu) != project(mu), (p . mu)[p[i]] = mu[i], iff their keys differ
            g, perm = map(np.array, zip(*[(d - lo, p) for d in range(lo, hi)
                                          for p in rels[d].datum.gamma]))
            moves = np.take_along_axis(w[g], perm, axis=1) - w[g]
            self.moved[lo:hi] = np.bincount(g, (base.index.coords @ moves.T != 0).sum(0), hi - lo)
        keys = np.sort(key[key != origin[:, None]])
        keys = keys[np.diff(keys, prepend=-1) != 0]  # the first of each run; keys are >= 0
        self.start = keys.searchsorted(np.arange(D + 1) * span)
        self.dat = np.repeat(np.arange(D), np.diff(self.start))
        ids, own = np.arange(len(keys)), keys - origin[self.dat]  # own: key in the datum
        self.local = np.append(ids - self.start[self.dat], -1)
        self.first = np.cumsum(n := self.start[self.dat + 1] - ids) - n  # pairs a <= b, a-major
        a = np.repeat(ids, n)
        b = np.arange(len(a)) - np.repeat(self.first - ids, n)
        queries = [key, origin[:, None] + weights, cover_key, own[a] + keys[b],
                   origin[self.dat] - own]
        found = sorted_find(keys, np.concatenate([q.ravel() for q in queries]))
        self.label, self.simple, self.cover, self.sums, self.neg = (
            f.reshape(q.shape)
            for q, f in zip(queries, np.split(found, np.cumsum([q.size for q in queries])[:-1])))
        hit = np.flatnonzero(self.sums >= 0)
        a, b, ps, swap = a[hit], b[hit], self.sums[hit], a[hit] != b[hit]
        self.pa, self.pb, self.ps = (np.concatenate([x, y[swap]])
                                     for x, y in ((a, b), (b, a), (ps, ps)))
        if (self.cover[cover_key != origin[:, None]] < 0).any() or not np.bincount(
                self.cover.ravel() + 1, minlength=len(keys) + 1)[1:].all():
            raise RuntimeError("cover projection disagrees with the direct one")

    def add(self, x, y) -> np.ndarray:
        """The ids of x + y, for ids x, y of one datum."""
        return self.sums[self.first[np.minimum(x, y)] + np.abs(x - y)]

    def onehot(self, ids: np.ndarray, lo: int, hi: int, bound: int) -> np.ndarray:
        """over[d, mu, s] = 1 in float32 when root mu of datum lo + d lies over slot s (the
        last: no root), for products with a table of entries at most bound, to be exact."""
        _exact_in_float32(str(self.rels[lo].datum.base.rtype), bound, ids.shape[1])
        return np.eye(np.diff(self.start[lo:hi + 1]).max() + 1, dtype=np.float32)[self.local[ids]]

    def unsplit(self) -> np.ndarray:
        """unsplit[d, s, a] for slots of datum d: some root over s is not a root
        over a plus a root, read from the base's difference table."""
        out = np.zeros((len(self.rels),) + 2 * (np.diff(self.start).max() + 1,), dtype=bool)
        for base, _, _, lo, hi in self.runs:
            over = self.onehot(self.label[lo:hi, :len(base.roots)], lo, hi, 1)
            split = base.index.diff.astype(np.float32) @ over == 0
            out[lo:hi, :over.shape[2], :over.shape[2]] = over.transpose(0, 2, 1) @ split > 0
        return out

    def sigma_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """(T, R) masks of the sigma sets: root a is in that of its datum's unit
        vector j when all (some) of its fiber pairs nonnegatively with j's."""
        count = np.zeros(self.simple[self.dat].shape, dtype=np.float32)
        for base, cover, _, lo, hi in self.runs:
            pair2, rows = cover.index.pair2, slice(self.start[lo], self.start[hi])
            over = self.onehot(self.cover[lo:hi, :len(pair2)], lo, hi, np.abs(pair2).max())
            over_j = np.take_along_axis(over, self.local[self.simple[lo:hi]][:, None], axis=2)
            count[rows] = (over.transpose(0, 2, 1) @ (pair2.astype(np.float32) @ over_j >= 0))[
                self.dat[rows] - lo, self.local[rows]]
        fiber = np.bincount(self.cover.ravel() + 1, minlength=len(self.dat) + 1)[1:]
        return count == fiber[:, None], count > 0

    def sigma_checks(self, inside: np.ndarray) -> dict[str, np.ndarray]:
        """The properties a sigma set must satisfy, each checked exhaustively, on (T, R) masks
        of the sets of every unit vector: (D, R) verdicts (padded unit vectors read root 0)."""
        (D, R), a, b, s = self.simple.shape, self.pa, self.pb, self.ps
        m = inside @ (bits := 1 << np.arange(R))  # a row of a mask as the bits of one integer
        ids, simple = np.arange(len(self.dat))[:, None], np.maximum(self.simple[self.dat], 0)
        # a + b is not a root and not 0 (a = -b is excluded)
        required = ((self.add(ids, simple) < 0) & (ids != self.neg[simple])) @ bits
        return {
            "additively_closed": ~_flagged(self.dat[a], m[a] & m[b] & ~m[s], D, R),
            "covers_with_negation": ~_flagged(self.dat, ~(m | m[self.neg]), D, R),
            "proper": _flagged(self.dat, ~m, D, R),
            "contains_non_addable": ~_flagged(self.dat, required & ~m, D, R),
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


def _flagged(rows: np.ndarray, bits: np.ndarray, count: int, width: int) -> np.ndarray:
    """flag[d, j]: bit j < width of bits[i] is set for some i with rows[i] = d."""
    out, some = np.zeros(count, dtype=np.int64), np.flatnonzero(bits)
    np.bitwise_or.at(out, rows[some], bits[some])
    return (out[:, None] >> np.arange(width) & 1).astype(bool)


def check_datum(rels):
    """Run every combinatorial check a relative datum supports, on one relative system
    (giving its counters) or a list (a list), in one stacked pass, the data of each base
    in one run.  A nonzero failure count is a counterexample to a verified statement."""
    if isinstance(rels, RelativeRootSystem):
        return check_datum([rels])[0]
    if not rels:
        return []
    first: dict[int, int] = {}  # the first datum of each base object, whose run it starts
    ks = sorted(range(len(rels)), key=lambda k: first.setdefault(id(rels[k].datum.base), k))
    st = _Stack([rels[k] for k in ks])
    (D, r), valid = st.simple.shape, st.simple >= 0
    i, j = np.nonzero(~np.eye(r, dtype=bool))  # the distinct unit vectors with a root sum
    sa, sb = st.simple[:, i].ravel(), st.simple[:, j].ravel()
    keep = np.flatnonzero((sa >= 0) & (sb >= 0))
    keep = keep[st.add(sa[keep], sb[keep]) >= 0]
    sa, sb, ad = sa[keep], sb[keep], keep // (r * r - r)
    fd, (every, some) = st.dat[st.pa], st.sigma_masks()
    ok = reduce(np.logical_and, st.sigma_checks(every).values())
    laced = np.array([rel.datum.base.is_simply_laced() for rel in st.rels])
    counters = {
        "adjacent_checked": np.bincount(ad, minlength=D),
        "adjacent_failed": np.bincount(ad[~_chains_ok(st.add, sa, sb)], minlength=D),
        "fiber_checked": np.bincount(fd, minlength=D),
        "fiber_failed": np.bincount(fd[st.unsplit()[fd, st.local[st.ps], st.local[st.pa]]],
                                    minlength=D),
        "sigma_checked": valid.sum(axis=1),
        "sigma_failed": (valid & ~ok).sum(axis=1),
        "sigma_forms_checked": valid.sum(axis=1) * laced,
        "sigma_forms_failed": (valid & _flagged(st.dat, (every != some) @ (1 << np.arange(r)), D,
                                                r)).sum(axis=1) * laced,
        "gamma_invariance_failed": st.moved,
    }
    rows = dict(zip(ks, zip(*(count.tolist() for count in counters.values()))))
    return [dict(zip(counters, rows[k])) for k in range(len(rels))]


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
