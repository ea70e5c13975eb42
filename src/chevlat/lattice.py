"""Subgroup lattice computations and the theorem-level verifications.

Every subgroup built here is normalized by E(R), so it is a union of
E-orbits, and a `Subgroup` is its orbit mask: one boolean per orbit, with
orbit ids and sizes shared by every subgroup of the table.  A subset that
is not a union of orbits cannot be represented.

One engine builds subgroups, `normal_closure`: a batched BFS on a bitset
over the element table, from {1} under right multiplication by one seed s
and conjugation by each E generator.  Its fixed point is closed under right
multiplication by every conjugate of s, x s^g = (x^(g^-1) s)^g, so it is
cl(s), the E-normal subgroup s generates.  Products come from
`ElementTable.right_mult` on the seed's row table, built once per call,
conjugates from one gather of the table's (k, N) conjugation array per
chunk; each frontier is deduplicated by one sort and an adjacent-difference
mask.  E(R) is not closed again: the table's BFS is the closure of {1}
under the E generators.  For the same reason a BFS ends once every E
generator is a member: the subgroup is E(R) = G(R), the whole table.

Each element table has one registry of certified E-normal closures, shared
by every context (parabolic, sibling) built on it.  It holds the E-orbits
and the orbit closure cl(r) of each orbit computed so far, and it builds
every other closure from them:

* cl(r), the normal closure of r under E, is `normal_closure` of r.
* Elements x of cl(r) are probed for an orbit closure K that is already
  known and contains r.  Then cl(r) = K: K = cl(x) <= cl(r) because cl(r)
  is E-normal and contains x, and cl(r) <= K because K is E-normal and
  contains r.  The probe runs before any BFS on the commutators [r, e] with
  the E generators e, which an E-normal cl(r) contains; they are computed
  once per registry for every orbit representative, in one stacked product
  and one lookup.  Only when none settles cl(r) does its BFS start, and
  the probe then sees each new frontier.
* The join of two E-normal subgroups A and B is the product set AB.  Take
  x in A and y = g^-1 r g in B, r the representative of y's orbit: x y is
  conjugate to (g x g^-1) r, and AB is E-normal.  So the orbits of AB are
  those of A and those hit by the products of A's elements with the
  representatives of B's orbits outside A.  No BFS runs, and the order
  certifies the mask: |AB| |A cap B| = |A| |B|.
* A fresh BFS bitset is certified once, and its mask, read at the orbit
  representatives, is kept as the subgroup: a bitset holding every E
  generator is the whole group, any other must equal its mask expanded
  through the orbit ids.  The registry keeps one object per mask, so equal
  closures and joins, the whole group among them, are one object; a join
  that is not an inclusion is formed each time it is asked for and
  certified back to it.
* The closure of a seed set (E(R,q), commutator subgroups) is the join of
  the orbit closures of the seeds' orbits, each distinct closure object
  once: many orbits share one, and joining it again changes nothing.
* An E-normal N is the normal closure of the orbit representatives in its
  mask, and E(R) = G(R), so [N, E(R)] is the normal closure of their
  commutators with the E generators ([N, G] is the normal closure of the
  [s, t] when N is the normal closure of S and G = <T>), read from the
  registry's commutators of every representative.  The center is normal
  too, so cl(rep) is central exactly when rep is.

The bounds take an ideal q = (d) as its generator d | m and are normal in
G(R) = E(R), so each is decided on the orbit representatives' matrices.
G(R,q) keeps r = 1 mod d; C(R,q) keeps r when g^-1 r g = r mod d for every
E generator g, read through g's conjugation permutation; the center is
C(R,q) of d = m.  That is the preimage of the center of G(R/q), with no
table of G(R/q), because the image of G(R) has N / |G(R,q)| elements, the
order of G(R/q).

The sandwich classification checks, for one seed per conjugation orbit,
which ideals q satisfy E(R,q) <= closure <= C(R,q); on a model satisfying
the main hypotheses exactly one ideal must pass.  Many orbits share one
closure, so the ideals of a closure's sandwich and its level report are
computed once per closure, not once per orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import calculus
from .models import (
    GroupModel,
    gauss_cell_factors,
    hypothesis_check,
    order_formula,
    scheme_center_elements,
)
from .rings import divisors, factorize, jacobson_radical
from .table import CHUNK, DEFAULT_CAP, ElementTable, matrix_keys

Vec = tuple[int, ...]


class EOrbits(NamedTuple):
    """The E-orbits of an element table: the orbit id of every element, the
    least member of each orbit (its representative) and the orbit sizes."""
    ids: np.ndarray
    reps: list[int]
    sizes: np.ndarray


class Subgroup:
    """An E-normal subgroup as the union of the E-orbits its mask marks,
    never written after construction.  Its bitset over the table, `member`,
    is derived on each read."""

    def __init__(self, orbits: EOrbits, mask: np.ndarray):
        self.orbits = orbits
        self.mask = mask

    @property
    def order(self) -> int:
        return int(self.orbits.sizes[self.mask].sum())

    @property
    def member(self) -> np.ndarray:
        return self.mask.take(self.orbits.ids)

    def __contains__(self, idx: int) -> bool:
        return bool(self.mask[self.orbits.ids[idx]])

    def issubset(self, other: "Subgroup") -> bool:
        return not bool((self.mask & ~other.mask).any())

    def __eq__(self, other) -> bool:
        return isinstance(other, Subgroup) and np.array_equal(self.mask, other.mask)


def _products(table: ElementTable, member: np.ndarray, frontier: np.ndarray,
              tables: np.ndarray) -> np.ndarray:
    """New indices (int32) reached from the frontier by right multiplication
    with the elements whose row tables are given and by conjugation with the
    E generators, marked in `member`, in chunks of at most CHUNK products
    that bound memory."""
    chunk = max(1, CHUNK // (len(tables) + len(table.conj)))
    found = []
    for lo in range(0, frontier.size, chunk):
        part = frontier[lo:lo + chunk]
        idx = np.concatenate([table.right_mult(part, tables).ravel(),
                              table.conj.take(part, axis=1).ravel()])
        assert idx.min(initial=0) >= 0  # products of members are members
        new = np.sort(idx[~member[idx]])
        member[new] = True
        first = np.ones(new.size, dtype=bool)  # the first of each run of equal indices
        np.not_equal(new[1:], new[:-1], out=first[1:])
        found.append(new[first])
    return np.concatenate(found) if found else np.empty(0, dtype=np.int32)


def normal_closure(table: ElementTable, seed: int, stop=None) -> np.ndarray | Subgroup:
    """cl(seed), the E-normal subgroup one element generates, as a bitset for
    the registry to certify.

    One BFS from {1} under right multiplication by the seed and conjugation
    by each E generator (see the module notes).  The BFS ends once every E
    generator is a member, its bitset then partial: the subgroup is the
    whole table.  A `stop` hook sees every new BFS frontier; the first
    subgroup it returns is returned at once."""
    member = np.zeros(table.N, dtype=bool)
    member[table.identity_idx] = True
    tables = table.row_tables(table.mat([seed]))
    frontier = np.flatnonzero(member)
    while frontier.size:
        frontier = _products(table, member, frontier, tables)
        if member[table.gen_idxs].all():  # the fixed point holds E(R) = G(R)
            break
        found = stop(frontier) if stop is not None else None
        if found is not None:
            return found
    return member


def e_conjugacy_orbits(table: ElementTable) -> tuple[np.ndarray, np.ndarray]:
    """Orbit id per element under conjugation by the elementary subgroup,
    orbits numbered by their least member, and those least members.  Label
    propagation: each label starts as the element's index; a pass lowers it
    to the least label of the element's generator images, then jumps it to
    its label's label, until a pass changes nothing.  Then each label is
    its orbit's least member, the one element that is its own label (int32)."""
    label = np.arange(table.N, dtype=np.int32)
    while True:
        before = label.copy()
        for perm in table.conj:
            np.minimum(label, label.take(perm), out=label)
        label = label.take(label)
        if np.array_equal(label, before):
            least = label == np.arange(table.N)
            return (np.cumsum(least, dtype=np.int32) - 1).take(label), np.flatnonzero(least)


@dataclass
class SandwichResult:
    seed_index: int
    orbit_size: int
    closure_order: int
    admissible: list[int]  # ideal generators d passing both inclusions
    verdict: str = field(init=False)

    def __post_init__(self):
        self.verdict = {0: "none", 1: "unique"}.get(len(self.admissible), "multiple")

    def as_dict(self) -> dict:
        return {**vars(self), "admissible": list(self.admissible)}


@dataclass
class LevelReport:
    seed_index: int
    level: int
    per_root: list[tuple[str, int, int]]  # (root, |H cap X_a|, |X_a(qV)|)
    equal: bool

    def as_dict(self) -> dict:
        return {**vars(self), "per_root": list(self.per_root)}


class _ClosureRegistry:
    """Certified E-normal closures of one element table: its E-orbits, the
    orbit closure of each orbit computed so far, and the joins built from
    them, one object per orbit mask.  Every closure here depends on the
    group only, so every context on the table shares one registry."""

    def __init__(self, table: ElementTable):
        self.table = table
        self._orbits: EOrbits | None = None
        self._by_orbit: dict[int, Subgroup] = {}  # orbit id -> cl(rep)
        self._by_mask: dict[bytes, Subgroup] = {}  # orbit mask -> the certified closure

    def orbits(self) -> EOrbits:
        if self._orbits is None:
            ids, least = e_conjugacy_orbits(self.table)
            self._orbits = EOrbits(ids, least.tolist(), np.bincount(ids))
        return self._orbits

    def orbit_closure(self, idx: int) -> Subgroup:
        orbits = self.orbits()
        k = int(orbits.ids[idx])
        if k not in self._by_orbit:
            rep = orbits.reps[k]
            stop = self._known_closure(rep)
            # cl(rep) holds every [rep, e]: the probe sees them before any BFS
            found = stop(self._rep_commutators[:, k]) if stop is not None else None
            self._by_orbit[k] = found if found is not None else self._certified(
                normal_closure(self.table, rep, stop=stop),
                "the subgroup generated by an E-orbit is not E-normal")
        return self._by_orbit[k]

    @cached_property
    def _rep_commutators(self) -> np.ndarray:
        """[r, e] for every orbit representative r and E generator e, a (k,
        orbits) index array.  Each [r, e] = r^-1 (e^-1 r e) reads the
        conjugate from the table's conjugations and r^-1 from `model.inverse`,
        so all of them are one stacked matrix product and one lookup."""
        table, reps = self.table, np.asarray(self.orbits().reps)
        prods = table.model.mul(table.model.inverse(table.mat(reps)),
                                table.mat(table.conj.take(reps, axis=1)))
        return _element_indices(table, prods, "a commutator [x, y]").reshape(len(table.conj), -1)

    def _certified(self, member: np.ndarray | Subgroup, error: str) -> Subgroup:
        """The registry's one subgroup equal to a `normal_closure` result.  A
        subgroup is one it holds, a stop hook's answer.  A bitset holding
        every E generator is the whole group; any other bitset must be the
        union of the orbits its representatives name, and a RuntimeError
        with the error message when it is not."""
        if isinstance(member, Subgroup):
            return member
        orbits = self.orbits()
        if member[self.table.gen_idxs].all():
            mask = np.ones(len(orbits.reps), dtype=bool)
        else:
            mask = member[orbits.reps]
            if not np.array_equal(mask.take(orbits.ids), member):
                raise RuntimeError(error)
        return self._by_mask.setdefault(mask.tobytes(), Subgroup(orbits, mask))

    def _known_closure(self, rep: int):
        """Stop hook for cl(rep), to be shown elements of cl(rep): the known
        closure K of an element's orbit, if K contains rep; then K = cl(rep)
        (see the module notes)."""
        orbits = self.orbits()
        hit = np.zeros(len(orbits.reps), dtype=bool)
        for k, closure in self._by_orbit.items():
            hit[k] = rep in closure
        if not hit.any():
            return None

        def stop(elements: np.ndarray) -> Subgroup | None:
            ks = orbits.ids.take(elements)
            ks = ks[hit[ks]]
            return self._by_orbit[int(ks[0])] if ks.size else None

        return stop

    def join(self, a: Subgroup, b: Subgroup) -> Subgroup:
        """AB, the subgroup two E-normal subgroups generate, itself E-normal.
        Inclusions are decided on the orbit masks.  Any other AB holds the
        orbits of A and B and those of the products of A's elements with the
        representatives of B's orbits outside A, in chunks of at most CHUNK
        products; |AB| |A cap B| = |A| |B| certifies it (see the module notes)."""
        if b.issubset(a):
            return a
        if a.issubset(b):
            return b
        orbits, table = self.orbits(), self.table
        mask, xs = a.mask | b.mask, np.flatnonzero(a.member)
        tables = table.row_tables(table.mat(np.asarray(orbits.reps)[b.mask & ~a.mask]))
        chunk = max(1, CHUNK // len(tables))
        for lo in range(0, xs.size, chunk):
            prods = table.right_mult(xs[lo:lo + chunk], tables)
            assert prods.min() >= 0  # products of elements are elements
            mask[orbits.ids.take(prods)] = True
        joined = Subgroup(orbits, mask)
        if joined.order * Subgroup(orbits, a.mask & b.mask).order != a.order * b.order:
            raise RuntimeError("join of E-normal subgroups is not E-normal")
        return self._by_mask.setdefault(mask.tobytes(), joined)


class GroupContext:
    """A model, its element table with the table's closure registry, and
    cached lattice data of the model's parabolic.  It builds its own table
    and registry unless `sibling` hands it those of another context."""

    def __init__(self, model: GroupModel, cap: int = DEFAULT_CAP,
                 closures: _ClosureRegistry | None = None):
        self.model = model
        self.cap = cap
        self.closures = closures or _ClosureRegistry(ElementTable(model, cap))
        self.table = self.closures.table
        self.hypotheses = hypothesis_check(model)
        self._cache: dict = {}

    def sibling(self, blocks) -> "GroupContext":
        """Same group, different parabolic; table and closures are shared."""
        return GroupContext(self.model.with_blocks(blocks), self.cap, closures=self.closures)

    @property
    def ideals(self) -> list[int]:
        return divisors(self.model.m)

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    # -- subgroups ------------------------------------------------------------

    def elementary(self) -> Subgroup:
        """E(R) = G(R), every orbit, read off the table: its BFS is the closure
        of {1} under the E generators, with the order formula's size."""
        orbits = self.orbits()
        return Subgroup(orbits, np.ones(len(orbits.reps), dtype=bool))

    def congruence(self, d: int) -> Subgroup:
        """G(R,q), q = (d): the orbits whose representative is the identity mod d."""

        def build():
            orbits, eye = self.orbits(), np.eye(self.table.n, dtype=np.int64)
            return Subgroup(orbits, (self.table.mat(orbits.reps) % d == eye % d).all(axis=(1, 2)))

        return self._memo(("congruence", d), build)

    def center(self) -> Subgroup:
        """C(R,q) of the zero ideal d = m: the elements commuting with the E generators."""
        return self.full_congruence(self.model.m)

    def full_congruence(self, d: int) -> Subgroup:
        """C(R,q) of q = (d), the preimage of the center of G(R/q): the orbits
        whose representative r has g^-1 r g = r mod d for every E generator g.
        The image of G(R) in G(R/q) has order N / |G(R,q)|; that order must
        equal the order formula over R/q, so the map is onto and commuting
        with the images of the generators is being central in G(R/q)."""

        def build():
            image, want = self.table.N // self.congruence(d).order, order_formula(self.model, d)
            if image != want:
                raise RuntimeError(f"{self.model.name()}: the image mod {d} has {image} "
                                   f"elements, the order formula over Z/{d} gives {want}")
            reps = np.asarray(self.orbits().reps)
            rep_mats = self.table.mat(reps) % d
            keep = np.ones(len(reps), dtype=bool)
            for perm in self.table.conj:
                keep &= (self.table.mat(perm.take(reps)) % d == rep_mats).all(axis=(1, 2))
            return Subgroup(self.orbits(), keep)

        return self._memo(("full_congruence", d), build)

    def root_element_indices(self) -> dict[Vec, tuple[list[Vec], np.ndarray]]:
        """For each relative root, all values v with the index of X_alpha(v)."""

        def build():
            model = self.model
            return {a: (list(model.v_tuples(a)), _element_indices(
                        self.table, calculus._root_elements(model, a), "a root element"))
                    for a in model.rel_roots}

        return self._memo("root_elements", build)

    def relative_elementary(self, d: int) -> Subgroup:
        """E(R,q) of q = (d): the normal closure in E of the relative root
        elements with values in (d), read off the cached root elements."""
        return self._memo(("relative_elementary", d), lambda: self.closure_of([
            i for vs, idxs in self.root_element_indices().values()
            for v, i in zip(vs, idxs.tolist()) if any(v) and not any(c % d for c in v)]))

    def sandwich_ideals(self, sub: Subgroup) -> list[int]:
        """Generators d of the ideals q with E(R,q) <= sub <= C(R,q), decided
        once per distinct subgroup; each call returns a fresh list."""
        return list(self._memo(("sandwich", sub.mask.tobytes()), lambda: [
            d for d in self.ideals
            if self.relative_elementary(d).issubset(sub) and sub.issubset(self.full_congruence(d))
        ]))

    def orbits(self) -> EOrbits:
        return self.closures.orbits()

    def orbit_closure(self, idx: int) -> Subgroup:
        """cl(idx), the same subgroup for every element of an E-orbit."""
        return self.closures.orbit_closure(idx)

    def closure_of(self, seeds) -> Subgroup:
        """Normal closure in E of the seeds: the join of the orbit closures
        of their orbits, largest first, each distinct closure once."""
        orbits = self.orbits()
        closures = [self.orbit_closure(orbits.reps[k])
                    for k in sorted({int(orbits.ids[s]) for s in seeds})]
        closures = {id(c): c for c in closures}.values()
        sub = self.orbit_closure(self.table.identity_idx)
        for closure in sorted(closures, key=lambda c: -c.order):
            sub = self.closures.join(sub, closure)
        return sub

    def commutator_subgroup(self, x: Subgroup) -> Subgroup:
        """[X, E(R)] for an E-normal X: the normal closure of the registry's
        [r, e] of the orbit representatives r in X with the E generators e
        (see the module notes)."""
        return self.closure_of(self.closures._rep_commutators[:, x.mask].ravel().tolist())


# -- sandwich classification -------------------------------------------------

def sandwich_classify(ctx: GroupContext) -> list[SandwichResult]:
    orbits = ctx.orbits()
    return [SandwichResult(rep, size, sub.order, ctx.sandwich_ideals(sub)) for rep, size, sub
            in zip(orbits.reps, orbits.sizes.tolist(), map(ctx.orbit_closure, orbits.reps))]


def verify_level_theorem(ctx: GroupContext, sub: Subgroup, d: int,
                         seed_index: int = -1) -> LevelReport:
    """H cap X_alpha(V_alpha) = X_alpha(q V_alpha), q = (d), for every relative
    root, decided once per distinct subgroup and level; each report gets a
    fresh per_root list."""

    def build():
        ids = ctx.orbits().ids
        per_root = []
        equal = True
        for alpha, (vs, idxs) in ctx.root_element_indices().items():
            got = {v for v, inside in zip(vs, sub.mask[ids.take(idxs)]) if inside}
            want = set(ctx.model.v_tuples(alpha, d))
            per_root.append((str(alpha), len(got), len(want)))
            equal &= got == want
        return per_root, equal

    per_root, equal = ctx._memo(("level", sub.mask.tobytes(), d), build)
    return LevelReport(seed_index=seed_index, level=d, per_root=list(per_root), equal=equal)


def verify_commutator_formula(ctx: GroupContext) -> list[dict]:
    """[G(R,q), E(R)] = E(R,q) for every ideal q, from the orbit
    representatives in G(R,q) and the E generators (see the module notes)."""
    out = []
    for d in ctx.ideals:
        comm = ctx.commutator_subgroup(ctx.congruence(d))
        rel = ctx.relative_elementary(d)
        out.append({"ideal": d, "commutator_order": comm.order,
                    "relative_elementary_order": rel.order, "equal": comm == rel})
    return out


def verify_parabolic_independence(ctx: GroupContext, other_blocks) -> list[dict]:
    """E(R,q) agrees across block compositions."""
    if ctx.model.kind != "SL":
        raise ValueError("block comparison only applies to SL models")
    results = []
    for blocks in other_blocks:
        sib = ctx.sibling(tuple(blocks))
        for d in ctx.ideals:
            equal = ctx.relative_elementary(d) == sib.relative_elementary(d)
            results.append({"ideal": d, "blocks": list(blocks), "equal": equal})
    return results


def verify_structure_theorems(ctx: GroupContext) -> dict:
    """Normality of E, its centralizer, perfectness, and the derived-length
    stabilization of [H, E] for every orbit-seeded H."""
    table = ctx.table
    e_sub = ctx.elementary()
    # the table's BFS, the closure of {1} under the E generators, reached
    # the order formula's count (the table refuses any other), so E(R) =
    # G(R), which is normal in itself
    e_normal = table.N == order_formula(ctx.model)

    cent_e = ctx.center()  # E is the whole group: the table is its BFS closure
    scheme = set(_element_indices(table, scheme_center_elements(ctx.model),
                                  "a point of the center subscheme").tolist())
    center_match = set(np.flatnonzero(cent_e.member).tolist()) == scheme

    derived = ctx.commutator_subgroup(e_sub)
    perfect = derived == e_sub
    derived_index = e_sub.order // derived.order

    hall_witt_failures = []
    seen = set()  # ids of the distinct closures, one object each
    for rep in ctx.orbits().reps:
        sub = ctx.orbit_closure(rep)
        if id(sub) in seen:
            continue
        seen.add(id(sub))
        k1 = ctx.commutator_subgroup(sub)
        k2 = ctx.commutator_subgroup(k1)
        if k1 != k2:
            hall_witt_failures.append(rep)

    return {
        "e_normal": e_normal,
        "e_order": e_sub.order,
        "centralizer_matches_center": center_match,
        "center_order": cent_e.order,
        "perfect": perfect,
        "derived_index": derived_index,
        "perfect_expected": ctx.hypotheses.perfect_ok,
        "hall_witt_failures": hall_witt_failures,
    }


def extract_unipotent(ctx: GroupContext, sub: Subgroup):
    """A nontrivial relative root element of the subgroup, if any."""
    for alpha, (vs, idxs) in ctx.root_element_indices().items():
        for v, i in zip(vs, idxs):
            if any(v) and i in sub:
                return alpha, v
    return None


def verify_unipotent_extraction(ctx: GroupContext) -> dict:
    """Every noncentral orbit closure contains a root unipotent.  The
    `radical_failures`, the failures whose closure meets the radical
    congruence subgroup noncentrally, are a subset of the `failures` and
    witness data only."""
    center = ctx.center().mask
    rad = ctx.congruence(jacobson_radical(ctx.model.m)).mask
    reps = np.asarray(ctx.orbits().reps)[~center].tolist()
    failures, rad_failures = [], []
    for rep in reps:
        sub = ctx.orbit_closure(rep)
        if extract_unipotent(ctx, sub) is None:
            failures.append(rep)
            if (sub.mask & rad & ~center).any():
                rad_failures.append(rep)
    return {"noncentral_closures": len(reps), "failures": failures,
            "radical_failures": rad_failures}


def simplicity_check(ctx: GroupContext) -> dict:
    """Over a prime field: every noncentral normal closure is everything."""
    if factorize(ctx.model.m) != {ctx.model.m: 1}:
        raise ValueError("simplicity check runs over prime fields only")
    noncentral = ~ctx.center().mask
    orbits, full = ctx.orbits(), ctx.table.N
    failures = [rep for rep in np.asarray(orbits.reps)[noncentral].tolist()
                if ctx.orbit_closure(rep).order != full]
    return {"noncentral_elements": int(orbits.sizes[noncentral].sum()), "group_order": full,
            "failures": failures}


def join_compatibility(ctx: GroupContext, pairs: int, rng) -> dict:
    """level(<g, g'>^E) = level(g) + level(g') on sampled pairs."""

    def level_of(sub: Subgroup) -> int | None:
        adm = ctx.sandwich_ideals(sub)
        return adm[0] if len(adm) == 1 else None

    mismatches = []
    for _ in range(pairs):
        g = rng.randrange(ctx.table.N)
        h = rng.randrange(ctx.table.N)
        a, b = ctx.orbit_closure(g), ctx.orbit_closure(h)
        la, lb, lj = level_of(a), level_of(b), level_of(ctx.closures.join(a, b))
        if None in (la, lb, lj) or math.gcd(la, lb) != lj:
            mismatches.append({"g": g, "h": h, "levels": [la, lb, lj]})
    return {"checked": pairs, "mismatches": mismatches}


# -- centralizer lemmas -------------------------------------------------------

def _simple_rel_roots(model: GroupModel) -> list[Vec]:
    """The simple relative roots: the unit vectors, the positive roots whose coordinates sum to 1."""
    return [a for a in model.positive_rel_roots if sum(a) == 1]


def _commuting(model: GroupModel, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Whether each matrix of the (k, n, n) stack xs commutes with every
    matrix of the stack ys: a (k,) bool array from one stack of products."""
    return (model.mul(xs[:, None], ys[None]) == model.mul(ys[None], xs[:, None])).all((1, 2, 3))


def verify_u_cent_field(ctx: GroupContext) -> dict:
    """Anything commuting with the whole positive radical lies in the parabolic.

    The radical is generated by the X_alpha(e) over the positive relative
    roots alpha and the unit vectors e of V_alpha, so commuting with those
    is commuting with all of it.  Those generators are E generators, so the
    centralizer is the common fixed points of their conjugation permutations."""
    model, table = ctx.model, ctx.table
    gens = [model.x(a, e) for a in model.positive_rel_roots for e in model.v_basis(a)]
    fixed = np.arange(table.N)
    member = np.ones(table.N, dtype=bool)
    for g in _element_indices(table, gens, "a radical generator").tolist():
        member &= table.conj_perm(g) == fixed
    idx = np.flatnonzero(member)
    failures = idx[~model.in_parabolic(table.mat(idx))].tolist()
    return {"centralizing": len(idx), "failures": failures}


def verify_centralizer_beta(model: GroupModel) -> dict:
    """Radical elements commuting with a simple root family factor over the
    roots alpha with alpha+beta neither a relative root nor zero.  Each
    radical chart is tested by one commutation mask; the failures list the
    commuting elements in chart order."""
    if len(_simple_rel_roots(model)) < 2:
        raise ValueError("needs an irreducible relative system of rank >= 2")
    results = {"checked": 0, "failures": []}
    roots = set(model.rel_roots)
    for beta in _simple_rel_roots(model):
        beta_mats = calculus._root_elements(model, beta)
        for negative in (False, True):
            ch = calculus.radical_chart(model, negative)
            codes = np.flatnonzero(_commuting(model, ch.mats, beta_mats))
            results["checked"] += len(codes)
            support = np.stack([v.any(axis=1) for v in ch.components(codes)], axis=1)
            sums = (calculus._vadd(a, beta) for a in ch.roots)
            bad = np.array([s in roots or not any(s) for s in sums])
            results["failures"] += [
                {"beta": beta, "x_support": [a for a, x in zip(ch.roots, row) if x],
                 "bad_root": ch.roots[int(np.argmax(row & bad))]}
                for row in support[(support & bad).any(axis=1)]]
    return results


def verify_small_levi_b(model: GroupModel) -> dict:
    """Elements of U_(beta) L U_(-beta) commuting with X_beta(V_beta) lie in
    X_{m beta}(V) L, with m beta the largest multiple of beta.  Every
    product a l b is formed in one stack and tested by one commutation mask."""
    if len(_simple_rel_roots(model)) < 2:
        raise ValueError("needs an irreducible relative system of rank >= 2")
    m, n = model.m, model.degree
    levi = np.stack(model.levi_elements())
    results = {"checked": 0, "failures": []}
    for beta in _simple_rel_roots(model):
        multiples = calculus._multiple_cone(model, beta)
        up = calculus.chart(model, multiples)
        down = calculus.chart(model, tuple(tuple(-c for c in a) for a in multiples))
        x = model.mul(up.mats[:, None, None], levi[None, :, None],
                      down.mats[None, None]).reshape(-1, n, n)
        x = x[_commuting(model, x, calculus._root_elements(model, beta))]
        allowed = model.mul(calculus._root_elements(model, multiples[-1])[:, None], levi[None])
        inside = np.isin(matrix_keys(x, m), matrix_keys(allowed, m))
        results["checked"] += len(x)
        results["failures"] += [{"beta": beta} for _ in range(int((~inside).sum()))]
    return results


def verify_centralizer_lemmas(ctx: GroupContext) -> dict:
    """The three centralizer statements together: the whole-radical one over
    the context's parabolic ("u_cent_field"), and "centr_beta" and
    "small_levi_b" over a rank >= 2 parabolic of the same group, the Borel
    when the context's parabolic has rank 1.  The last two are left out
    when the group has no rank >= 2 parabolic (SL_2)."""
    model = ctx.model
    out = {"u_cent_field": verify_u_cent_field(ctx)}
    if len(_simple_rel_roots(model)) < 2:
        model = model.with_blocks("borel" if model.kind == "Sp" else (1,) * model.degree)
    if len(_simple_rel_roots(model)) >= 2:
        out["centr_beta"] = verify_centralizer_beta(model)
        out["small_levi_b"] = verify_small_levi_b(model)
    return out


def gauss_brute_force_agrees(model: GroupModel, table: ElementTable) -> bool:
    """Cell membership verdicts against direct enumeration of U L U^-."""
    u = calculus.radical_chart(model, negative=False).mats[:, None, None]
    l = np.stack(model.levi_elements())[None, :, None]
    v = calculus.radical_chart(model, negative=True).mats[None, None]
    cell = _element_indices(table, model.mul(u, l, v), "a product u*l*v of the main cell")
    members = np.zeros(table.N, dtype=bool)
    members[cell] = True
    return bool((gauss_cell_factors(model, table.mat(np.arange(table.N)))[0] == members).all())


def _element_indices(table: ElementTable, mats, what: str) -> np.ndarray:
    """Table indices of matrices that must be group elements; a RuntimeError
    naming `what` when one is not."""
    idx = table.lookup(np.asarray(mats, dtype=np.int64).reshape(-1, table.n, table.n))
    if (idx < 0).any():
        raise RuntimeError(f"{table.model.name()}: {what} is not in the element table")
    return idx
