"""Subgroup lattice computations and the theorem-level verifications.

Subgroups are bitsets over the element table.  One engine builds them,
`subgroup_closure`: a batched BFS on indices that turns each seed not yet
a member into a generator and stops when the bitset is closed under right
multiplication by every generator, so its generators generate the result.
Its products come from `ElementTable.right_mult`: gathers from the table's
BFS permutations for the E generators and their inverses, the row kernel
and a lookup for other generators.  Each frontier is deduplicated by one
sort and an adjacent-difference mask.  E(R) itself is not closed again: the
table's BFS is the closure of {1} under the E generators.  For the same
reason a closure ends as soon as every E generator is a member: every
member is a product of its gens, so they generate E(R) = G(R), the whole
table, and no seed is left to add to them.

Each element table has one registry of certified E-normal closures, shared
by every context (parabolic, sibling) built on it.  It holds the E-orbits
and the orbit closure cl(r) of each orbit computed so far, and it builds
every other closure from them:

* cl(r), the normal closure of r under E, is generated by the E-conjugates
  of r, which are the E-orbit of r.  So cl(r) is the subgroup its orbit
  generates, and it is certified E-normal by `is_enormal`: every E
  generator conjugation maps its gens into its bitset, which is exact
  because the gens generate it.
* While cl(r) grows, each new BFS frontier is checked for an element x
  whose orbit closure K is already known and contains r.  Then cl(r) = K:
  K = cl(x) <= cl(r) because cl(r) is E-normal and contains x, and
  cl(r) <= K because K is E-normal and contains r.
* The join of two E-normal subgroups A and B is the plain subgroup they
  generate, which is again E-normal.  It is grown from A's bitset by B's
  generators.
* Every BFS result is certified by `is_enormal` before the registry keeps
  it.  A certified subgroup is a union of E-orbits, so its orbit mask
  (which orbits it holds, one boolean per orbit) identifies it: the
  registry keeps one object per mask, and equal closures, the whole group
  among them, are one object.  Joins and sandwich verdicts are cached
  under masks.
* The closure of a seed set (E(R,q), commutator subgroups) is the join of
  the orbit closures of the seeds' orbits, each distinct closure object
  once: many orbits share one, and joining it again changes nothing.
* Every E-normal subgroup is a union of E-orbits.  G(R,q) is normal and
  E(R) = G(R), so it is the normal closure of the orbit representatives it
  contains, and [G(R,q), E(R)] is the normal closure of their commutators
  with the E generators ([N, G] is the normal closure of the [s, t] when N
  is the normal closure of S and G = <T>).  The center is normal too, so
  cl(rep) is central exactly when rep is.

The bounds are unions of E-orbits: G(R,q), C(R,q) and the center are normal
in G(R) = E(R), so each is decided on the orbit representatives' matrices and
expanded through the orbit ids.  G(R,q) keeps r = 1 mod q; C(R,q) keeps r
when g^-1 r g = r mod q for every E generator g, read through g's cached
conjugation permutation; the center is C(R,q) of the zero ideal.  That is
the preimage of the center of G(R/q), with no table of G(R/q), because the
image of G(R) has N / |G(R,q)| elements, the order of G(R/q).

The sandwich classification checks, for one seed per conjugation orbit,
which ideals q satisfy E(R,q) <= closure <= C(R,q); on a model satisfying
the main hypotheses exactly one ideal must pass.  Every subgroup normalized
by the elementary subgroup is the join of the orbit closures of its
elements, so closing the distinct orbit closures under joins gives the
whole lattice of E-normal subgroups (`enormal_lattice`), and the sandwich
can be checked on every member of it directly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import calculus
from .models import (
    GroupModel,
    gauss_cell_factors,
    hypothesis_check,
    order_formula,
    scheme_center_elements,
)
from .rings import ZmIdeal, jacobson_radical, ring_ideals
from .table import DEFAULT_CAP, ElementTable, matrix_keys

Vec = tuple[int, ...]


class Subgroup:
    """A bitset over the element table, never written after construction."""

    def __init__(self, table: ElementTable, member: np.ndarray, gens: list[int] | None = None):
        self.table = table
        self.member = member
        self.gens = gens or []

    @property
    def order(self) -> int:
        return int(self.member.sum())

    def indices(self) -> np.ndarray:
        return np.nonzero(self.member)[0]

    def __contains__(self, idx: int) -> bool:
        return bool(self.member[idx])

    def issubset(self, other: "Subgroup") -> bool:
        return not bool((self.member & ~other.member).any())

    def __eq__(self, other) -> bool:
        return isinstance(other, Subgroup) and np.array_equal(self.member, other.member)


def _products(table: ElementTable, member: np.ndarray, frontier: np.ndarray,
              gen_idxs) -> np.ndarray:
    """New indices reached from the frontier by right multiplication with
    the generators, marked in `member`, in chunks of at most 65,536 products
    that bound memory."""
    chunk = max(1, 65536 // max(1, len(gen_idxs)))
    found = []
    for lo in range(0, frontier.size, chunk):
        idx = table.right_mult(frontier[lo:lo + chunk], gen_idxs)
        assert idx.min(initial=0) >= 0  # products of members are members
        new = np.sort(idx[~member[idx]])
        member[new] = True
        first = np.ones(new.size, dtype=bool)  # the first of each run of equal indices
        np.not_equal(new[1:], new[:-1], out=first[1:])
        found.append(new[first])
    return np.concatenate(found) if found else np.empty(0, dtype=np.int64)


def subgroup_closure(table: ElementTable, seed_idxs, base: Subgroup | None = None,
                     stop=None) -> Subgroup:
    """Smallest subgroup containing the seeds and `base`, a subgroup whose
    gens generate it.

    Each seed that is not yet a member becomes a generator: every member is
    multiplied by it and its inverse, then a BFS over all generators and
    their inverses runs until no new element appears.  The member set is
    then closed under right multiplication by every generator, which
    certifies it is the generated subgroup, and its gens generate it.  Once
    every E generator is a member, the gens generate E(R) = G(R), and the
    whole table is returned at once.  A `stop` hook sees every new BFS
    frontier; the first subgroup it returns is returned at once."""
    if base is None:
        member = np.zeros(table.N, dtype=bool)
        member[table.identity_idx] = True
        base = Subgroup(table, member)
    elif base.order > 1 and not base.gens:
        raise ValueError("a base subgroup needs its generators")
    member = base.member.copy()
    gens = list(base.gens)
    seeds = np.asarray(seed_idxs, dtype=np.int64)
    # members are already generated; skipping them keeps the gens short
    while (pending := seeds[~member[seeds]]).size:
        seed = int(pending[0])
        gens.append(seed)
        frontier = _products(table, member, np.nonzero(member)[0],
                             sorted({seed, int(table.inv[seed])}))
        all_gens = sorted(set(gens) | {int(table.inv[g]) for g in gens})
        while frontier.size:
            if member[table.gen_idxs].all():  # no seed is left out of E(R) = G(R)
                return Subgroup(table, np.ones(table.N, dtype=bool), gens)
            found = stop(frontier) if stop is not None else None
            if found is not None:
                return found
            frontier = _products(table, member, frontier, all_gens)
    return Subgroup(table, member, gens)


def is_enormal(sub: Subgroup) -> bool:
    """Whether every generator conjugation maps the subgroup into itself.
    `gens`, when given, generate the bitset (subgroup_closure guarantees
    it), and a conjugate of the subgroup is generated by the conjugated
    gens, so only their images are checked; a subgroup without gens has its
    whole bitset checked."""
    probe = np.asarray(sub.gens, dtype=np.int64) if sub.gens else sub.indices()
    return all(bool(sub.member[perm[probe]].all()) for perm in sub.table.egen_conj_perms())


def e_conjugacy_orbits(table: ElementTable) -> tuple[np.ndarray, np.ndarray]:
    """Orbit id per element under conjugation by the elementary subgroup,
    orbits numbered by their least member, and those least members.  Label
    propagation: each label starts as the element's index; a pass lowers it
    to the least label of the element's generator images, then jumps it to
    its label's label, until a pass changes nothing.  Then each label is
    its orbit's least member, the one element that is its own label."""
    perms = table.egen_conj_perms()
    label = np.arange(table.N)
    while True:
        before = label.copy()
        for perm in perms:
            np.minimum(label, label[perm], out=label)
        label = label[label]
        if np.array_equal(label, before):
            least = label == np.arange(table.N)
            return (np.cumsum(least) - 1)[label], np.flatnonzero(least)


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
        return asdict(self)


@dataclass
class LevelReport:
    seed_index: int
    level: int
    per_root: list[tuple[str, int, int]]  # (root, |H cap X_a|, |X_a(qV)|)
    equal: bool

    def as_dict(self) -> dict:
        return asdict(self)


class _ClosureRegistry:
    """Certified E-normal closures of one element table: its E-orbits, the
    orbit closure of each orbit computed so far, and the joins built from
    them, one object per orbit mask.  Every closure here depends on the
    group only, so every context on the table shares one registry."""

    def __init__(self, table: ElementTable):
        self.table = table
        self._orbits: tuple[np.ndarray, list[int]] | None = None
        self.orbit_sizes: np.ndarray | None = None  # elements per orbit id, set by orbits()
        self._by_orbit: dict[int, Subgroup] = {}  # orbit id -> cl(rep)
        self._by_mask: dict[bytes, Subgroup] = {}  # orbit mask -> the certified closure
        self._joins: dict[tuple[bytes, bytes], Subgroup] = {}

    def orbits(self) -> tuple[np.ndarray, list[int]]:
        if self._orbits is None:
            orbit, reps = e_conjugacy_orbits(self.table)
            self._orbits = (orbit, reps.tolist())
            self.orbit_sizes = np.bincount(orbit)
        return self._orbits

    def orbit_closure(self, idx: int) -> Subgroup:
        orbit, reps = self.orbits()
        k = int(orbit[idx])
        if k not in self._by_orbit:
            sub = subgroup_closure(self.table, np.nonzero(orbit == k)[0],
                                   stop=self._known_closure(reps[k]))
            self._by_orbit[k] = self._certified(
                sub, "the subgroup generated by an E-orbit is not E-normal")
        return self._by_orbit[k]

    def _certified(self, sub: Subgroup, error: str) -> Subgroup:
        """The registry's one object equal to sub, once `is_enormal` certifies
        sub; a RuntimeError with the error message when it does not."""
        if not is_enormal(sub):
            raise RuntimeError(error)
        return self._by_mask.setdefault(sub.member[self.orbits()[1]].tobytes(), sub)

    def mask(self, sub: Subgroup) -> bytes:
        """The orbit mask of a closure this registry certified, its key; a
        ValueError for any other subgroup, which its mask does not identify."""
        mask = sub.member[self.orbits()[1]].tobytes()
        if self._by_mask.get(mask) is not sub:
            raise ValueError("an orbit mask identifies only a certified E-normal closure")
        return mask

    def _known_closure(self, rep: int):
        """Stop hook for cl(rep): the known closure K of a frontier element's
        orbit, if K contains rep; then K = cl(rep) (see the module notes)."""
        orbit, reps = self.orbits()
        hit = np.zeros(len(reps), dtype=bool)
        for k, closure in self._by_orbit.items():
            hit[k] = closure.member[rep]
        if not hit.any():
            return None

        def stop(frontier: np.ndarray) -> Subgroup | None:
            ks = orbit[frontier]
            ks = ks[hit[ks]]
            return self._by_orbit[int(ks[0])] if ks.size else None

        return stop

    def join(self, a: Subgroup, b: Subgroup) -> Subgroup:
        """The subgroup generated by two E-normal subgroups, itself E-normal."""
        if b.issubset(a):
            return a
        if a.issubset(b):
            return b
        key = tuple(sorted((self.mask(a), self.mask(b))))
        if key not in self._joins:
            self._joins[key] = self._certified(subgroup_closure(self.table, b.gens, base=a),
                                               "join of E-normal subgroups is not E-normal")
        return self._joins[key]


_CONTEXTS: dict[tuple, "GroupContext"] = {}
_REGISTRIES: dict[tuple, _ClosureRegistry] = {}


def _shared_registry(model: GroupModel, cap: int) -> _ClosureRegistry:
    # the table and its closures do not depend on the parabolic, only on the group
    key = (model.kind, model.degree, model.m, cap)
    if key not in _REGISTRIES:
        _REGISTRIES[key] = _ClosureRegistry(ElementTable(model, cap))
    return _REGISTRIES[key]


def get_context(model: GroupModel, cap: int = DEFAULT_CAP) -> "GroupContext":
    key = (model, cap)
    if key not in _CONTEXTS:
        _CONTEXTS[key] = GroupContext(model, cap, closures=_shared_registry(model, cap))
    return _CONTEXTS[key]


class GroupContext:
    """A model, its element table with the table's closure registry, and
    cached lattice data of the model's parabolic."""

    def __init__(self, model: GroupModel, cap: int, closures: _ClosureRegistry):
        self.model = model
        self.cap = cap
        self.closures = closures
        self.table = self.closures.table
        self.hypotheses = hypothesis_check(model)
        self._cache: dict = {}

    def sibling(self, blocks) -> "GroupContext":
        """Same group, different parabolic; table and closures are shared."""
        return GroupContext(self.model.with_blocks(blocks), self.cap, closures=self.closures)

    @property
    def ideals(self) -> list[ZmIdeal]:
        return ring_ideals(self.model.ring)

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    # -- element-wise subgroups ---------------------------------------------

    def elementary(self) -> Subgroup:
        """E(R), read off the table: its BFS is the closure of {1} under the
        E generators, and it has the order formula's size, so E(R) = G(R).
        Its gens are all the E generators."""
        return self._memo("elementary", lambda: Subgroup(
            self.table, np.ones(self.table.N, dtype=bool), self.table.gen_idxs.tolist()))

    def congruence(self, q: ZmIdeal) -> Subgroup:
        """G(R,q): the orbits whose representative is the identity mod q."""

        def build():
            orbit, reps = self.orbits()
            eye = np.eye(self.table.n, dtype=np.int64)
            keep = (self.table.mat(reps) % q.d == eye % q.d).all(axis=(1, 2))
            return Subgroup(self.table, keep[orbit])

        return self._memo(("congruence", q.d), build)

    def centralizer(self, idxs) -> Subgroup:
        """The elements that every g in idxs fixes by conjugation: the common
        fixed points of their cached conjugation permutations."""
        fixed = np.arange(self.table.N)
        member = np.ones(self.table.N, dtype=bool)
        for g in idxs:
            member &= self.table.conj_perm(g) == fixed
        return Subgroup(self.table, member)

    def center(self) -> Subgroup:
        """C(R,q) of the zero ideal: the elements commuting with the E generators."""
        return self.full_congruence(ZmIdeal(self.model.ring, self.model.m))

    def full_congruence(self, q: ZmIdeal) -> Subgroup:
        """C(R,q), the preimage of the center of G(R/q): the orbits whose
        representative r has g^-1 r g = r mod q for every E generator g.  The
        image of G(R) in G(R/q) has order N / |G(R,q)|; that order must equal
        the order formula over R/q, so the map is onto and commuting with the
        images of the generators is being central in G(R/q)."""

        def build():
            image, want = self.table.N // self.congruence(q).order, order_formula(self.model, q.d)
            if image != want:
                raise RuntimeError(f"{self.model.name()}: the image mod {q.d} has {image} "
                                   f"elements, the order formula over Z/{q.d} gives {want}")
            orbit, reps = self.orbits()
            rep_mats = self.table.mat(reps) % q.d
            keep = np.ones(len(reps), dtype=bool)
            for perm in self.table.egen_conj_perms():
                keep &= (self.table.mat(perm[reps]) % q.d == rep_mats).all(axis=(1, 2))
            return Subgroup(self.table, keep[orbit])

        return self._memo(("full_congruence", q.d), build)

    def root_element_indices(self) -> dict[Vec, tuple[list[Vec], np.ndarray]]:
        """For each relative root, all values v with the index of X_alpha(v)."""

        def build():
            model = self.model
            return {a: (list(model.v_tuples(a)), _element_indices(
                        self.table, calculus._root_elements(model, a), "a root element"))
                    for a in model.rel_roots}

        return self._memo("root_elements", build)

    def relative_elementary(self, q: ZmIdeal) -> Subgroup:
        """Normal closure in E of the q-valued relative root elements, read off
        the cached root elements."""
        return self._memo(("relative_elementary", q.d), lambda: self.closure_of([
            i for vs, idxs in self.root_element_indices().values()
            for v, i in zip(vs, idxs.tolist()) if any(v) and not any(c % q.d for c in v)]))

    def sandwich_ideals(self, sub: Subgroup) -> list[int]:
        """Generators d of the ideals q with E(R,q) <= sub <= C(R,q), decided
        once per distinct subgroup; each call returns a fresh list."""
        return list(self._memo(("sandwich", self.closures.mask(sub)), lambda: [
            q.d for q in self.ideals
            if self.relative_elementary(q).issubset(sub) and sub.issubset(self.full_congruence(q))
        ]))

    def orbits(self) -> tuple[np.ndarray, list[int]]:
        return self.closures.orbits()

    def orbit_closure(self, idx: int) -> Subgroup:
        """cl(idx), the same subgroup for every element of an E-orbit."""
        return self.closures.orbit_closure(idx)

    def closure_of(self, seeds) -> Subgroup:
        """Normal closure in E of the seeds: the join of the orbit closures
        of their orbits, largest first, each distinct closure once."""
        orbit, reps = self.orbits()
        closures = [self.orbit_closure(reps[k]) for k in sorted({int(orbit[s]) for s in seeds})]
        closures = {id(c): c for c in closures}.values()
        sub = subgroup_closure(self.table, [])
        for closure in sorted(closures, key=lambda c: -c.order):
            sub = self.closures.join(sub, closure)
        return sub

    def commutator_subgroup(self, x_gens, y_gens) -> Subgroup:
        """[X, Y] for subgroups normal in the group, from generating sets.
        Each [x, y] = x^-1 (y^-1 x y) takes the conjugate from y's cached
        conjugation permutation, so it is one matrix product; the callers'
        y are the E generators, whose permutations are gathers."""
        t = self.table
        x_gens = np.asarray(x_gens, dtype=np.int64)
        conj = np.concatenate([t.conj_perm(y)[x_gens] for y in y_gens])
        xinv = np.tile(t.inv[x_gens], len(y_gens))
        prods = t.mat(xinv) @ t.mat(conj)
        return self.closure_of(_element_indices(t, prods, "a commutator [x, y]").tolist())


# -- sandwich classification -------------------------------------------------

def sandwich_classify(ctx: GroupContext) -> list[SandwichResult]:
    orbit, reps = ctx.orbits()
    results = []
    for rep in reps:
        sub = ctx.orbit_closure(rep)
        results.append(SandwichResult(
            seed_index=rep,
            orbit_size=int(ctx.closures.orbit_sizes[orbit[rep]]),
            closure_order=sub.order,
            admissible=ctx.sandwich_ideals(sub),
        ))
    return results


def enormal_lattice(ctx: GroupContext) -> list[tuple[Subgroup, list[int]]]:
    """Every subgroup normalized by E, smallest first, with the ideals whose
    sandwich holds it.

    Every E-normal subgroup is the join of the orbit closures of its
    elements, so closing the distinct orbit closures under joins until
    nothing new appears gives the whole lattice."""
    _, reps = ctx.orbits()
    # the registry hands out one object per subgroup
    members = {id(sub): sub for sub in map(ctx.orbit_closure, reps)}
    frontier = list(members.values())
    while frontier:
        new = []
        for a in frontier:
            for b in list(members.values()):
                joined = ctx.closures.join(a, b)
                if id(joined) not in members:
                    members[id(joined)] = joined
                    new.append(joined)
        frontier = new
    ordered = sorted(members.values(), key=lambda sub: sub.order)
    return [(sub, ctx.sandwich_ideals(sub)) for sub in ordered]


def verify_level_theorem(ctx: GroupContext, sub: Subgroup, q: ZmIdeal,
                         seed_index: int = -1) -> LevelReport:
    """H cap X_alpha(V_alpha) = X_alpha(q V_alpha) for every relative root."""
    if not is_enormal(sub):
        raise ValueError("subgroup is not normalized by the elementary subgroup")
    per_root = []
    equal = True
    for alpha, (vs, idxs) in ctx.root_element_indices().items():
        got = {v for v, i in zip(vs, idxs) if sub.member[i]}
        want = set(ctx.model.v_tuples(alpha, q))
        per_root.append((str(alpha), len(got), len(want)))
        if got != want:
            equal = False
    return LevelReport(seed_index=seed_index, level=q.d, per_root=per_root, equal=equal)


def verify_commutator_formula(ctx: GroupContext) -> list[dict]:
    """[G(R,q), E(R)] = E(R,q) for every ideal q, from the orbit
    representatives in G(R,q) and the E generators (see the module notes)."""
    egens = ctx.table.gen_idxs.tolist()
    reps = np.asarray(ctx.orbits()[1])
    out = []
    for q in ctx.ideals:
        comm = ctx.commutator_subgroup(reps[ctx.congruence(q).member[reps]], egens)
        rel = ctx.relative_elementary(q)
        out.append({"ideal": q.d, "commutator_order": comm.order,
                    "relative_elementary_order": rel.order, "equal": comm == rel})
    return out


def verify_parabolic_independence(ctx: GroupContext, other_blocks) -> list[dict]:
    """E(R,q) agrees across block compositions."""
    if ctx.model.kind != "SL":
        raise ValueError("block comparison only applies to SL models")
    results = []
    for blocks in other_blocks:
        sib = ctx.sibling(tuple(blocks))
        for q in ctx.ideals:
            equal = ctx.relative_elementary(q) == sib.relative_elementary(q)
            results.append({"ideal": q.d, "blocks": list(blocks), "equal": equal})
    return results


def verify_structure_theorems(ctx: GroupContext) -> dict:
    """Normality of E, its centralizer, perfectness, and the derived-length
    stabilization of [H, E] for every orbit-seeded H."""
    table = ctx.table
    e_sub = ctx.elementary()
    e_normal = is_enormal(e_sub)

    cent_e = ctx.center()  # E is the whole group: the table is its BFS closure
    scheme = set(_element_indices(table, scheme_center_elements(ctx.model),
                                  "a point of the center subscheme").tolist())
    center_match = set(cent_e.indices().tolist()) == scheme

    egens = table.gen_idxs.tolist()
    derived = ctx.commutator_subgroup(egens, egens)
    perfect = derived == e_sub
    derived_index = e_sub.order // derived.order

    hall_witt_failures = []
    _, reps = ctx.orbits()
    seen = set()  # ids of the distinct closures, one object each
    for rep in reps:
        sub = ctx.orbit_closure(rep)
        if id(sub) in seen:
            continue
        seen.add(id(sub))
        k1 = ctx.commutator_subgroup(sub.gens, egens)
        k2 = ctx.commutator_subgroup(k1.gens, egens)
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
            if any(v) and sub.member[i]:
                return alpha, v
    return None


def verify_unipotent_extraction(ctx: GroupContext) -> dict:
    """Every noncentral orbit closure contains a root unipotent; the same
    holds for closures meeting the radical congruence subgroup noncentrally."""
    center = ctx.center()
    rad_sub = ctx.congruence(jacobson_radical(ctx.model.ring))
    _, reps = ctx.orbits()
    failures, rad_failures, noncentral = [], [], 0
    for rep in reps:
        if center.member[rep]:
            continue
        sub = ctx.orbit_closure(rep)
        noncentral += 1
        if extract_unipotent(ctx, sub) is None:
            failures.append(rep)
            if (sub.member & rad_sub.member & ~center.member).any():
                rad_failures.append(rep)
    return {"noncentral_closures": noncentral, "failures": failures,
            "radical_failures": rad_failures}


def simplicity_check(ctx: GroupContext) -> dict:
    """Over a prime field: every noncentral normal closure is everything."""
    if not _is_prime(ctx.model.m):
        raise ValueError("simplicity check runs over prime fields only")
    center = ctx.center()
    orbit, reps = ctx.orbits()
    full = ctx.table.N
    checked_elements = 0
    failures = []
    for rep in reps:
        if center.member[rep]:
            continue
        checked_elements += int(ctx.closures.orbit_sizes[orbit[rep]])
        if ctx.orbit_closure(rep).order != full:
            failures.append(rep)
    return {"noncentral_elements": checked_elements, "group_order": full,
            "failures": failures}


def _is_prime(m: int) -> bool:
    return m >= 2 and all(m % d for d in range(2, int(m**0.5) + 1))


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
    """Positive relative roots that are not sums of two positive ones."""
    pos = model.positive_rel_roots
    sums = {tuple(x + y for x, y in zip(b, c)) for b in pos for c in pos}
    return [a for a in pos if a not in sums]


def _commuting(model: GroupModel, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Whether each matrix of the (k, n, n) stack xs commutes with every
    matrix of the stack ys: a (k,) bool array from one stack of products."""
    xs, ys = xs[:, None], ys[None]
    return (xs @ ys % model.m == ys @ xs % model.m).all(axis=(1, 2, 3))


def verify_u_cent_field(ctx: GroupContext) -> dict:
    """Anything commuting with the whole positive radical lies in the parabolic.

    The radical is generated by the X_alpha(e) over the positive relative
    roots alpha and the unit vectors e of V_alpha, so commuting with those
    is commuting with all of it."""
    model = ctx.model
    gens = [model.x(a, e) for a in model.positive_rel_roots for e in model.v_basis(a)]
    cent = ctx.centralizer(_element_indices(ctx.table, gens, "a radical generator").tolist())
    idx = cent.indices()
    failures = idx[~model.in_parabolic(ctx.table.mat(idx))].tolist()
    return {"centralizing": cent.order, "failures": failures}


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
        x = (up.mats[:, None, None] @ levi[None, :, None] % m @ down.mats[None, None] % m
             ).reshape(-1, n, n)
        x = x[_commuting(model, x, calculus._root_elements(model, beta))]
        allowed = calculus._root_elements(model, multiples[-1])[:, None] @ levi[None] % m
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


def gauss_brute_force_agrees(ctx: GroupContext) -> bool:
    """Cell membership verdicts against direct enumeration of U L U^-."""
    model = ctx.model
    m = model.m
    u = calculus.radical_chart(model, negative=False).mats[:, None, None]
    l = np.stack(model.levi_elements())[None, :, None]
    v = calculus.radical_chart(model, negative=True).mats[None, None]
    cell = _element_indices(ctx.table, (u @ l % m) @ v % m, "a product u*l*v of the main cell")
    members = np.zeros(ctx.table.N, dtype=bool)
    members[cell] = True
    return bool((gauss_cell_factors(model, ctx.table.mat(np.arange(ctx.table.N)))[0]
                 == members).all())


def _element_indices(table: ElementTable, mats, what: str) -> np.ndarray:
    """Table indices of matrices that must be group elements; a RuntimeError
    naming `what` when one is not."""
    idx = table.lookup(np.asarray(mats, dtype=np.int64).reshape(-1, table.n, table.n))
    if (idx < 0).any():
        raise RuntimeError(f"{table.model.name()}: {what} is not in the element table")
    return idx
