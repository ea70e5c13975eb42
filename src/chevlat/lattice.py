"""Subgroup lattice computations and the theorem-level verifications.

Subgroups are bitsets over the element table.  Closures run a batched BFS
on indices.  `normal_closure` is the plain engine: it iterates closure and
conjugation-stability until the bitset is a fixed point of every generator
conjugation, which is also the correctness certificate.

Each element table has one registry of certified E-normal closures, shared
by every context (parabolic, sibling) built on it.  It holds the E-orbits
and the orbit closure cl(r) of each orbit computed so far, and it builds
every other closure from them:

* While cl(r) grows, each new BFS frontier is checked for an element x
  whose orbit closure K is already known and contains r.  Then cl(r) = K:
  K = cl(x) <= cl(r) because cl(r) is E-normal and contains x, and
  cl(r) <= K because K is E-normal and contains r.  The first closure of
  each kind runs `normal_closure` to its fixed point.
* The join of two E-normal subgroups A and B is the plain subgroup they
  generate, which is again E-normal.  It is grown from A's bitset by B's
  generators, with no conjugation loop, and checked to be a fixed point of
  every generator conjugation before it is cached under both bitsets.
* The closure of a seed set (E(R,q), commutator subgroups) is the join of
  the orbit closures of the seeds' orbits.

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
from dataclasses import dataclass, field

import numpy as np

from . import calculus
from .errors import TheoremViolation
from .models import (
    GroupModel,
    gauss_cell_factors,
    hypothesis_check,
    scheme_center_elements,
)
from .rings import ZmIdeal, ZmRing, jacobson_radical, ring_ideals
from .table import DEFAULT_CAP, ElementTable

Vec = tuple[int, ...]


class Subgroup:
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

    def key(self) -> bytes:
        return self.member.tobytes()


class _IncrementalClosure:
    """Grows a subgroup bitset as generators are added, without restarting.

    The member set stays closed under right multiplication by every
    generator added so far, which certifies it is the generated subgroup.
    It may start from a subgroup `base` whose gens generate it.  A `stop`
    hook sees every new BFS frontier; the first subgroup it returns is kept
    in `found` and ends the growth.
    """

    def __init__(self, table: ElementTable, base: Subgroup | None = None, stop=None):
        self.table = table
        if base is None:
            base = Subgroup(table, np.arange(table.N) == table.identity_idx)
        elif base.order > 1 and not base.gens:
            raise ValueError("a base subgroup needs its generators")
        self.member = base.member.copy()
        self.gens: list[int] = list(base.gens)
        self._gen_set: set[int] = set(self.gens)
        self.stop = stop
        self.found: Subgroup | None = None

    def _products(self, frontier: np.ndarray, gen_mats: np.ndarray) -> np.ndarray:
        """New indices reached from the frontier, chunked to bound memory.

        The matrix products run in float64, which is exact here (entries
        below m <= 9 keep dot products far under 2**53) and lets BLAS do
        the batched multiplication.
        """
        table = self.table
        n, m = table.n, table.m
        gens_f = gen_mats.astype(np.float64)
        chunk = max(1, 65536 // max(1, len(gen_mats)))
        found = []
        for lo in range(0, frontier.size, chunk):
            F = table.mats[frontier[lo:lo + chunk]].astype(np.float64)
            prods = np.rint(F[:, None, :, :] @ gens_f[None, :, :, :]).astype(np.int64)
            prods %= m
            idx = table.lookup_keys(prods.reshape(-1, n * n) @ table.powers)
            assert idx.min(initial=0) >= 0  # products of members are members
            cand = idx[~self.member[idx]]
            new = np.unique(cand)
            self.member[new] = True
            found.append(new)
        return np.concatenate(found) if found else np.empty(0, dtype=np.int64)

    def _stopped(self, frontier: np.ndarray) -> bool:
        if self.stop is not None and frontier.size:
            self.found = self.stop(frontier)
        return self.found is not None

    def _advance(self, frontier: np.ndarray, gen_mats: np.ndarray):
        frontier = self._products(frontier, gen_mats)
        all_gens = self.table.mats[self._all_gen_idx()].astype(np.int64)
        while frontier.size and not self._stopped(frontier):
            frontier = self._products(frontier, all_gens)

    def _all_gen_idx(self) -> list[int]:
        return sorted(self._gen_set | {int(self.table.inv[i]) for i in self._gen_set})

    def add_gens(self, new_idxs) -> None:
        # members are already generated; skipping them keeps the gens short
        fresh = sorted({int(i) for i in new_idxs if not self.member[int(i)]})
        if not fresh:
            return
        self.gens.extend(fresh)
        self._gen_set.update(fresh)
        new_idx = sorted(set(fresh) | {int(self.table.inv[i]) for i in fresh})
        new_mats = self.table.mats[new_idx].astype(np.int64)
        # every current member times each new generator, then full BFS
        self._advance(np.nonzero(self.member)[0], new_mats)

    def subgroup(self) -> Subgroup:
        return Subgroup(self.table, self.member.copy(), list(self.gens))


def subgroup_closure(table: ElementTable, seed_idxs, base: Subgroup | None = None) -> Subgroup:
    """Smallest subgroup containing the seeds (and `base`, a subgroup whose
    gens generate it)."""
    closure = _IncrementalClosure(table, base)
    closure.add_gens(seed_idxs)
    return closure.subgroup()


def normal_closure(table: ElementTable, seed_idxs, stop=None) -> Subgroup:
    """Smallest subgroup containing the seeds and stable under conjugation
    by every elementary generator.

    Seeds are absorbed in small batches so the multiplier set stays small;
    the returned bitset is a fixed point of every conjugation permutation,
    which is checked before returning.  `stop`, if given, is called with
    every new BFS frontier; a subgroup it returns is returned at once, and
    the caller is responsible for its certificate."""
    seeds = sorted({int(i) for i in seed_idxs if int(i) != table.identity_idx})
    if not seeds:
        return subgroup_closure(table, [])
    conj_perms = table.egen_conj_perms()
    closure = _IncrementalClosure(table, stop=stop)
    if len(seeds) <= 4:
        # a couple of conjugates usually make the first closure stable
        first = set(seeds)
        for s in seeds:
            for perm in conj_perms:
                img = int(perm[s])
                if img not in first:
                    first.add(img)
                if len(first) >= len(seeds) + 3:
                    break
            else:
                continue
            break
        closure.add_gens(sorted(first))
    while closure.found is None:
        if closure.member.all():
            return closure.subgroup()  # the whole group: stability is vacuous
        missing = [s for s in seeds if not closure.member[s]]
        if missing:
            closure.add_gens(missing[:8])
            continue
        added: set[int] = set()
        s_idx = np.nonzero(closure.member)[0]
        for perm in conj_perms:
            img = perm[s_idx]
            bad = img[~closure.member[img]]
            if bad.size:
                added.update(np.unique(bad)[:8].tolist())
        if not added:
            return closure.subgroup()
        closure.add_gens(sorted(added))
    return closure.found


def is_enormal(sub: Subgroup) -> bool:
    """Whether the bitset is a fixed point of every generator conjugation."""
    s_idx = sub.indices()
    return all(bool(sub.member[perm[s_idx]].all()) for perm in sub.table.egen_conj_perms())


def e_conjugacy_orbits(table: ElementTable) -> np.ndarray:
    """Orbit id per element under conjugation by the elementary subgroup."""
    perms = table.egen_conj_perms()
    orbit = np.full(table.N, -1, dtype=np.int64)
    next_id = 0
    for start in range(table.N):
        if orbit[start] >= 0:
            continue
        orbit[start] = next_id
        frontier = np.array([start], dtype=np.int64)
        while frontier.size:
            images = np.unique(np.concatenate([perm[frontier] for perm in perms]))
            new = images[orbit[images] < 0]
            orbit[new] = next_id
            frontier = new
        next_id += 1
    return orbit


def generating_set(table: ElementTable, sub: Subgroup) -> list[int]:
    """A small generating set of a given subgroup, built greedily."""
    closure = _IncrementalClosure(table)
    for idx in sub.indices().tolist():
        if not closure.member[idx]:
            closure.add_gens([idx])
            if np.array_equal(closure.member, sub.member):
                break
    assert np.array_equal(closure.member, sub.member)
    return closure.gens


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
        return {
            "seed_index": self.seed_index,
            "orbit_size": self.orbit_size,
            "closure_order": self.closure_order,
            "admissible": self.admissible,
            "verdict": self.verdict,
        }


@dataclass
class LevelReport:
    seed_index: int
    level: int
    per_root: list[tuple[str, int, int]]  # (root, |H cap X_a|, |X_a(qV)|)
    equal: bool

    def as_dict(self) -> dict:
        return {
            "seed_index": self.seed_index,
            "level": self.level,
            "per_root": [list(r) for r in self.per_root],
            "equal": self.equal,
        }


class _ClosureRegistry:
    """Certified E-normal closures of one element table: its E-orbits, the
    orbit closure of each orbit computed so far, and the joins built from
    them.  Every closure here depends on the group only, so every context
    on the table shares one registry."""

    def __init__(self, table: ElementTable):
        self.table = table
        self._orbits: tuple[np.ndarray, list[int]] | None = None
        self._by_orbit: dict[int, Subgroup] = {}  # orbit id -> cl(rep)
        self._joins: dict[tuple[bytes, bytes], Subgroup] = {}

    def orbits(self) -> tuple[np.ndarray, list[int]]:
        if self._orbits is None:
            orbit = e_conjugacy_orbits(self.table)
            reps = [int(np.nonzero(orbit == k)[0][0]) for k in range(int(orbit.max()) + 1)]
            self._orbits = (orbit, reps)
        return self._orbits

    def orbit_closure(self, idx: int) -> Subgroup:
        orbit, reps = self.orbits()
        k = int(orbit[idx])
        if k not in self._by_orbit:
            rep = reps[k]
            self._by_orbit[k] = normal_closure(self.table, [rep], stop=self._known_closure(rep))
        return self._by_orbit[k]

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
        key = tuple(sorted((a.key(), b.key())))
        if key not in self._joins:
            joined = subgroup_closure(self.table, b.gens, base=a)
            if not is_enormal(joined):
                raise RuntimeError("join of E-normal subgroups is not E-normal")
            self._joins[key] = joined
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

    def __init__(self, model: GroupModel, cap: int = DEFAULT_CAP,
                 closures: _ClosureRegistry | None = None):
        self.model = model
        self.cap = cap
        self.closures = closures if closures is not None else _ClosureRegistry(
            ElementTable(model, cap))
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
        def build():
            sub = subgroup_closure(self.table, self.table.gen_idxs.tolist())
            if sub.order != self.table.N:
                raise RuntimeError(
                    f"{self.model.name()}: elementary subgroup is proper, order {sub.order}"
                )
            return sub

        return self._memo("elementary", build)

    def congruence(self, q: ZmIdeal) -> Subgroup:
        def build():
            mats = self.table.mats.astype(np.int64)
            diff = (mats - np.eye(self.table.n, dtype=np.int64)) % self.model.m
            member = (diff % q.d == 0).all(axis=(1, 2))
            return Subgroup(self.table, member)

        return self._memo(("congruence", q.d), build)

    def centralizer_of_mats(self, mats: list[np.ndarray]) -> np.ndarray:
        all_mats = self.table.mats.astype(np.int64)
        member = np.ones(self.table.N, dtype=bool)
        m = self.model.m
        for g in mats:
            g = np.asarray(g, dtype=np.int64) % m
            member &= ((all_mats @ g) % m == (g @ all_mats) % m).all(axis=(1, 2))
        return member

    def center(self) -> Subgroup:
        """Common fixed points of the generator conjugations."""

        def build():
            fixed = np.arange(self.table.N)
            member = np.ones(self.table.N, dtype=bool)
            for perm in self.table.egen_conj_perms():
                member &= perm == fixed
            return Subgroup(self.table, member)

        return self._memo("center", build)

    def centralizer(self, sub: Subgroup) -> Subgroup:
        gens = sub.gens or generating_set(self.table, sub)
        mats = [self.table.mat(i) for i in gens]
        return Subgroup(self.table, self.centralizer_of_mats(mats))

    def full_congruence(self, q: ZmIdeal) -> Subgroup:
        """Preimage of the center of the quotient group."""

        def build():
            if q.is_unit():
                return Subgroup(self.table, np.ones(self.table.N, dtype=bool))
            if q.is_zero():
                return self.center()
            qmodel = GroupModel(self.model.kind, self.model.degree, ZmRing(q.d), self.model.blocks)
            qctx = get_context(qmodel, self.cap)
            qcenter = qctx.center()
            reduced = qctx.table.lookup(self.table.mats.astype(np.int64) % q.d)
            assert (reduced >= 0).all()
            return Subgroup(self.table, qcenter.member[reduced])

        return self._memo(("full_congruence", q.d), build)

    def root_element_indices(self) -> dict[Vec, tuple[list[Vec], np.ndarray]]:
        """For each relative root, all values v with the index of X_alpha(v)."""

        def build():
            out = {}
            for alpha in self.model.rel_roots:
                vs = list(self.model.v_tuples(alpha))
                mats = np.stack([self.model.x(alpha, v) for v in vs])
                idx = self.table.lookup(mats)
                assert (idx >= 0).all()
                out[alpha] = (vs, idx)
            return out

        return self._memo("root_elements", build)

    def relative_elementary(self, q: ZmIdeal) -> Subgroup:
        """Normal closure in E of the q-valued relative root elements."""

        def build():
            mats = [self.model.x(alpha, v) for alpha in self.model.rel_roots
                    for v in self.model.v_tuples(alpha, q) if any(v)]
            return self.closure_of(
                _element_indices(self.table, mats, f"a root element with values in {q}").tolist()
            )

        return self._memo(("relative_elementary", self.model.blocks, q.d), build)

    def sandwich_ideals(self, sub: Subgroup) -> list[int]:
        """Generators d of the ideals q with E(R,q) <= sub <= C(R,q)."""
        return [q.d for q in self.ideals
                if self.relative_elementary(q).issubset(sub)
                and sub.issubset(self.full_congruence(q))]

    def orbits(self) -> tuple[np.ndarray, list[int]]:
        return self.closures.orbits()

    def orbit_closure(self, idx: int) -> Subgroup:
        """cl(idx), the same subgroup for every element of an E-orbit."""
        return self.closures.orbit_closure(idx)

    def closure_of(self, seeds) -> Subgroup:
        """Normal closure in E of the seeds: the join of the orbit closures
        of their orbits, largest first."""
        orbit, reps = self.orbits()
        closures = [self.orbit_closure(reps[k]) for k in sorted({int(orbit[s]) for s in seeds})]
        sub = subgroup_closure(self.table, [])
        for closure in sorted(closures, key=lambda c: -c.order):
            sub = self.closures.join(sub, closure)
        return sub

    def commutator_subgroup(self, x_gens, y_gens) -> Subgroup:
        """[X, Y] for subgroups normal in the group, from generating sets or
        Subgroup values."""
        t = self.table
        x_gens = np.asarray(self._as_gens(x_gens), dtype=np.int64)
        y_gens = np.asarray(self._as_gens(y_gens), dtype=np.int64)
        a, b = np.repeat(x_gens, len(y_gens)), np.tile(y_gens, len(x_gens))
        x, y, xinv, yinv = (t.mats[i].astype(np.int64) for i in (a, b, t.inv[a], t.inv[b]))
        seeds = t.lookup(xinv @ yinv @ x @ y)  # every [x, y] = x^-1 y^-1 x y at once
        assert (seeds >= 0).all()
        return self.closure_of(seeds.tolist())

    def _as_gens(self, obj) -> list[int]:
        if isinstance(obj, Subgroup):
            return obj.gens or generating_set(self.table, obj)
        return list(obj)


# -- sandwich classification -------------------------------------------------

def sandwich_classify(ctx: GroupContext, strict: bool = True) -> list[SandwichResult]:
    orbit, reps = ctx.orbits()
    results = []
    for rep in reps:
        sub = ctx.orbit_closure(rep)
        res = SandwichResult(
            seed_index=rep,
            orbit_size=int((orbit == orbit[rep]).sum()),
            closure_order=sub.order,
            admissible=ctx.sandwich_ideals(sub),
        )
        results.append(res)
        if strict and res.verdict != "unique":
            raise TheoremViolation(
                "Theorem main (ii)",
                f"seed {rep} on {ctx.model.name()} admits {res.verdict} sandwich",
                witness=res.as_dict(),
            )
    return results


def enormal_lattice(ctx: GroupContext) -> list[tuple[Subgroup, list[int]]]:
    """Every subgroup normalized by E, smallest first, with the ideals whose
    sandwich holds it.

    Every E-normal subgroup is the join of the orbit closures of its
    elements, so closing the distinct orbit closures under joins until
    nothing new appears gives the whole lattice."""
    _, reps = ctx.orbits()
    members: dict[bytes, Subgroup] = {}
    for rep in reps:
        sub = ctx.orbit_closure(rep)
        members.setdefault(sub.key(), sub)
    frontier = list(members.values())
    while frontier:
        new = []
        for a in frontier:
            for b in list(members.values()):
                joined = ctx.closures.join(a, b)
                if joined.key() not in members:
                    members[joined.key()] = joined
                    new.append(joined)
        frontier = new
    ordered = sorted(members.values(), key=lambda sub: sub.order)
    return [(sub, ctx.sandwich_ideals(sub)) for sub in ordered]


def verify_level_theorem(ctx: GroupContext, sub: Subgroup, q: ZmIdeal,
                         seed_index: int = -1, strict: bool = True) -> LevelReport:
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
    report = LevelReport(seed_index=seed_index, level=q.d, per_root=per_root, equal=equal)
    if strict and not equal:
        raise TheoremViolation(
            "Theorem cong-N",
            f"level {q.d} root intersections differ on {ctx.model.name()}",
            witness=report.as_dict(),
        )
    return report


def verify_commutator_formula(ctx: GroupContext, strict: bool = True) -> list[dict]:
    """[G(R,q), E(R)] = E(R,q) for every ideal q."""
    egens = ctx.table.gen_idxs.tolist()
    out = []
    for q in ctx.ideals:
        cong = ctx.congruence(q)
        if q.is_unit():
            x_gens = egens
        elif cong.order <= 4096:
            x_gens = cong.indices().tolist()
        else:
            x_gens = generating_set(ctx.table, cong)
        comm = ctx.commutator_subgroup(x_gens, egens)
        rel = ctx.relative_elementary(q)
        ok = comm == rel
        out.append({"ideal": q.d, "commutator_order": comm.order,
                    "relative_elementary_order": rel.order, "equal": ok})
        if strict and not ok:
            raise TheoremViolation(
                "Theorem main (i)",
                f"[G(R,({q.d})), E] != E(R,({q.d})) on {ctx.model.name()}",
                witness=out[-1],
            )
    return out


def verify_parabolic_independence(ctx: GroupContext, other_blocks, strict: bool = True) -> list[dict]:
    """E(R,q) agrees across block compositions."""
    if ctx.model.kind != "SL":
        raise ValueError("block comparison only applies to SL models")
    results = []
    for blocks in other_blocks:
        sib = ctx.sibling(tuple(blocks))
        for q in ctx.ideals:
            a = ctx.relative_elementary(q)
            b = sib.relative_elementary(q)
            ok = a == b
            results.append({"ideal": q.d, "blocks": list(blocks), "equal": ok})
            if strict and not ok:
                raise TheoremViolation(
                    "Lemma E_P",
                    f"E(R,({q.d})) differs between {ctx.model.blocks} and {blocks}",
                    witness=results[-1],
                )
    return results


def verify_structure_theorems(ctx: GroupContext, strict: bool = True) -> dict:
    """Normality of E, its centralizer, perfectness, and the derived-length
    stabilization of [H, E] for every orbit-seeded H."""
    table = ctx.table
    e_sub = ctx.elementary()
    e_normal = is_enormal(e_sub)

    cent_e = ctx.centralizer(e_sub) if e_sub.order < table.N else ctx.center()
    scheme = set(_element_indices(table, scheme_center_elements(ctx.model),
                                  "a point of the center subscheme").tolist())
    center_match = set(cent_e.indices().tolist()) == scheme

    egens = table.gen_idxs.tolist()
    derived = ctx.commutator_subgroup(egens, egens)
    perfect = derived == e_sub
    derived_index = e_sub.order // derived.order

    hall_witt_failures = []
    _, reps = ctx.orbits()
    seen_keys = {}
    for rep in reps:
        sub = ctx.orbit_closure(rep)
        k = sub.key()
        if k in seen_keys:
            continue
        seen_keys[k] = rep
        k1 = ctx.commutator_subgroup(sub.gens, egens)
        k2 = ctx.commutator_subgroup(k1.gens or generating_set(table, k1), egens)
        if k1 != k2:
            hall_witt_failures.append(rep)

    result = {
        "e_normal": e_normal,
        "e_order": e_sub.order,
        "centralizer_matches_center": center_match,
        "center_order": cent_e.order,
        "perfect": perfect,
        "derived_index": derived_index,
        "perfect_expected": ctx.hypotheses.perfect_ok,
        "hall_witt_failures": hall_witt_failures,
    }
    if strict:
        if not e_normal:
            raise TheoremViolation("Theorem EE", f"E not normal on {ctx.model.name()}")
        if not center_match:
            raise TheoremViolation("Theorem E-cent", f"centralizer(E) != center on {ctx.model.name()}")
        if ctx.hypotheses.perfect_ok and not perfect:
            raise TheoremViolation(
                "Theorem perfect", f"E not perfect on {ctx.model.name()}", witness=result
            )
        if ctx.hypotheses.perfect_ok and hall_witt_failures:
            raise TheoremViolation(
                "Lemma HallWitt", f"[[H,E],E] != [H,E] at seeds {hall_witt_failures}"
            )
    return result


def extract_unipotent(ctx: GroupContext, sub: Subgroup):
    """A nontrivial relative root element of the subgroup, if any."""
    for alpha, (vs, idxs) in ctx.root_element_indices().items():
        for v, i in zip(vs, idxs):
            if any(v) and sub.member[i]:
                return alpha, v
    return None


def verify_unipotent_extraction(ctx: GroupContext, strict: bool = True) -> dict:
    """Every noncentral orbit closure contains a root unipotent; the same
    holds for closures meeting the radical congruence subgroup noncentrally."""
    center = ctx.center()
    rad = jacobson_radical(ctx.model.ring)
    rad_sub = ctx.congruence(rad)
    _, reps = ctx.orbits()
    failures, rad_failures, noncentral = [], [], 0
    for rep in reps:
        sub = ctx.orbit_closure(rep)
        if sub.issubset(center):
            continue
        noncentral += 1
        found = extract_unipotent(ctx, sub)
        if found is None:
            failures.append(rep)
        meets_rad = Subgroup(ctx.table, sub.member & rad_sub.member)
        if not meets_rad.issubset(center) and found is None:
            rad_failures.append(rep)
    result = {"noncentral_closures": noncentral, "failures": failures,
              "radical_failures": rad_failures}
    if strict and (failures or rad_failures):
        raise TheoremViolation(
            "Lemma InP", f"noncentral closures without root unipotents: {failures}",
            witness=result,
        )
    return result


def simplicity_check(ctx: GroupContext, strict: bool = True) -> dict:
    """Over a prime field: every noncentral normal closure is everything."""
    if not _is_prime(ctx.model.m):
        raise ValueError("simplicity check runs over prime fields only")
    center = ctx.center()
    orbit, reps = ctx.orbits()
    full = ctx.table.N
    checked_elements = 0
    failures = []
    for rep in reps:
        if rep == ctx.table.identity_idx:
            continue
        sub = ctx.orbit_closure(rep)
        size = int((orbit == orbit[rep]).sum())
        if sub.issubset(center):
            continue
        checked_elements += size
        if sub.order != full:
            failures.append(rep)
    result = {"noncentral_elements": checked_elements, "group_order": full,
              "failures": failures}
    if strict and failures:
        raise TheoremViolation(
            "Tits simplicity", f"proper noncentral closures at {failures}", witness=result
        )
    return result


def _is_prime(m: int) -> bool:
    return m >= 2 and all(m % d for d in range(2, int(m**0.5) + 1))


def join_compatibility(ctx: GroupContext, pairs: int, rng, strict: bool = True) -> dict:
    """level(<g, g'>^E) = level(g) + level(g') on sampled pairs."""

    def level_of(sub: Subgroup) -> int | None:
        adm = ctx.sandwich_ideals(sub)
        return adm[0] if len(adm) == 1 else None

    checked, mismatches = 0, []
    for _ in range(pairs):
        g = rng.randrange(ctx.table.N)
        h = rng.randrange(ctx.table.N)
        a, b = ctx.orbit_closure(g), ctx.orbit_closure(h)
        la, lb, lj = level_of(a), level_of(b), level_of(ctx.closures.join(a, b))
        checked += 1
        if None in (la, lb, lj) or math.gcd(la, lb) != lj:
            mismatches.append({"g": g, "h": h, "levels": [la, lb, lj]})
    result = {"checked": checked, "mismatches": mismatches}
    if strict and mismatches:
        raise TheoremViolation("Theorem main (ii)", "join levels do not add", witness=result)
    return result


# -- centralizer lemmas -------------------------------------------------------

def _rel_rank(model: GroupModel) -> int:
    if model.kind == "SL":
        return len(model.blocks) - 1
    return {"borel": 2, "line": 1, "siegel": 1}[model.blocks]


def _simple_rel_roots(model: GroupModel) -> list[Vec]:
    """Positive relative roots that are not sums of two positive ones."""
    pos = model.positive_rel_roots
    sums = {tuple(x + y for x, y in zip(b, c)) for b in pos for c in pos}
    return [a for a in pos if a not in sums]


def _commutes_with_all(model: GroupModel, x: np.ndarray, mats) -> bool:
    m = model.m
    return all(
        ((x @ g) % m == (g @ x) % m).all() for g in mats
    )


def verify_u_cent_field(ctx: GroupContext, strict: bool = True) -> dict:
    """Anything commuting with the whole positive radical lies in the parabolic."""
    model = ctx.model
    gens = [model.x(a, v) for a in model.positive_rel_roots for v in model.v_tuples(a)]
    member = ctx.centralizer_of_mats(gens)
    mats = ctx.table.mats.astype(np.int64)
    failures = []
    for i in np.nonzero(member)[0].tolist():
        if not model.in_parabolic(mats[i]):
            failures.append(i)
    result = {"centralizing": int(member.sum()), "failures": failures}
    if strict and failures:
        raise TheoremViolation(
            "Lemma u-cent-field", f"centralizer escapes the parabolic at {failures}",
            witness=result,
        )
    return result


def verify_centralizer_beta(model: GroupModel, strict: bool = True) -> dict:
    """Radical elements commuting with a simple root family factor over the
    roots alpha with alpha+beta neither a relative root nor zero."""
    if _rel_rank(model) < 2:
        raise ValueError("needs an irreducible relative system of rank >= 2")
    results = {"checked": 0, "failures": []}
    roots = set(model.rel_roots)
    for beta in _simple_rel_roots(model):
        beta_mats = [model.x(beta, v) for v in model.v_tuples(beta)]
        for negative in (False, True):
            ch = calculus.radical_chart(model, negative)
            for key, comps in ch.by_key.items():
                x = np.array(key, dtype=np.int64).reshape(model.degree, model.degree)
                if not _commutes_with_all(model, x, beta_mats):
                    continue
                results["checked"] += 1
                support = [a for a, v in zip(ch.roots, comps) if any(v)]
                for a in support:
                    s = tuple(p + q for p, q in zip(a, beta))
                    if s in roots or not any(s):
                        results["failures"].append(
                            {"beta": beta, "x_support": support, "bad_root": a}
                        )
                        break
    if strict and results["failures"]:
        raise TheoremViolation(
            "Lemma centr-beta", f"support condition fails on {model.name()}",
            witness=results,
        )
    return results


def verify_small_levi_b(model: GroupModel, strict: bool = True) -> dict:
    """Elements of U_(beta) L U_(-beta) commuting with X_beta(V_beta) lie in
    X_{m beta}(V) L, with m beta the largest multiple of beta."""
    if _rel_rank(model) < 2:
        raise ValueError("needs an irreducible relative system of rank >= 2")
    m = model.m
    levi = model.levi_elements()
    results = {"checked": 0, "failures": []}
    for beta in _simple_rel_roots(model):
        multiples = calculus._multiple_cone(model, beta)
        top = multiples[-1]
        neg_multiples = tuple(tuple(-c for c in a) for a in multiples)
        up = calculus.chart(model, multiples)
        down = calculus.chart(model, neg_multiples)
        beta_mats = [model.x(beta, v) for v in model.v_tuples(beta)]
        allowed = set()
        for w in model.v_tuples(top):
            for l in levi:
                g = (model.x(top, w).astype(np.int64) @ l) % m
                allowed.add(tuple(int(t) for t in g.flatten()))
        for akey in up.by_key:
            a = np.array(akey, dtype=np.int64).reshape(model.degree, model.degree)
            for l in levi:
                for bkey in down.by_key:
                    b = np.array(bkey, dtype=np.int64).reshape(model.degree, model.degree)
                    x = (a @ l @ b) % m
                    if not _commutes_with_all(model, x, beta_mats):
                        continue
                    results["checked"] += 1
                    if tuple(int(t) for t in x.flatten()) not in allowed:
                        results["failures"].append({"beta": beta})
    if strict and results["failures"]:
        raise TheoremViolation(
            "Lemma small-levi-b", f"conclusion fails on {model.name()}", witness=results
        )
    return results


def verify_centralizer_lemmas(ctx: GroupContext, strict: bool = True) -> dict:
    """The three centralizer statements together: the whole-radical one over
    the context's parabolic, the other two over a rank >= 2 parabolic."""
    model = ctx.model
    out = {"u_cent_field": verify_u_cent_field(ctx, strict)}
    lemma_model = model
    if _rel_rank(model) < 2:
        lemma_model = model.with_blocks(
            "borel" if model.kind == "Sp" else (1,) * model.degree
        )
    out["centr_beta"] = verify_centralizer_beta(lemma_model, strict)
    out["small_levi_b"] = verify_small_levi_b(lemma_model, strict)
    return out


def gauss_brute_force_agrees(ctx: GroupContext) -> bool:
    """Cell membership verdicts against direct enumeration of U L U^-."""
    model = ctx.model
    m, n = model.m, model.degree
    up = calculus.radical_chart(model, negative=False)
    down = calculus.radical_chart(model, negative=True)
    u = np.array(list(up.by_key), dtype=np.int64).reshape(-1, 1, 1, n, n)
    l = np.stack(model.levi_elements())[None, :, None]
    v = np.array(list(down.by_key), dtype=np.int64).reshape(1, 1, -1, n, n)
    cell = _element_indices(ctx.table, (u @ l % m) @ v % m, "a product u*l*v of the main cell")
    members = np.zeros(ctx.table.N, dtype=bool)
    members[cell] = True
    return bool((gauss_cell_factors(model, ctx.table.mats)[0] == members).all())


def _element_indices(table: ElementTable, mats, what: str) -> np.ndarray:
    """Table indices of matrices that must be group elements; a RuntimeError
    naming `what` when one is not."""
    idx = table.lookup(np.asarray(mats, dtype=np.int64).reshape(-1, table.n, table.n))
    if (idx < 0).any():
        raise RuntimeError(f"{table.model.name()}: {what} is not in the element table")
    return idx
