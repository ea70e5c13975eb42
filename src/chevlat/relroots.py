"""Relative root systems obtained by projecting an absolute root system.

The projection kills the simple roots outside a chosen set J and identifies
the orbits of a diagram automorphism group Gamma acting on J.  The image of
the root set, minus zero, is the relative root system; it may be non-reduced
(BC type).  Fibers of the projection are stored eagerly since the
combinatorial checks below query them in inner loops.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .rootsys import (
    Coords,
    Perm,
    RootSystem,
    RootSystemType,
    automorphism_subgroups,
    build_root_system,
    diagram_automorphisms,
    is_positive,
    perm_compose,
    perm_inverse,
    perm_on_root,
)


def _gamma_orbits(indices: frozenset[int], gamma: tuple[Perm, ...]) -> list[tuple[int, ...]]:
    """Gamma-orbits of a set of simple-root indices, sorted by least member."""
    seen = set()
    orbits = []
    for i in sorted(indices):
        if i in seen:
            continue
        orb = {i}
        frontier = [i]
        while frontier:
            j = frontier.pop()
            for p in gamma:
                k = p[j]
                if k not in orb:
                    orb.add(k)
                    frontier.append(k)
        orbits.append(tuple(sorted(orb)))
        seen |= orb
    return orbits


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

    def project(self, v: Coords) -> Coords:
        return tuple(sum(row[i] * v[i] for i in range(len(v))) for row in self.projection)

    def fiber(self, a: Coords) -> frozenset[Coords]:
        return self.fibers[a]

    def positive_rel_roots(self) -> list[Coords]:
        return sorted(a for a in self.rel_roots if is_positive(a))


def build_relative(datum: RelativeDatum) -> RelativeRootSystem:
    base = datum.base
    orbits = _gamma_orbits(datum.J, datum.gamma)
    k = len(orbits)
    proj = tuple(
        tuple(1 if i in orb else 0 for i in range(base.rank)) for orb in orbits
    )

    def project(v: Coords) -> Coords:
        return tuple(sum(row[i] * v[i] for i in range(len(v))) for row in proj)

    fibers: dict[Coords, set[Coords]] = {}
    for mu in base.roots:
        a = project(mu)
        if any(a):
            fibers.setdefault(a, set()).add(mu)
    return RelativeRootSystem(
        datum=datum,
        orbits=tuple(orbits),
        projection=proj,
        rel_roots=frozenset(fibers),
        fibers={a: frozenset(f) for a, f in fibers.items()},
    )


def relative_simple_roots(rel: RelativeRootSystem) -> set[Coords]:
    """Images of the simple roots that survive the projection."""
    out = set()
    for i in sorted(rel.datum.J):
        a = rel.project(tuple(1 if j == i else 0 for j in range(rel.datum.base.rank)))
        if any(a):
            out.add(a)
    return out


def _vec_add(a: Coords, b: Coords) -> Coords:
    return tuple(x + y for x, y in zip(a, b))


def _vec_neg(a: Coords) -> Coords:
    return tuple(-x for x in a)


def _vec_scale(j: int, a: Coords) -> Coords:
    return tuple(j * x for x in a)


def check_fiber_additivity(rel: RelativeRootSystem, a: Coords, b: Coords) -> bool:
    """Every root over a+b splits as a root over a plus a root over b."""
    s = _vec_add(a, b)
    for v in (a, b, s):
        if v not in rel.rel_roots:
            raise ValueError(f"{v} is not a relative root")
    fa, fb = rel.fiber(a), rel.fiber(b)
    for mu in rel.fiber(s):
        if not any(tuple(m - x for m, x in zip(mu, m1)) in fb for m1 in fa):
            return False
    return True


def check_adjacent_simple(rel: RelativeRootSystem, a: Coords, b: Coords) -> bool:
    """If a, b are simple relative roots with a+b a relative root, then
    a + j*b is a relative root for every j with j*b a relative root."""
    simples = relative_simple_roots(rel)
    if a not in simples or b not in simples:
        raise ValueError("a and b must be simple relative roots")
    if _vec_add(a, b) not in rel.rel_roots:
        raise ValueError("a+b must be a relative root")
    j = 1
    while _vec_scale(j, b) in rel.rel_roots:
        if _vec_add(a, _vec_scale(j, b)) not in rel.rel_roots:
            return False
        j += 1
    return True


def _sigma_direct(rel: RelativeRootSystem, b: Coords, mode: str) -> frozenset[Coords]:
    base = rel.datum.base
    fiber_sum = tuple(sum(col) for col in zip(*rel.fiber(b)))
    # sign of (mu, fiber_sum) = sign of sum_i mu_i * 2(alpha_i, fiber_sum)
    form = [base.pairing2(e, fiber_sum) for e in base.simple_roots]
    out = set()
    for a in rel.rel_roots:
        vals = [sum(x * f for x, f in zip(mu, form)) >= 0 for mu in rel.fiber(a)]
        if (all(vals) if mode == "all" else any(vals)):
            out.add(a)
    return frozenset(out)


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
    gamma_set = {tuple(range(cover.rank)), generator}
    while True:
        new = {perm_compose(a, b) for a in gamma_set for b in gamma_set}
        if new <= gamma_set:
            break
        gamma_set |= new
    gamma = tuple(sorted(gamma_set))
    rel = fold(cover, gamma)
    p = match_coordinates(rel.rel_roots, sys)
    if p is None:
        raise RuntimeError(f"folding {cover_type} did not reproduce {sys.rtype}")
    _UNFOLD_CACHE[sys.rtype] = (cover, gamma, p)
    return _UNFOLD_CACHE[sys.rtype]


def sigma_set(rel: RelativeRootSystem, b: Coords, mode: str = "all") -> frozenset[Coords]:
    """Parabolic subset attached to a simple relative root b.

    For a simply-laced base this is the half-space cut out by pairing
    against the summed fiber of b.  For a multiply-laced base the system is
    rewritten over its simply-laced cover first and the same computation
    runs there; the composite projection has the same relative roots, which
    is asserted, and the result is carried back along the coordinate match.
    """
    if b not in relative_simple_roots(rel):
        raise ValueError(f"{b} is not a simple relative root")
    base = rel.datum.base
    if base.is_simply_laced():
        return _sigma_direct(rel, b, mode)

    if len(rel.datum.gamma) != 1:
        raise ValueError("multiply-laced bases have no nontrivial diagram automorphisms")
    cover, cover_gamma, coord_perm = unfold(base)
    fold_orbits = _gamma_orbits(frozenset(range(cover.rank)), cover_gamma)
    # Simple roots of the cover whose folded image lies in J.
    j2 = frozenset(
        i for orb_idx, orb in enumerate(fold_orbits) if coord_perm[orb_idx] in rel.datum.J
        for i in orb
    )
    rel2 = build_relative(RelativeDatum(cover, j2, cover_gamma))
    sorted_j = sorted(rel.datum.J)
    # rel2 coordinate -> rel coordinate, through the folded simple root.
    coord_map = []
    for orb in rel2.orbits:
        fold_idx = next(i for i, o in enumerate(fold_orbits) if orb[0] in o)
        coord_map.append(sorted_j.index(coord_perm[fold_idx]))
    as_perm = tuple(coord_map)
    remapped = {perm_on_root(as_perm, v) for v in rel2.rel_roots}
    if remapped != rel.rel_roots:
        raise RuntimeError("cover projection disagrees with the direct one")
    b2 = perm_on_root(perm_inverse(as_perm), b)
    sigma2 = _sigma_direct(rel2, b2, mode)
    return frozenset(perm_on_root(as_perm, v) for v in sigma2)


def sigma_properties(rel: RelativeRootSystem, b: Coords,
                     sigma: frozenset[Coords] | None = None) -> dict[str, bool]:
    """The properties a sigma set must satisfy, each checked exhaustively."""
    if sigma is None:
        sigma = sigma_set(rel, b)
    roots = rel.rel_roots
    additively_closed = all(
        _vec_add(x, y) in sigma
        for x in sigma
        for y in sigma
        if _vec_add(x, y) in roots
    )
    covers = sigma | {_vec_neg(v) for v in sigma} == roots
    proper = sigma != roots
    required = {
        a for a in roots
        if _vec_add(a, b) not in roots and any(x + y for x, y in zip(a, b))
    }
    contains_required = required <= sigma
    return {
        "additively_closed": additively_closed,
        "covers_with_negation": covers,
        "proper": proper,
        "contains_non_addable": contains_required,
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
    base = rel.datum.base
    for p in rel.datum.gamma:
        for mu in base.roots:
            if rel.project(perm_on_root(p, mu)) != rel.project(mu):
                counts["gamma_invariance_failed"] += 1
    simples = relative_simple_roots(rel)
    for a in simples:
        for b in simples:
            if a != b and _vec_add(a, b) in rel.rel_roots:
                counts["adjacent_checked"] += 1
                if not check_adjacent_simple(rel, a, b):
                    counts["adjacent_failed"] += 1
    for a in rel.rel_roots:
        for b in rel.rel_roots:
            if _vec_add(a, b) in rel.rel_roots:
                counts["fiber_checked"] += 1
                if not check_fiber_additivity(rel, a, b):
                    counts["fiber_failed"] += 1
    for b in simples:
        sigma = sigma_set(rel, b)
        counts["sigma_checked"] += 1
        if not all(sigma_properties(rel, b, sigma).values()):
            counts["sigma_failed"] += 1
        if base.is_simply_laced():
            counts["sigma_forms_checked"] += 1
            if sigma != sigma_set(rel, b, "some"):
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
    gamma = {tuple(range(base[1])), gen}
    while True:
        new = {perm_compose(a, b) for a in gamma for b in gamma}
        if new <= gamma:
            break
        gamma |= new
    rel = fold(build_root_system(RootSystemType(*base)), tuple(sorted(gamma)))
    return match_coordinates(rel.rel_roots, build_root_system(RootSystemType(*target))) is not None
