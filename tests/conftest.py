import itertools
import math
from functools import lru_cache

import numpy as np
import pytest

from chevlat import calculus, lattice, models, relroots
from chevlat.rings import adjugate_int, det_int, unit_inverses
from chevlat.table import CHUNK


# The models on which the stacked calculus and centralizer readers are
# compared with their per-element references; Sp4(Z/2) is the negative
# control, where the references find counterexamples.
REFERENCE_MODELS = [
    models.GroupModel("SL", 3, m, (1, 1, 1)) for m in (2, 3, 4, 9)
] + [
    models.GroupModel("SL", 4, 2, (1, 1, 1, 1)),
    models.GroupModel("Sp", 4, 3, "borel"),
    models.GroupModel("Sp", 4, 2, "borel"),
]


def unfold(sys):
    """Simply-laced cover of a multiply-laced system, by its type.

    Returns (cover, gamma, coord_perm) where folding the cover by gamma
    reproduces the system of that type, and coord_perm maps the fold's orbit
    coordinates onto its Bourbaki simple-root indices.
    """
    return relroots._unfolded(sys.rtype)[:3]


@lru_cache(maxsize=None)
def ctx_for(kind, degree, m, blocks):
    """Contexts are cached for the whole test session, so tests share element tables."""
    return lattice.GroupContext(models.GroupModel(kind, degree, m, blocks))


def v_tuples(model, alpha, d=1):
    """Every v of V_alpha with entries in the ideal (d), as tuples in the order
    of itertools.product: the reference enumeration of model.values(alpha)."""
    return itertools.product(range(0, model.m, d), repeat=model.v_dim(alpha))


def index_of(table, mat):
    """Table index of one matrix, None if it is not a group element."""
    idx = int(table.lookup(np.asarray(mat)[None])[0])
    return None if idx < 0 else idx


def table_inverses(table, idx=None):
    """The indices of the inverses of the elements idx (by default all of the
    table), `model.inverse` looked up in stacks of CHUNK."""
    idx = np.arange(table.N) if idx is None else np.asarray(idx)
    inv = np.concatenate([table.lookup(table.model.inverse(table.mat(idx[a:a + CHUNK])))
                          for a in range(0, len(idx), CHUNK)])
    assert (inv >= 0).all()
    return inv


def mat_inverse_mod(mat, m):
    """Inverse mod m of one matrix or of a (..., n, n) stack, via the
    adjugate; None when a determinant is not a unit."""
    a = np.asarray(mat, dtype=np.int64)
    dinv = unit_inverses(m)[np.asarray(det_int(a)) % m]  # 0 marks a non-unit
    if not dinv.all():
        return None
    return (adjugate_int(a) * dinv[..., None, None]) % m


def units(m):
    """The units of Z/m."""
    return [a for a in range(1, m) if math.gcd(a, m) == 1]


def ideal_generated_by(m, x):
    """The ideal (x) of Z/m as its generator gcd(x, m), m for the zero ideal."""
    return math.gcd(x % m, m) or m


def relative_simple_roots(rel):
    """Images of the simple roots that survive the projection."""
    idx = rel.index
    return set(map(tuple, idx.coords[idx.simple].tolist()))


def sl_block_pairs(blocks):
    """The relative roots of SL_n with a block composition, each with its block
    pair (i, j): 1 on the crossed boundaries i..j-1 for i < j, -1 on j..i-1
    for i > j."""
    k = len(blocks)
    out = {}
    for i, j in itertools.permutations(range(k), 2):
        lo, hi, sign = (i, j, 1) if i < j else (j, i, -1)
        out[tuple(sign if lo <= t < hi else 0 for t in range(k - 1))] = (i, j)
    return out


def not_sums(roots):
    """The positive roots that are not sums of two positive ones, in the given order."""
    pos = [a for a in roots if any(a) and min(a) >= 0]
    sums = {tuple(x + y for x, y in zip(b, c)) for b in pos for c in pos}
    return [a for a in pos if a not in sums]


def perm_on_root(perm, coords):
    """Action of a simple-root permutation on a root-lattice vector:
    (p . v)[p[i]] = v[i]."""
    out = [0] * len(coords)
    for i, c in enumerate(coords):
        out[perm[i]] = c
    return tuple(out)


def project(rel, v):
    """The relative coordinates of an absolute root-lattice vector."""
    return tuple(sum(v[i] for i in orb) for orb in rel.orbits)


def root_ids(rel, vecs):
    """Ids of the given coordinate vectors among the relative roots, -1 where
    a vector is not one (or has the wrong length)."""
    arr = np.array(vecs, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != rel.rank:
        return np.full(len(vecs), -1)
    return rel.index.lookup(arr)


def adjacent_ok(idx, ia, ib):
    """relroots._chains_ok on one pair of ids of a relative index."""
    return bool(relroots._chains_ok(lambda x, y: idx.add[x, y], np.array([ia]), np.array([ib]))[0])


def check_adjacent_simple(rel, a, b):
    """If a, b are simple relative roots with a+b a relative root, then
    a + j*b is a relative root for every j with j*b a relative root."""
    idx = rel.index
    ia, ib = root_ids(rel, [a, b])
    if ia not in idx.simple or ib not in idx.simple:
        raise ValueError("a and b must be simple relative roots")
    if idx.add[ia, ib] < 0:
        raise ValueError("a+b must be a relative root")
    return adjacent_ok(idx, ia, ib)


def reference_adjacent_ok(idx, ia, ib):
    """adjacent_ok by coordinates: one lookup of j*b and of a + j*b per j."""
    va, vb = idx.coords[ia], idx.coords[ib]
    j = 1
    while idx.lookup(j * vb) >= 0:
        if idx.lookup(va + j * vb) < 0:
            return False
        j += 1
    return True


def reference_dedupe(keys):
    """What table._dedupe returns: the distinct keys, the position of each
    one's first occurrence and the id of every key among them."""
    return np.unique(keys, return_index=True, return_inverse=True)


def simple_slot(st, rel, b):
    """The unit-vector column of a one-datum stack that holds the simple
    relative root b."""
    (ib,) = root_ids(rel, [b])
    if ib < 0 or ib not in st.simple[0]:
        raise ValueError(f"{b} is not a simple relative root")
    return int(np.flatnonzero(st.simple[0] == ib)[0])


def sigma_masks(rel):
    """relroots._Stack.sigma_masks of one datum as (len(simple), n) masks, rows in
    the order of rel.index.simple.  A one-datum stack numbers the relative
    roots as rel.index does."""
    st = relroots._Stack([rel])
    cols = [int(np.flatnonzero(st.simple[0] == ib)[0]) for ib in rel.index.simple]
    every, some = st.sigma_masks()
    return every[:, cols].T, some[:, cols].T


def sigma_set(rel, b, mode="all"):
    """Parabolic subset attached to a simple relative root b, as a set of
    tuples: the column of b in the masks of relroots._Stack.sigma_masks."""
    st = relroots._Stack([rel])
    j = simple_slot(st, rel, b)
    every, some = st.sigma_masks()
    mask = (every if mode == "all" else some)[:, j]
    return frozenset(map(tuple, rel.index.coords[mask].tolist()))


def sigma_properties(rel, b, sigma=None):
    """relroots._Stack.sigma_checks on a simple root b and a set of tuples sigma
    (by default sigma_set(rel, b)), one verdict per property."""
    if sigma is None:
        sigma = sigma_set(rel, b)
    st = relroots._Stack([rel])
    j = simple_slot(st, rel, b)
    ids = root_ids(rel, sorted(sigma))
    if (ids < 0).any():
        raise ValueError("the members of sigma must be relative roots")
    inside = np.zeros((len(st.dat), st.simple.shape[1]), dtype=bool)
    inside[ids, j] = True
    checks = st.sigma_checks(inside)
    return {name: bool(ok[0, j]) for name, ok in checks.items()}


def check_fiber_additivity(rel, a, b):
    """Every root over a+b splits as a root over a plus a root over b."""
    s = tuple(x + y for x, y in zip(a, b))
    ids = root_ids(rel, [a, b, s])
    for v, i in zip((a, b, s), ids):
        if i < 0:
            raise ValueError(f"{v} is not a relative root")
    # mu - nu is a root for mu over a+b and nu over a, so it lies over b.
    return not relroots._Stack([rel]).unsplit()[0, ids[2], ids[0]]


def unipotent_factor(model, psi, g):
    """Components of g as an ordered product over psi; error if g is not in
    the corresponding unipotent group."""
    ch = calculus.chart(model, tuple(psi))
    code = ch.lookup(g)
    if code < 0:
        raise ValueError("matrix is not a product over the given root set")
    return {a: tuple(v.tolist()) for a, v in zip(ch.roots, ch.components(code))}


@lru_cache(maxsize=None)
def reference_chart(model, roots):
    """Reference chart: {matrix entries: value tuples per root} over the
    canonical order of roots, one product per value tuple, in the order of
    itertools.product (first root most significant)."""
    ordered = tuple(calculus.canonical_root_order(roots))
    by_key = {}
    for combo in itertools.product(*[list(v_tuples(model, a)) for a in ordered]):
        g = model.identity()
        for alpha, v in zip(ordered, combo):
            g = g @ model.x(alpha, v) % model.m
        key = tuple(int(x) for x in g.flatten())
        if key in by_key:
            raise RuntimeError(f"product map not injective over {ordered}")
        by_key[key] = combo
    return ordered, by_key


def _reference_components(model, roots, g):
    ordered, by_key = reference_chart(model, tuple(roots))
    return ordered, by_key.get(tuple(int(x) % model.m for x in np.asarray(g).flatten()))


def reference_pair_cone(model, alpha, beta):
    """The relative roots i*alpha + j*beta, 1 <= i, j <= 6, in canonical
    order, by a loop over (i, j)."""
    out = set()
    for i in range(1, 7):
        for j in range(1, 7):
            v = tuple(i * a + j * b for a, b in zip(alpha, beta))
            if model.is_rel_root(v):
                out.add(v)
    return tuple(calculus.canonical_root_order(out))


def reference_cone_degrees(model, alpha, beta):
    """Roots i*alpha + j*beta whose (i, j) representation is unique, by a
    loop over the cone and (i, j)."""
    reps = {}
    for gamma in reference_pair_cone(model, alpha, beta):
        for i in range(1, 7):
            for j in range(1, 7):
                if tuple(i * a + j * b for a, b in zip(alpha, beta)) == gamma:
                    reps.setdefault(gamma, []).append((i, j))
    return {g: ij[0] for g, ij in reps.items() if len(ij) == 1}


def commutator(x, y, model):
    """[x, y] = x^-1 y^-1 x y of two elements or of two (..., n, n) stacks."""
    m = model.m
    return model.inverse(x) @ model.inverse(y) % m @ x % m @ y % m


def chevalley_commutator_decompose(model, alpha, u, beta, v):
    """[X_alpha(u), X_beta(v)] factored over {i*alpha + j*beta}: (root,
    value) pairs with nonzero value, in canonical order."""
    if not (model.is_rel_root(alpha) and model.is_rel_root(beta)):
        raise ValueError("alpha and beta must be relative roots")
    if calculus.opposed_multiples(alpha, beta):
        raise ValueError("opposite multiples are excluded")
    return cone_decompose(model, alpha, beta, commutator(model.x(alpha, u), model.x(beta, v), model))


def cone_decompose(model, alpha, beta, c):
    """A matrix c factored over the cone {i*alpha + j*beta}: (root, value)
    pairs with nonzero value, in canonical order; RuntimeError off the cone's
    unipotent group."""
    cone = calculus._pair_cone(model, alpha, beta)
    if not cone:
        if not (c == model.identity()).all():
            raise RuntimeError("commutator is not trivial over an empty cone")
        return []
    ordered, comps = _reference_components(model, cone, c)
    if comps is None:
        raise RuntimeError("commutator left the expected unipotent group")
    return [(g, w) for g, w in zip(ordered, comps) if any(w)]


def component_at(decomp, gamma):
    for g, v in decomp:
        if g == gamma:
            return v
    return None


def reference_levi_conjugation_decompose(model, g, alpha, v):
    """g X_alpha(v) g^-1 = prod_i X_{i alpha}(phi_i(v)) for one Levi g."""
    if not model.in_levi(g):
        raise ValueError("conjugator must lie in the Levi subgroup")
    cone = calculus._multiple_cone(model, alpha)
    conj = g @ model.x(alpha, v) % model.m @ model.inverse(g) % model.m
    ordered, comps = _reference_components(model, cone, conj)
    if comps is None:
        raise RuntimeError("Levi conjugation left the unipotent group")
    return {sum(gam) // sum(alpha): val for gam, val in zip(ordered, comps)}


def reference_lemma_ABe_witness(model, alpha, beta, u):
    """Lemma ABe for one u, generator by generator; -1 without a witness."""
    target = tuple(a + b for a, b in zip(alpha, beta))
    for i, e in enumerate(np.eye(model.v_dim(alpha), dtype=np.int64)):
        comp = component_at(chevalley_commutator_decompose(model, alpha, e, beta, u), target)
        if comp is not None and any(comp):
            return i
    return -1


def reference_lemma_const_check(model, alpha, beta):
    """Lemma const, one commutator decomposition per (u, v)."""
    target = tuple(a + b for a, b in zip(alpha, beta))
    pairs = [(alpha, beta)]
    diff = tuple(a - b for a, b in zip(alpha, beta))
    if model.is_rel_root(diff):
        two_beta = tuple(2 * b for b in beta)
        if model.is_rel_root(two_beta):
            pairs.append((diff, two_beta))
        pairs.append((diff, beta))
    values = []
    for a, b in pairs:
        for u in v_tuples(model, a):
            for v in v_tuples(model, b):
                comp = component_at(chevalley_commutator_decompose(model, a, u, b, v), target)
                if comp is not None:
                    values.append(comp)
    m, d = model.m, model.v_dim(target)
    return additive_closure(values, d, m) == m ** d


def additive_closure(values, dim, m):
    """Order of the subgroup of (Z/m)^dim generated by a set of tuples, by a
    BFS over tuples."""
    zero = (0,) * dim
    seen = {zero}
    frontier = [zero]
    gens = {tuple(x % m for x in v) for v in values}
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                s = tuple((x + y) % m for x, y in zip(a, g))
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return len(seen)


def reference_pairing_sweep(model):
    """The per-element pairing loop: (abe_ok, abe_checked, const_ok,
    const_checked), stopping at the first u without a witness."""
    abe_checked, const_ok, const_checked = 0, True, 0
    for alpha in model.rel_roots:
        for beta in model.rel_roots:
            s = tuple(a + b for a, b in zip(alpha, beta))
            if calculus.opposed_multiples(alpha, beta) or not model.is_rel_root(s):
                continue
            for u in v_tuples(model, beta):
                if any(u):
                    if reference_lemma_ABe_witness(model, alpha, beta, u) < 0:
                        return False, abe_checked, const_ok, const_checked
                    abe_checked += 1
            const_checked += 1
            if not reference_lemma_const_check(model, alpha, beta):
                const_ok = False
    return True, abe_checked, const_ok, const_checked


def reference_levi_conjugation_check(model, levis):
    """The per-element Levi-conjugation loop over every g in levis, every
    relative root alpha, every v of V_alpha and every scale r."""
    m = model.m
    for g in levis:
        for alpha in model.rel_roots:
            phi = {v: reference_levi_conjugation_decompose(model, g, alpha, v)
                   for v in v_tuples(model, alpha)}
            for v, phi_v in phi.items():
                for r in range(m):
                    phi_r = phi[tuple(r * c % m for c in v)]
                    for i, val in phi_v.items():
                        if phi_r[i] != tuple(pow(r, i, m) * c % m for c in val):
                            return False
    return True


def _commutes_with_all(model, x, mats):
    m = model.m
    return all(((x @ g) % m == (g @ x) % m).all() for g in mats)


def reference_centralizer_beta(model):
    """The per-element loop of lattice.verify_centralizer_beta."""
    results = {"checked": 0, "failures": []}
    roots = set(model.rel_roots)
    for beta in lattice._simple_rel_roots(model):
        beta_mats = [model.x(beta, v) for v in v_tuples(model, beta)]
        for negative in (False, True):
            ordered, by_key = reference_chart(model, calculus.radical_roots(model, negative))
            for key, comps in by_key.items():
                x = np.array(key, dtype=np.int64).reshape(model.degree, model.degree)
                if not _commutes_with_all(model, x, beta_mats):
                    continue
                results["checked"] += 1
                support = [a for a, v in zip(ordered, comps) if any(v)]
                for a in support:
                    s = tuple(p + q for p, q in zip(a, beta))
                    if s in roots or not any(s):
                        results["failures"].append(
                            {"beta": beta, "x_support": support, "bad_root": a})
                        break
    return results


def reference_small_levi_b(model):
    """The per-element loop of lattice.verify_small_levi_b."""
    m = model.m
    levi = model.levi_elements()
    results = {"checked": 0, "failures": []}
    for beta in lattice._simple_rel_roots(model):
        multiples = calculus._multiple_cone(model, beta)
        top = multiples[-1]
        neg_multiples = tuple(tuple(-c for c in a) for a in multiples)
        up = reference_chart(model, multiples)[1]
        down = reference_chart(model, neg_multiples)[1]
        beta_mats = [model.x(beta, v) for v in v_tuples(model, beta)]
        allowed = set()
        for w in v_tuples(model, top):
            for l in levi:
                g = (model.x(top, w).astype(np.int64) @ l) % m
                allowed.add(tuple(int(t) for t in g.flatten()))
        for akey in up:
            a = np.array(akey, dtype=np.int64).reshape(model.degree, model.degree)
            for l in levi:
                for bkey in down:
                    b = np.array(bkey, dtype=np.int64).reshape(model.degree, model.degree)
                    x = (a @ l @ b) % m
                    if not _commutes_with_all(model, x, beta_mats):
                        continue
                    results["checked"] += 1
                    if tuple(int(t) for t in x.flatten()) not in allowed:
                        results["failures"].append({"beta": beta})
    return results


def reference_elements_on(model, support, chunk=8192):
    """Reference predicate scan: every filling of the support decided one by
    one by is_element, in chunks, in lexicographic order of the supported
    entries read row by row."""
    m, n = model.m, model.degree
    pos = np.flatnonzero(support)
    weights = m ** np.arange(len(pos) - 1, -1, -1, dtype=np.int64)  # first entry most significant
    found, total = [], m ** len(pos)
    for lo in range(0, total, chunk):
        c = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        mats = np.zeros((len(c), n * n), dtype=np.int64)
        mats[:, pos] = c[:, None] // weights % m
        mats = mats.reshape(-1, n, n)
        found.append(mats[model.is_element(mats)])
    return np.concatenate(found)


def reference_congruence(ctx, d):
    """G(R,q), q = (d), from the matrices: every entry of mats % d against the identity mod d."""
    eye = np.eye(ctx.table.n, dtype=np.int64)
    return (ctx.table.mat(np.arange(ctx.table.N)) % d == eye % d).all(axis=(1, 2))


def reference_center(ctx):
    """The common fixed points of the E generator conjugations."""
    member = np.ones(ctx.table.N, dtype=bool)
    fixed = np.arange(ctx.table.N)
    for g in ctx.table.gen_idxs:
        member &= ctx.table.conj_perm(g) == fixed
    return member


def reference_full_congruence(ctx, d):
    """C(R,q) of q = (d) by its definition: the preimage of the center of
    G(R/q), with the center taken on the quotient's own element table and
    every element looked up there by its matrix mod d."""
    if d == 1:
        return np.ones(ctx.table.N, dtype=bool)
    if d == ctx.model.m:
        return reference_center(ctx)
    model = ctx.model
    qctx = ctx_for(model.kind, model.degree, d, model.blocks)
    reduced = qctx.table.lookup(ctx.table.mat(np.arange(ctx.table.N)) % d)
    assert (reduced >= 0).all()
    return reference_center(qctx)[reduced]


def reference_products(table, member, frontier, gen_idxs):
    """lattice._products by the generators' indices, with one gather per E
    generator conjugation and np.unique deduplicating each chunk."""
    tables = table.row_tables(table.mat(gen_idxs))
    chunk = max(1, 65536 // (len(gen_idxs) + len(table.gen_idxs)))
    found = []
    for lo in range(0, frontier.size, chunk):
        part = frontier[lo:lo + chunk]
        idx = np.concatenate([table.right_mult(part, tables).ravel()]
                             + [table.conj_perm(g)[part] for g in table.gen_idxs.tolist()])
        new = np.unique(idx[~member[idx]])
        member[new] = True
        found.append(new)
    return np.concatenate(found) if found else np.empty(0, dtype=np.int32)


class BitsetSubgroup:
    """A subset of the element table as an N-byte bitset, with `gens` that
    generate it: what the oracles here build, subsets that are not unions
    of E-orbits among them (root subgroups).  It compares with a
    `lattice.Subgroup` on its right, or another bitset, through bitsets."""

    def __init__(self, member, gens=()):
        self.member = member
        self.gens = list(gens)

    @classmethod
    def trivial(cls, table):
        member = np.zeros(table.N, dtype=bool)
        member[table.identity_idx] = True
        return cls(member)

    @property
    def order(self):
        return int(self.member.sum())

    def indices(self):
        return np.flatnonzero(self.member)

    def __contains__(self, idx):
        return bool(self.member[idx])

    def issubset(self, other):
        return not (self.member & ~other.member).any()

    def __eq__(self, other):
        return np.array_equal(self.member, other.member)


def reference_subgroup_closure(table, seed_idxs, base=None):
    """The plain subgroup generated by the seeds and `base`, a subgroup
    whose gens generate it, by right multiplication only: each seed not yet
    a member becomes a generator, and a BFS runs until the bitset is closed
    under right multiplication by every generator, which in a finite group
    makes it the generated subgroup.  Its gens generate it."""
    base = base or BitsetSubgroup.trivial(table)
    member = base.member.copy()
    gens = list(base.gens)
    for seed in np.asarray(seed_idxs, dtype=np.int64).tolist():
        if member[seed]:
            continue
        gens.append(seed)
        frontier = np.flatnonzero(member)
        while frontier.size:
            idx = table.right_mult(frontier, table.row_tables(table.mat(gens)))
            frontier = np.unique(idx[~member[idx]])
            member[frontier] = True
    return BitsetSubgroup(member, gens)


def reference_normal_closure(table, seed, stop=None):
    """lattice.normal_closure without its whole-group exit: every BFS runs
    to its fixed point."""
    member = BitsetSubgroup.trivial(table).member
    tables = table.row_tables(table.mat([seed]))
    frontier = np.flatnonzero(member)
    while frontier.size:
        frontier = lattice._products(table, member, frontier, tables)
        found = stop(frontier) if stop is not None else None
        if found is not None:
            return found
    return member


def is_enormal(table, sub):
    """Whether every E generator conjugation maps the bitset into itself,
    checked member by member with N-byte masks."""
    member = sub.member
    return not any((member & ~member[perm]).any() for perm in table.conj)


def plain_normal_closure(table, seeds):
    """Reference normal closure under E: grow the generated subgroup until
    the bitset is a fixed point of every generator conjugation."""
    sub = reference_subgroup_closure(table, seeds)
    while True:
        members = sub.indices()
        images = table.conj[:, members].ravel()
        missing = np.unique(images[~sub.member[images]])
        if not missing.size:
            return sub
        sub = reference_subgroup_closure(table, missing, base=sub)


def generating_set(table, sub):
    """A small generating set of a given subgroup, built greedily."""
    closure = reference_subgroup_closure(table, np.flatnonzero(sub.member))
    assert closure == sub
    return closure.gens


def reference_closure_of(ctx, seeds):
    """GroupContext.closure_of joining the closure of every seed orbit,
    shared closure objects included, largest first."""
    orbit, reps, _ = ctx.orbits()
    closures = [ctx.orbit_closure(reps[k]) for k in sorted({int(orbit[s]) for s in seeds})]
    sub = ctx.orbit_closure(ctx.table.identity_idx)
    for closure in sorted(closures, key=lambda c: -c.order):
        sub = ctx.closures.join(sub, closure)
    return sub


def bfs_orbits(table):
    """Reference E-orbits: one BFS over the generator conjugations per
    element not yet reached, orbits numbered in order of their least
    member."""
    orbit = np.full(table.N, -1, dtype=np.int64)
    next_id = 0
    for start in range(table.N):
        if orbit[start] >= 0:
            continue
        orbit[start] = next_id
        frontier = np.array([start], dtype=np.int64)
        while frontier.size:
            images = np.unique(table.conj[:, frontier])
            new = images[orbit[images] < 0]
            orbit[new] = next_id
            frontier = new
        next_id += 1
    return orbit


@pytest.fixture(scope="session")
def sl3_2():
    return ctx_for("SL", 3, 2, (1, 1, 1))


@pytest.fixture(scope="session")
def sl3_3():
    return ctx_for("SL", 3, 3, (1, 1, 1))


@pytest.fixture(scope="session")
def sl3_4():
    return ctx_for("SL", 3, 4, (1, 1, 1))


@pytest.fixture(scope="session")
def sl4_2():
    return ctx_for("SL", 4, 2, (1, 1, 1, 1))


@pytest.fixture(scope="session")
def sp4_2():
    return ctx_for("Sp", 4, 2, "borel")


@pytest.fixture(scope="session")
def sp4_3():
    return ctx_for("Sp", 4, 3, "line")


def enormal_lattice(ctx):
    """Every subgroup normalized by E, smallest first, with the ideals whose
    sandwich holds it.

    Every E-normal subgroup is the join of the orbit closures of its
    elements, so closing the distinct orbit closures under joins until
    nothing new appears gives the whole lattice."""
    # the registry hands out one object per subgroup
    members = {id(sub): sub for sub in map(ctx.orbit_closure, ctx.orbits().reps)}
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
