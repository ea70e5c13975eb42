"""Unipotent factorization and the commutator-formula decompositions.

A chart enumerates the product map (v_alpha)_alpha -> prod X_alpha(v_alpha)
over an additively closed set of relative roots, in canonical order, as one
stack, and inverts it by one binary search over the matrix keys; its
bijectivity, asserted on construction, is the parametrization statement.
Decompositions factor whole stacks through a chart and read the polynomial
values off numerically.  Two cached tables per model serve the root-pair
checks: every root element with its inverse, every pair's cone and degrees.
The root-element, sum-formula, Levi-conjugation and radical round-trip
checks cover every case; the identity and homogeneity checks sample, each
drawing its values in bulk from the rng it is given (rings.draws), and every
check returns a verdict: none raises on a counterexample.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import accumulate

import numpy as np

from .errors import SizeCapError
from .models import SCAN_BOUND, GroupModel, Vec, check_key_bound
from .rings import draws, mat_mul
from .rootsys import VectorIndex, sorted_find
from .table import CHUNK, matrix_keys  # CHUNK: cases per stack of the exhaustive checks


def canonical_root_order(roots) -> list[Vec]:
    return sorted(roots, key=lambda v: (sum(v), v))


def _vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def _digits(codes, m: int, width: int) -> np.ndarray:
    """The base-m digits of codes along one more trailing axis, first most significant."""
    return np.asarray(codes, dtype=np.int64)[..., None] // m ** np.arange(
        width - 1, -1, -1, dtype=np.int64) % m


def _codes(digits: np.ndarray, m: int) -> np.ndarray:
    """The base-m numbers of digits along the last axis, first most significant."""
    return digits @ m ** np.arange(digits.shape[-1] - 1, -1, -1, dtype=np.int64)


class UnipotentChart:
    """The product map (v_alpha)_alpha -> prod X_alpha(v_alpha) over `roots`,
    in their order, as arrays.  A code reads the values as one base-m
    number, first root and first coordinate most significant (the order of
    itertools.product over the value tuples): mats[code] is the product.
    `lookup` inverts the map by a binary search over the products' keys."""

    def __init__(self, model: GroupModel, roots: tuple[Vec, ...]):
        m, n = model.m, model.degree
        self.model, self.roots = model, roots
        self.dims = [model.v_dim(a) for a in roots]
        check_key_bound(model)
        if m ** sum(self.dims) > SCAN_BOUND:
            raise SizeCapError(m ** sum(self.dims), SCAN_BOUND,
                               f"{model.name()} chart over {roots}", "products")
        mats = model.identity()[None]
        for alpha in roots:
            mats = mat_mul(mats[:, None], _root_elements(model, alpha)[None], m).reshape(-1, n, n)
        self.mats = mats
        keys = matrix_keys(mats, m)
        self._order = np.argsort(keys)
        self._keys = keys[self._order]
        if (self._keys[1:] == self._keys[:-1]).any():
            raise RuntimeError(f"product map not injective over {roots}")

    def __len__(self):
        return len(self.mats)

    def lookup(self, mats) -> np.ndarray:
        """Codes of a (..., n, n) stack of matrices, -1 off the chart."""
        return sorted_find(self._keys, matrix_keys(mats, self.model.m), self._order)

    def components(self, codes) -> list[np.ndarray]:
        """Per root, the (..., d) values that codes encode (zeros for a code -1)."""
        digits = _digits(np.maximum(codes, 0), self.model.m, sum(self.dims))
        return [digits[..., s - d:s] for s, d in zip(np.cumsum(self.dims), self.dims)]

    def factor(self, mats, lost: str) -> list[np.ndarray]:
        """The components of a stack of matrices; RuntimeError(lost) off the chart."""
        codes = self.lookup(mats)
        if (codes < 0).any():
            raise RuntimeError(lost)
        return self.components(codes)


@lru_cache(maxsize=None)
def chart(model: GroupModel, roots: tuple[Vec, ...]) -> UnipotentChart:
    """Chart over an additively closed root set, canonical order."""
    return UnipotentChart(model, tuple(canonical_root_order(roots)))


def radical_roots(model: GroupModel, negative: bool = False) -> tuple[Vec, ...]:
    pos = model.positive_rel_roots
    if negative:
        return tuple(tuple(-c for c in a) for a in pos)
    return tuple(pos)


def radical_chart(model: GroupModel, negative: bool = False) -> UnipotentChart:
    return chart(model, radical_roots(model, negative))


def _multiple_cone(model: GroupModel, alpha: Vec) -> tuple[Vec, ...]:
    """The relative roots among alpha, 2 alpha, ..., 8 alpha, in that order."""
    multiples = (tuple(i * c for c in alpha) for i in range(1, 9))
    return tuple(v for v in multiples if model.is_rel_root(v))


@lru_cache(maxsize=None)
def _pair_table(model: GroupModel) -> dict[tuple[Vec, Vec], tuple[tuple[Vec, ...], dict]]:
    """For every ordered pair (alpha, beta) of relative roots, in the order
    of model.rel_roots: the relative roots i*alpha + j*beta, 1 <= i, j <= 6,
    in canonical order, and those of them with a unique (i, j), mapped to
    it.  Every i*alpha + j*beta is found by one lookup in a VectorIndex of
    the roots."""
    roots = model.rel_roots  # canonical order
    coords = np.array(roots, dtype=np.int64)
    index = VectorIndex(f"{model.name()} relative roots", roots, coords.shape[1],
                        int(np.abs(coords).max()))
    k = np.arange(1, 7)[:, None]
    ids = index.lookup(coords[:, None, None, None] * k[:, None]  # (a, b, i, j)
                       + coords[None, :, None, None] * k).reshape(len(roots), len(roots), 36)
    position = {v: p for p, v in enumerate(roots)}
    canonical = np.array([position[tuple(v)] for v in index.coords.tolist()], dtype=np.int64)
    hit = (ids >= 0)[..., None] & (canonical[ids][..., None] == np.arange(len(roots)))
    count, first = hit.sum(axis=2).tolist(), hit.argmax(axis=2).tolist()  # (a, b, c)
    table = {}
    for a, alpha in enumerate(roots):
        for b, beta in enumerate(roots):
            n, f = count[a][b], first[a][b]
            table[alpha, beta] = (
                tuple(gamma for gamma, hits in zip(roots, n) if hits),
                {gamma: (at // 6 + 1, at % 6 + 1) for gamma, hits, at in zip(roots, n, f)
                 if hits == 1})
    return table


def _pair_cone(model: GroupModel, alpha: Vec, beta: Vec) -> tuple[Vec, ...]:
    """The relative roots i*alpha + j*beta, 1 <= i, j <= 6, in canonical order."""
    return _pair_table(model)[alpha, beta][0]


@lru_cache(maxsize=None)
def opposed_multiples(alpha: Vec, beta: Vec) -> bool:
    """True when m*alpha = -k*beta for some positive m, k."""
    for i in range(1, 5):
        for k in range(1, 5):
            if all(i * a == -k * b for a, b in zip(alpha, beta)):
                return True
    return False


def commutator_identity_check(model: GroupModel, x, y, z, inverses=None):
    """[x, yz]^(z^-1) = [z^-1, x] [x, y], an identity in any group, each side
    a word in x, y, z and their inverses: (yz)^-1 = z^-1 y^-1, (z^-1)^-1 = z.

    x, y, z are elements (a bool result) or (k, n, n) stacks (a bool array,
    one verdict per triple); `inverses`, when given, are those of x, y, z."""
    m = model.m
    xi, yi, zi = (model.inverse(g) for g in (x, y, z)) if inverses is None else inverses
    head = mat_mul(mat_mul(z, xi, m), zi, m)  # both sides start with z x^-1 z^-1
    lhs = reduce(lambda a, b: mat_mul(a, b, m), (yi, x, y, z, zi), head)
    rhs = reduce(lambda a, b: mat_mul(a, b, m), (x, xi, yi, x, y), head)
    ok = (lhs == rhs).all(axis=(-2, -1))
    return bool(ok) if ok.ndim == 0 else ok


def sampled_identity_check(model: GroupModel, count: int, rng) -> bool:
    """commutator_identity_check on `count` triples (x, y, z) of root
    elements, drawn from the root table, and checked as one stack with the
    table's inverses."""
    _, mats, inverses = _root_table(model)
    drawn = draws(rng, len(mats), 3, count)
    return bool(commutator_identity_check(model, *mats[drawn], inverses=inverses[drawn]).all())


def generators_in_group(model: GroupModel) -> bool:
    """eq. (Xalpha-prod): every elementary generator and every X_alpha(v) of
    every relative root alpha lies in G."""
    return bool(model.is_element(model.all_elementary_generators()).all()
                and model.is_element(_root_table(model)[1]).all())


def sum_formula_check(model: GroupModel) -> bool:
    """eq. (eq:sum): for every pair (v, w) of every relative root alpha, the
    sum-formula factors multiply back to X_alpha(v) X_alpha(w).  A stack holds
    at most CHUNK pairs; an alpha has at most |G| pairs, as (v, w) ->
    X_-alpha(w) X_alpha(v) is injective."""
    m = model.m
    for alpha in model.rel_roots:
        d = model.v_dim(alpha)
        for lo in range(0, m ** (2 * d), CHUNK):
            vw = _digits(np.arange(lo, min(lo + CHUNK, m ** (2 * d))), m, 2 * d)
            v, w = vw[:, :d], vw[:, d:]
            first, higher = sum_formula_decompose(model, alpha, v, w)
            g = _x_stack(model, alpha, first)
            for i, val in sorted(higher.items()):
                g = mat_mul(g, _x_stack(model, tuple(i * c for c in alpha), val), m)
            if (g != mat_mul(_x_stack(model, alpha, v), _x_stack(model, alpha, w), m)).any():
                return False
    return True


def roundtrip_check(model: GroupModel) -> tuple[bool, int]:
    """Every code of the radical chart: its components multiplied out as one
    stack and factored back through the chart: (ok, radical order)."""
    ch = radical_chart(model)
    codes = np.arange(len(ch))
    g = model.identity()
    for alpha, v in zip(ch.roots, ch.components(codes)):
        g = mat_mul(g, _x_stack(model, alpha, v), model.m)
    return bool((ch.lookup(g) == codes).all()), len(ch)


def sum_formula_decompose(model: GroupModel, alpha: Vec, v, w):
    """X_alpha(v) X_alpha(w) = X_alpha(v+w) * higher multiples.

    Returns (v+w, {i: value}) where i indexes the multiple i*alpha: the
    nonzero values for one pair v, w, every (..., d_i) value array for
    (..., d) arrays of pairs, whose products are factored as one stack.
    """
    m = model.m
    v, w = np.asarray(v, dtype=np.int64) % m, np.asarray(w, dtype=np.int64) % m
    ch = chart(model, _multiple_cone(model, alpha))
    values = ch.factor(mat_mul(_x_stack(model, alpha, v), _x_stack(model, alpha, w), m),
                       "product left the unipotent group of the multiples")
    higher = {sum(g) // sum(alpha): val for g, val in zip(ch.roots, values)}
    first = higher.pop(1)
    if (first != (v + w) % m).any():
        raise RuntimeError("leading component of the sum formula is not v+w")
    if v.ndim > 1:
        return first, higher
    return tuple(first.tolist()), {i: tuple(val.tolist()) for i, val in higher.items() if val.any()}


def levi_conjugation_decompose(model: GroupModel, g, alpha: Vec, v):
    """g X_alpha(v) g^-1 = prod_i X_{i alpha}(phi_i(v)) for Levi g, as
    {i: phi_i(v)}.  g may be a (..., n, n) stack and v a (..., d) array of
    values that broadcast against it; then each phi_i(v) is a (..., d_i)
    array of the values of every conjugation, formed as one stack."""
    g = np.asarray(g, dtype=np.int64)
    if not np.all(model.in_levi(g)):
        raise ValueError("conjugator must lie in the Levi subgroup")
    m = model.m
    ch = chart(model, _multiple_cone(model, alpha))
    x = _x_stack(model, alpha, np.asarray(v, dtype=np.int64) % m)
    values = ch.factor(mat_mul(mat_mul(g, x, m), model.inverse(g), m),
                       "Levi conjugation left the unipotent group")
    ratio = [sum(gamma) // sum(alpha) for gamma in ch.roots]
    if g.ndim == 2 and np.ndim(v) == 1:
        return {i: tuple(val.tolist()) for i, val in zip(ratio, values)}
    return dict(zip(ratio, values))


def levi_conjugation_check(model: GroupModel, levis) -> bool:
    """Lemma rootels (ii), phi_i(r v) = r^i phi_i(v), for every g in levis,
    relative root alpha, v of V_alpha and r in Z/m: phi once per (g, v), read
    at the code of r v, in stacks of at most CHUNK (g, v): there are at most
    |G| per alpha, as (g, v) -> g X_alpha(v) is injective into P."""
    m = model.m
    levis = np.stack(levis)
    for alpha in model.rel_roots:
        vs = _values(model, alpha)
        at = _codes(np.arange(m)[:, None, None] * vs % m, m)  # (r, v): the code of r v
        step = max(1, CHUNK // len(vs))
        for lo in range(0, len(levis), step):
            phi = levi_conjugation_decompose(model, levis[lo:lo + step, None], alpha, vs)
            for i, val in phi.items():  # (g, v, d_i)
                power = np.array([pow(r, i, m) for r in range(m)])[:, None, None]
                if (val[:, at] != power * val[:, None] % m).any():
                    return False
    return True


def _values(model: GroupModel, alpha: Vec) -> np.ndarray:
    """Every v of V_alpha, as an (m**d, d) array in the order of v_tuples."""
    d = model.v_dim(alpha)
    return _digits(np.arange(model.m ** d), model.m, d)


def _pair_values(model: GroupModel, alpha: Vec, beta: Vec, us, vs, target: Vec) -> np.ndarray:
    """The components at the root target of [X_alpha(u), X_beta(v)] for value
    arrays us (..., d_alpha) and vs (..., d_beta) that broadcast, every
    commutator formed in one stack."""
    ch = chart(model, _pair_cone(model, alpha, beta))
    c = _root_commutator(model, _root_index(model, alpha, us), _root_index(model, beta, vs))
    return ch.factor(c, "commutator left the expected unipotent group")[ch.roots.index(target)]


def _check_pair(model: GroupModel, alpha: Vec, beta: Vec) -> Vec:
    target = _vadd(alpha, beta)
    if not model.is_rel_root(target) or opposed_multiples(alpha, beta):
        raise ValueError("need alpha+beta a relative root and no opposition")
    return target


def lemma_ABe_witness(model: GroupModel, alpha: Vec, beta: Vec, u):
    """The least i such that the generator e_i of V_alpha has
    N_{alpha,beta,1,1}(e_i, u) != 0, for one nonzero u of V_beta or for each
    of a (k, d) stack of them, from one stack of commutators; -1 where every
    generator gives zero, which refutes the statement on this model."""
    us = np.asarray(u, dtype=np.int64) % model.m
    if not us.any(axis=-1).all():
        raise ValueError("u must be nonzero")
    target = _check_pair(model, alpha, beta)
    d = model.v_dim(alpha)
    gens = np.eye(d, dtype=np.int64).reshape(d, *[1] * (us.ndim - 1), d)
    hit = _pair_values(model, alpha, beta, gens, us, target).any(axis=-1)  # (generator, *u)
    return np.where(hit.any(axis=0), np.argmax(hit, axis=0), -1)


def _additive_closure(values, dim: int, m: int) -> int:
    """Order of the subgroup of (Z/m)^dim generated by a set of tuples."""
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


def lemma_const_check(model: GroupModel, alpha: Vec, beta: Vec) -> bool:
    """The leading commutator values generate V_{alpha+beta} additively.

    When alpha-beta is also a relative root, the degree (1,1) values of
    (alpha-beta, 2*beta) and the degree (1,2) values of (alpha-beta, beta)
    contribute as well.  The commutators of each root pair over all of
    V_a x V_b are one stack.
    """
    target = _check_pair(model, alpha, beta)
    pairs = [(alpha, beta)]
    diff = tuple(a - b for a, b in zip(alpha, beta))
    if model.is_rel_root(diff):
        two_beta = tuple(2 * b for b in beta)
        if model.is_rel_root(two_beta):
            pairs.append((diff, two_beta))
        pairs.append((diff, beta))
    d = model.v_dim(target)
    values = np.concatenate([_pair_values(
        model, a, b, _values(model, a)[:, None], _values(model, b), target).reshape(-1, d)
        for a, b in pairs])
    return _additive_closure(values.tolist(), d, model.m) == model.m ** d


def pairing_sweep(model: GroupModel) -> tuple[bool, int, bool, int]:
    """Lemma ABe on every nonzero u of V_beta, then Lemma const, for each
    pair (alpha, beta) of relative roots, in the order of model.rel_roots,
    that are not opposed multiples and sum to a relative root: (abe_ok,
    abe_checked, const_ok, const_checked).  The sweep ends at the first u
    without a witness: abe_checked counts the u before it, const_checked
    the pairs before its pair."""
    abe_checked = const_checked = 0
    const_ok = True
    for alpha in model.rel_roots:
        for beta in model.rel_roots:
            if opposed_multiples(alpha, beta) or not model.is_rel_root(_vadd(alpha, beta)):
                continue
            us = _values(model, beta)[1:]  # the nonzero u, in the order of v_tuples
            missing = np.flatnonzero(lemma_ABe_witness(model, alpha, beta, us) < 0)
            if missing.size:
                return False, abe_checked + int(missing[0]), const_ok, const_checked
            abe_checked += len(us)
            const_checked += 1
            const_ok &= lemma_const_check(model, alpha, beta)
    return True, abe_checked, const_ok, const_checked


def cone_degrees(model: GroupModel, alpha: Vec, beta: Vec) -> dict[Vec, tuple[int, int]]:
    """Roots i*alpha + j*beta whose (i, j) representation is unique, in
    canonical order.

    Read from the cached pair table: every caller shares the returned dict,
    which must not be changed."""
    return _pair_table(model)[alpha, beta][1]


@lru_cache(maxsize=None)
def _root_elements(model: GroupModel, alpha: Vec) -> np.ndarray:
    """X_alpha(v) for every v of V_alpha, indexed by v read as a base-m number."""
    return np.stack([model.x(alpha, v) for v in model.v_tuples(alpha)])


def _x_stack(model: GroupModel, alpha: Vec, vs: np.ndarray) -> np.ndarray:
    """X_alpha(v) for a (..., d) array of values v, entries in [0, m)."""
    return _root_elements(model, alpha)[_codes(vs, model.m)]


@lru_cache(maxsize=None)
def _root_table(model: GroupModel) -> tuple[dict[Vec, int], np.ndarray, np.ndarray]:
    """Every X_alpha(v) of every relative root alpha as one stack, roots in
    the order of model.rel_roots: each root's offset into it, the stack and
    its inverses, from one model.inverse call."""
    stacks = [_root_elements(model, a) for a in model.rel_roots]
    offsets = np.cumsum([0] + [len(x) for x in stacks[:-1]]).tolist()
    mats = np.concatenate(stacks)
    return dict(zip(model.rel_roots, offsets)), mats, model.inverse(mats)


def _root_index(model: GroupModel, alpha: Vec, vs: np.ndarray) -> np.ndarray:
    """Root-table indices of X_alpha(v) for a (..., d) array of values v in [0, m)."""
    return _root_table(model)[0][alpha] + _codes(vs, model.m)


def _root_commutator(model: GroupModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The commutators x^-1 y^-1 x y of root-table indices x and y that
    broadcast: four gathers and three products."""
    _, mats, inv = _root_table(model)
    m = model.m
    return mat_mul(mat_mul(inv[x], inv[y], m), mat_mul(mats[x], mats[y], m), m)


def _homogeneity_codes(model: GroupModel, pairs, cones, values: np.ndarray,
                       samples: int) -> np.ndarray:
    """The (pair, sample, 2m) chart codes of [X_alpha(r u), X_beta(v)], then
    of [X_alpha(u), X_beta(r v)], r in Z/m, -1 off the chart of the pair's
    cone.  values holds each pair's samples in turn, each sample u then v.
    Each distinct commutator is formed once from the root table, and the
    commutators of one cone are looked up together."""
    m = model.m
    offsets, mats, _ = _root_table(model)
    da, db, oa, ob = np.array([(model.v_dim(a), model.v_dim(b), offsets[a], offsets[b])
                               for a, b in pairs], dtype=np.int64).T
    width = da + db
    rows = (np.cumsum(width) - width)[:, None] * samples + width[:, None] * np.arange(samples)
    pad = np.arange(max(da.max(), db.max()))  # every value is padded in front with zeros

    def scaled(first, d, offset):
        """Root-table indices (pair, sample, r) of X(r w), w the d values from first on."""
        t = pad - (pad.size - d)[:, None, None]  # negative in the padding
        w = np.where(t < 0, 0, values[np.maximum(first[..., None] + t, 0)])
        return offset[:, None, None] + _codes(np.arange(m)[:, None] * w[:, :, None] % m, m)

    xa, yb = scaled(rows, da, oa), scaled(rows + da[:, None], db, ob)
    x = np.concatenate([xa, np.broadcast_to(xa[..., 1:2], xa.shape)], axis=-1).ravel()
    y = np.concatenate([np.broadcast_to(yb[..., 1:2], yb.shape), yb], axis=-1).ravel()
    key = x * len(mats) + y
    order = np.argsort(key, kind="stable")
    new = np.diff(key[order], prepend=-1) != 0
    once = order[new]  # the first (x, y) of each distinct key
    c = _root_commutator(model, x[once], y[once])
    slot = {cone: s for s, cone in enumerate(dict.fromkeys(cones))}
    in_cone = np.array([slot[cone] for cone in cones])[once // (samples * 2 * m)]
    found = np.empty(len(once), dtype=np.int64)
    for cone, s in slot.items():
        found[in_cone == s] = chart(model, cone).lookup(c[in_cone == s])
    codes = np.empty(len(key), dtype=np.int64)
    codes[order] = found[np.cumsum(new) - 1]
    return codes.reshape(len(pairs), samples, 2 * m)


def check_chevalley_homogeneity(model: GroupModel, samples: int, rng) -> tuple[bool, int]:
    """eq. (eq:Chev) on every pair (alpha, beta) of relative roots that are
    not opposed multiples: scaling u by r multiplies the (i,j) component of
    [X_alpha(u), X_beta(v)] by r^i, and scaling v by r multiplies it by r^j,
    for every r in Z/m on `samples` drawn (u, v) per pair.  Returns (ok,
    samples * m * pairs).

    The values are one draw from rng: pair by pair in the order of
    model.rel_roots, sample by sample, u before v.  The commutators of every
    pair, sample and r are one stack (`_homogeneity_codes`), and the degrees,
    read through cone_degrees, are compared as arrays, one column per
    coordinate.  A commutator off its cone's chart is a RuntimeError.
    """
    m, roots = model.m, model.rel_roots
    pairs = [(a, b) for a in roots for b in roots if not opposed_multiples(a, b)]
    width = sum(model.v_dim(a) + model.v_dim(b) for a, b in pairs)
    cones = [_pair_cone(model, a, b) for a, b in pairs]
    codes = _homogeneity_codes(model, pairs, cones, draws(rng, m, samples * width), samples)
    if (codes < 0).any():
        raise RuntimeError("commutator left the unipotent group of its cone")
    cols = []  # per coordinate: (pair, its digit's weight in a chart code, i, j)
    for p, (pair, cone) in enumerate(zip(pairs, cones)):
        ch = chart(model, cone)
        ends, total = dict(zip(ch.roots, accumulate(ch.dims))), sum(ch.dims)
        for gamma, (i, j) in cone_degrees(model, *pair).items():
            cols += [(p, m ** (total - 1 - e), i, j)
                     for e in range(ends[gamma] - model.v_dim(gamma), ends[gamma])]
    checked = len(pairs) * samples * m
    if not cols:
        return True, checked
    at, weight, i, j = np.array(cols, dtype=np.int64).T
    got = (codes[at] // weight[:, None, None] % m).reshape(len(at), samples, 2, m)
    degree = np.stack([i, j], axis=-1)  # (column, side)
    power = np.array([[pow(r, e, m) for r in range(m)] for e in range(degree.max() + 1)])
    want = power[degree][:, None] * got[..., :1, 1:2] % m  # r^degree times the value at r = 1
    return bool((got == want).all()), checked
