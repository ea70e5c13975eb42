"""Unipotent factorization and the commutator-formula decompositions.

A chart enumerates the product map (v_alpha)_alpha -> prod X_alpha(v_alpha)
over an additively closed set of relative roots, in canonical order, as one
stack, and inverts it by one binary search over the matrix keys; its
bijectivity, asserted on construction, is the parametrization statement.
Values are (..., d) arrays, a code their base-m number (rings.to_digits and
from_digits); decompositions factor whole stacks through a chart and read
the polynomial values off numerically.  Three cached tables per model serve
the root-pair checks: every root element with its inverse, every pair's cone
and degrees, and the chart code, in its pair's cone, of every commutator
[X_alpha(u), X_beta(v)] of roots that are not opposed multiples, decoded
with one lookup per cone and refused there if one is off its chart.  The
homogeneity check and the pairing sweep read them in one batch each.
The root-element, sum-formula, Levi-conjugation, homogeneity and radical
round-trip checks cover every case; the identity check samples, drawing its
triples in bulk from the rng it is given (rings.draws), and every check
returns a verdict: none raises on a counterexample.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import SizeCapError
from .models import SCAN_BOUND, GroupModel, Vec, check_key_bound
from .rings import draws, from_digits, to_digits
from .rootsys import VectorIndex, sorted_find
from .table import CHUNK, matrix_keys  # CHUNK: cases per stack of the exhaustive checks


def canonical_root_order(roots) -> list[Vec]:
    return sorted(roots, key=lambda v: (sum(v), v))


def _vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


class UnipotentChart:
    """The product map (v_alpha)_alpha -> prod X_alpha(v_alpha) over `roots`,
    in their order, as arrays.  A code reads the values as one base-m
    number, first root and first coordinate most significant (each root's
    model.values order within it): mats[code] is the product.
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
            mats = model.mul(mats[:, None], _root_elements(model, alpha)[None]).reshape(-1, n, n)
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
        return self.lookup_keys(matrix_keys(mats, self.model.m))

    def lookup_keys(self, keys) -> np.ndarray:
        """Codes of the matrices with these keys (table.matrix_keys), -1 off the chart."""
        return sorted_find(self._keys, keys, self._order)

    def components(self, codes) -> list[np.ndarray]:
        """Per root, the (..., d) values that codes encode."""
        digits = to_digits(codes, self.model.m, sum(self.dims))
        return [digits[..., s - d:s] for s, d in zip(np.cumsum(self.dims), self.dims)]

    def factor(self, keys, lost: str) -> list[np.ndarray]:
        """The components of the matrices with these keys; RuntimeError(lost) off the chart."""
        codes = self.lookup_keys(keys)
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
    """True when i*alpha = -k*beta for some i, k in 1..4."""
    negated = {tuple(-k * b for b in beta) for k in range(1, 5)}
    return any(tuple(i * a for a in alpha) in negated for i in range(1, 5))


def commutator_identity_check(model: GroupModel, x, y, z, inverses=None):
    """[x, yz]^(z^-1) = [z^-1, x] [x, y], an identity in any group, each side
    a word in x, y, z and their inverses: (yz)^-1 = z^-1 y^-1, (z^-1)^-1 = z.

    x, y, z are (..., n, n) stacks, one verdict per triple in a bool (...)
    array (0-d for one triple); `inverses`, when given, are those of x, y, z."""
    xi, yi, zi = (model.inverse(g) for g in (x, y, z)) if inverses is None else inverses
    head = model.mul(z, xi, zi)  # both sides start with z x^-1 z^-1
    lhs, rhs = model.mul(head, yi, x, y, z, zi), model.mul(head, x, xi, yi, x, y)
    return np.asarray((lhs == rhs).all(axis=(-2, -1)))


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
            vw = to_digits(np.arange(lo, min(lo + CHUNK, m ** (2 * d))), m, 2 * d)
            v, w = vw[:, :d], vw[:, d:]
            first, higher = sum_formula_decompose(model, alpha, v, w)
            g = model.mul(_x_stack(model, alpha, first), *(_x_stack(
                model, tuple(i * c for c in alpha), val) for i, val in sorted(higher.items())))
            if (g != model.mul(_x_stack(model, alpha, v), _x_stack(model, alpha, w))).any():
                return False
    return True


def roundtrip_check(model: GroupModel) -> tuple[bool, int]:
    """Every code of the radical chart: its components multiplied out as one
    stack and factored back through the chart: (ok, radical order)."""
    ch = radical_chart(model)
    codes = np.arange(len(ch))
    g = model.mul(*(_x_stack(model, alpha, v) for alpha, v in zip(ch.roots, ch.components(codes))))
    return bool((ch.lookup(g) == codes).all()), len(ch)


def sum_formula_decompose(model: GroupModel, alpha: Vec, v, w):
    """X_alpha(v) X_alpha(w) = X_alpha(v+w) * higher multiples, for (..., d)
    arrays of pairs v, w, whose products are factored as one stack.

    Returns (v+w, {i: value}): i indexes each multiple i*alpha past alpha,
    with its (..., d_i) value array.
    """
    m = model.m
    v, w = np.asarray(v, dtype=np.int64) % m, np.asarray(w, dtype=np.int64) % m
    ch = chart(model, _multiple_cone(model, alpha))
    values = ch.factor(matrix_keys(model.mul(_x_stack(model, alpha, v), _x_stack(model, alpha, w)),
                                   m), "product left the unipotent group of the multiples")
    higher = {sum(g) // sum(alpha): val for g, val in zip(ch.roots, values)}
    first = higher.pop(1)
    if (first != (v + w) % m).any():
        raise RuntimeError("leading component of the sum formula is not v+w")
    return first, higher


def levi_conjugation_decompose(model: GroupModel, g, alpha: Vec, v, inverse=None):
    """g X_alpha(v) g^-1 = prod_i X_{i alpha}(phi_i(v)) for Levi g, as
    {i: phi_i(v)}, for a (..., n, n) stack g and a (..., d) array of values v
    that broadcast against it: each phi_i(v) is a (..., d_i) array of the
    values of every conjugation, formed as one stack; given inverse, g is Levi."""
    if inverse is None and not np.all(model.in_levi(g)):
        raise ValueError("conjugator must lie in the Levi subgroup")
    m, inverse = model.m, model.inverse(g) if inverse is None else inverse
    ch = chart(model, _multiple_cone(model, alpha))
    x = _x_stack(model, alpha, np.asarray(v, dtype=np.int64) % m)
    values = ch.factor(matrix_keys(model.mul(g, x, inverse), m),
                       "Levi conjugation left the unipotent group")
    return {sum(gamma) // sum(alpha): val for gamma, val in zip(ch.roots, values)}


def levi_conjugation_check(model: GroupModel, levis) -> bool:
    """Lemma rootels (ii), phi_i(r v) = r^i phi_i(v), for every g in levis,
    relative root alpha, v of V_alpha and r in Z/m: phi once per (g, v), read at
    the code of r v, the levis checked and inverted once, in stacks of at most
    CHUNK (g, v): at most |G| per alpha, as (g, v) -> g X_alpha(v) is injective."""
    m, levis = model.m, np.stack(levis)
    if not model.in_levi(levis).all():
        raise ValueError("conjugator must lie in the Levi subgroup")
    g, g_inv = levis[:, None], model.inverse(levis)[:, None]
    for alpha in model.rel_roots:
        vs = model.values(alpha)
        at = from_digits(np.arange(m)[:, None, None] * vs % m, m)  # (r, v): the code of r v
        step = max(1, CHUNK // len(vs))
        for lo in range(0, len(levis), step):
            phi = levi_conjugation_decompose(model, g[lo:lo + step], alpha, vs, g_inv[lo:lo + step])
            for i, val in phi.items():  # (g, v, d_i)
                power = np.array([pow(r, i, m) for r in range(m)])[:, None, None]
                if (val[:, at] != power * val[:, None] % m).any():
                    return False
    return True


def _digits_after(model: GroupModel, cone: tuple[Vec, ...], gamma: Vec) -> int:
    """The digits of a chart code over cone after gamma's: gamma's component
    is code // m**this % m**d_gamma."""
    return sum(model.v_dim(g) for g in cone[cone.index(gamma) + 1:])


def _target_values(model: GroupModel, segments) -> tuple[np.ndarray, np.ndarray]:
    """The target's component of [X_alpha(u), X_beta(v)], as a base-m code, per
    segment (alpha, beta, target) and every u, v of its block of the commutator
    table: one array and the segments' offsets.  One gather from the table's
    codes, each decoded by _digits_after."""
    m, (start, codes) = model.m, _commutator_table(model)
    first, size, weight, modulus = np.array([
        (start[a, b], m ** (model.v_dim(a) + model.v_dim(b)),
         m ** _digits_after(model, _pair_cone(model, a, b), target), m ** model.v_dim(target))
        for a, b, target in segments], dtype=np.int64).T
    offsets = np.cumsum(size) - size
    found = codes[np.repeat(first - offsets, size) + np.arange(size.sum())]
    return found // np.repeat(weight, size) % np.repeat(modulus, size), offsets


def _additive_closure(gens: np.ndarray, m: int, d: int) -> np.ndarray:
    """Per row of a (k, m**d) bool array marking codes of (Z/m)^d: the order
    of the subgroup they generate.  A round adds every mark to every code
    reached, in all rows at once, through an (m**d, m**d) addition table,
    until a round adds none."""
    vs = to_digits(np.arange(m ** d), m, d)
    row, mark = np.nonzero(gens)
    to = row[:, None] * m ** d + from_digits((vs[:, None] + vs) % m, m)[mark]  # row, code + mark
    seen = np.tile(np.arange(m ** d) == 0, len(gens))  # every row's codes, row after row
    while not seen[(reached := to[seen.reshape(gens.shape)[row]])].all():
        seen[reached] = True
    return seen.reshape(gens.shape).sum(axis=1)


def _lemma_tables(model: GroupModel, pairs):
    """Lemmas ABe and const on pairs (alpha, beta), not opposed, that sum to a root, from
    one _target_values call.  Returns hit (pair, i, u): whether N_{alpha,beta,1,1}(e_i, u) != 0,
    u of V_beta by code; const(k): per pair of the first k, whether the leading values generate
    V_{alpha+beta}, with those of (alpha-beta, 2*beta) and (alpha-beta, beta) where roots."""
    m, segments, owner = model.m, [], []
    for p, (alpha, beta) in enumerate(pairs):
        diff, two_beta = tuple(a - b for a, b in zip(alpha, beta)), tuple(2 * b for b in beta)
        extra = [(diff, two_beta)] * model.is_rel_root(two_beta) + [(diff, beta)]
        read = [(alpha, beta)] + extra * model.is_rel_root(diff)
        segments += [(a, b, _vadd(alpha, beta)) for a, b in read]
        owner += [p] * len(read)
    values, offsets = _target_values(model, segments)
    da, nb, dt = np.array([(model.v_dim(a), m ** model.v_dim(b), model.v_dim(_vadd(a, b)))
                           for a, b in pairs], dtype=np.int64).T[..., None, None]
    i, u = np.arange(da.max())[:, None], np.arange(nb.max())
    at = offsets[np.searchsorted(owner, np.arange(len(pairs)))][:, None, None]  # own block
    at = at + m ** np.maximum(da - 1 - i, 0) * nb + u  # row e_i: code m**(d_alpha - 1 - i)
    got = np.where((i < da) & (u < nb), values[np.minimum(at, values.size - 1)], 0)
    gens = np.zeros((len(pairs), m ** dt.max()), dtype=bool)
    gens[np.repeat(owner, np.diff(offsets, append=values.size)), values] = True
    const = lambda k: _additive_closure(gens[:k], m, int(dt.max())) == m ** dt.ravel()[:k]
    return got > 0, const


def pairing_sweep(model: GroupModel) -> tuple[bool, int, bool, int]:
    """Lemma ABe on every nonzero u of V_beta, then Lemma const, for each
    pair (alpha, beta) of relative roots, in the order of model.rel_roots,
    that are not opposed multiples and sum to a relative root: (abe_ok,
    abe_checked, const_ok, const_checked).  The sweep ends at the first u
    without a witness: abe_checked counts the u before it, const_checked and
    const_ok the pairs before its pair.  All pairs are one batch, Lemma const's closure
    those before the stop."""
    pairs = [pair for pair in _commutator_table(model)[0] if model.is_rel_root(_vadd(*pair))]
    if not pairs:
        return True, 0, True, 0
    hit, const = _lemma_tables(model, pairs)
    count = model.m ** np.array([model.v_dim(b) for _, b in pairs]) - 1  # the nonzero u
    witnessed = hit.any(axis=1)[:, 1:] | (np.arange(hit.shape[2] - 1) >= count[:, None])
    missing = np.flatnonzero(~witnessed)  # pair by pair, u by u
    stop, at = divmod(int(missing[0]), witnessed.shape[1]) if missing.size else (len(pairs), 0)
    return not missing.size, int(count[:stop].sum()) + at, bool(const(stop).all()), stop


def cone_degrees(model: GroupModel, alpha: Vec, beta: Vec) -> dict[Vec, tuple[int, int]]:
    """Roots i*alpha + j*beta whose (i, j) representation is unique, in
    canonical order.

    Read from the cached pair table: every caller shares the returned dict,
    which must not be changed."""
    return _pair_table(model)[alpha, beta][1]


@lru_cache(maxsize=None)
def _root_elements(model: GroupModel, alpha: Vec) -> np.ndarray:
    """X_alpha(v) for every v of model.values(alpha), indexed by v's code."""
    return model.x(alpha, model.values(alpha))


def _x_stack(model: GroupModel, alpha: Vec, vs: np.ndarray) -> np.ndarray:
    """X_alpha(v) for a (..., d) array of values v, entries in [0, m)."""
    return _root_elements(model, alpha)[from_digits(vs, model.m)]


@lru_cache(maxsize=None)
def _root_table(model: GroupModel) -> tuple[dict[Vec, int], np.ndarray, np.ndarray]:
    """Every X_alpha(v) of every relative root alpha as one stack, roots in
    the order of model.rel_roots: each root's offset into it, the stack and
    its inverses, from one model.inverse call."""
    stacks = [_root_elements(model, a) for a in model.rel_roots]
    offsets = np.cumsum([0] + [len(x) for x in stacks[:-1]]).tolist()
    mats = np.concatenate(stacks)
    return dict(zip(model.rel_roots, offsets)), mats, model.inverse(mats)


@lru_cache(maxsize=None)
def _commutator_table(model: GroupModel) -> tuple[dict[tuple[Vec, Vec], int], np.ndarray]:
    """The chart code, in its pair's cone, of [X_alpha(u), X_beta(v)] for every ordered
    pair of relative roots that are not opposed multiples, in the order of model.rel_roots,
    and every u, v: each pair's offset and one array, where a pair's block holds m**d_beta
    codes per u (u, v as base-m numbers).  The keys (table.matrix_keys) are formed from the
    root table in stacks of at most CHUNK, then decoded with one lookup per distinct cone;
    a commutator off its cone's chart is a RuntimeError."""
    (offsets, mats, inv), m, roots = _root_table(model), model.m, model.rel_roots
    pairs = [(a, b) for a in roots for b in roots if not opposed_multiples(a, b)]
    xa, xb, na, nb = np.array([(offsets[a], offsets[b], m ** model.v_dim(a), m ** model.v_dim(b))
                               for a, b in pairs], dtype=np.int64).T
    starts = np.cumsum(na * nb) - na * nb
    keys = np.empty(int((na * nb).sum()), dtype=np.int64)
    for lo in range(0, len(keys), CHUNK):
        at = np.arange(lo, min(lo + CHUNK, len(keys)))
        p = np.searchsorted(starts, at, side="right") - 1  # the pair of each commutator
        u, v = np.divmod(at - starts[p], nb[p])
        x, y = xa[p] + u, xb[p] + v
        keys[lo:lo + CHUNK] = matrix_keys(model.mul(inv[x], inv[y], mats[x], mats[y]), m)
    cones = [_pair_cone(model, a, b) for a, b in pairs]
    slot = {cone: s for s, cone in enumerate(dict.fromkeys(cones))}
    of_cone, codes = np.repeat([slot[cone] for cone in cones], na * nb), np.empty_like(keys)
    for cone, s in slot.items():
        codes[of_cone == s] = chart(model, cone).lookup_keys(keys[of_cone == s])
    if (codes < 0).any():
        raise RuntimeError("commutator left the unipotent group of its cone")
    return dict(zip(pairs, starts.tolist())), codes


def check_chevalley_homogeneity(model: GroupModel) -> tuple[bool, int]:
    """eq. (eq:Chev) on every pair (alpha, beta) of relative roots that are
    not opposed multiples: scaling u by r multiplies the (i,j) component of
    [X_alpha(u), X_beta(v)] by r^i, and scaling v by r multiplies it by r^j,
    for every u, v and every r in Z/m.  Returns (ok, cases), a case being one
    (pair, u, v, r): m times the commutator table's length.

    The codes of [X_alpha(r u), X_beta(v)] and [X_alpha(u), X_beta(r v)] are
    gathers from the commutator table through the code of r u, in stacks of at
    most CHUNK cases; a digit of a code is compared where cone_degrees gives
    its root one (i, j).
    """
    m, (start, codes) = model.m, _commutator_table(model)
    pairs, starts = list(start), np.array(list(start.values()), dtype=np.int64)
    cones = [_pair_cone(model, a, b) for a, b in pairs]
    width = max(sum(model.v_dim(g) for g in cone) for cone in cones)
    degree = np.zeros((len(pairs), 2, width), dtype=np.int64)  # (pair, side, digit)
    read = np.zeros((len(pairs), width), dtype=bool)
    for p, (pair, cone) in enumerate(zip(pairs, cones)):
        for gamma, ij in cone_degrees(model, *pair).items():
            end = width - _digits_after(model, cone, gamma)
            digits = slice(end - model.v_dim(gamma), end)
            degree[p, :, digits], read[p, digits] = np.array(ij)[:, None], True
    us = max(map(model.values, model.rel_roots), key=len)  # scale[u, r]: the code of r u, any d_u
    scale = from_digits(us[:, None] * np.arange(m)[:, None] % m, m)
    power = np.array([[pow(r, e, m) for r in range(m)] for e in range(degree.max(initial=0) + 1)])
    nb = m ** np.array([model.v_dim(b) for _, b in pairs], dtype=np.int64)
    step, ok = max(1, CHUNK // m), True
    for lo in range(0, len(codes), step):
        at = np.arange(lo, min(lo + step, len(codes)))
        p = np.searchsorted(starts, at, side="right") - 1
        u, v = np.divmod(at - starts[p], nb[p])
        scaled = np.stack([(at - u * nb[p])[:, None] + scale[u] * nb[p][:, None],
                           (at - v)[:, None] + scale[v]], axis=1)  # (case, side, r)
        value = to_digits(codes[at], m, width)[:, None, None]  # (case, 1, 1, digit): at r = 1
        want = power[degree[p][:, :, None], np.arange(m)[:, None]] * value % m  # times r^degree
        ok &= bool(((to_digits(codes[scaled], m, width) == want) | ~read[p][:, None, None]).all())
    return ok, len(codes) * m
