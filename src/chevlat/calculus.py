"""Unipotent factorization and the commutator-formula decompositions.

A chart enumerates the product map (v_alpha)_alpha -> prod X_alpha(v_alpha)
over an additively closed set of relative roots, in the canonical
height-then-lex order, as one stack of products, and inverts it by one
binary search over their matrix keys.  Bijectivity of this map is asserted
during construction, which is the parametrization statement itself.
Everything downstream (sum formulas, conjugation and commutator
decompositions, the nondegeneracy and generation lemmas) factors matrices
through a chart, whole stacks at a time, and reads the polynomial values
off numerically.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import SizeCapError, TheoremViolation
from .models import SCAN_BOUND, GroupModel, Vec
from .rings import mat_mul
from .table import check_key_bound, matrix_keys


def canonical_root_order(roots) -> list[Vec]:
    return sorted(roots, key=lambda v: (sum(v), v))


def _vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def _digits(codes, m: int, width: int) -> np.ndarray:
    """The base-m digits of codes along one more trailing axis, first most significant."""
    return np.asarray(codes, dtype=np.int64)[..., None] // m ** np.arange(
        width - 1, -1, -1, dtype=np.int64) % m


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
        keys = matrix_keys(mats, self.model.m)
        pos = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        return np.where(self._keys[pos] == keys, self._order[pos], -1)

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
def _pair_cone(model: GroupModel, alpha: Vec, beta: Vec) -> tuple[Vec, ...]:
    out = set()
    for i in range(1, 7):
        for j in range(1, 7):
            v = tuple(i * a + j * b for a, b in zip(alpha, beta))
            if model.is_rel_root(v):
                out.add(v)
    return tuple(canonical_root_order(out))


@lru_cache(maxsize=None)
def opposed_multiples(alpha: Vec, beta: Vec) -> bool:
    """True when m*alpha = -k*beta for some positive m, k."""
    for i in range(1, 5):
        for k in range(1, 5):
            if all(i * a == -k * b for a, b in zip(alpha, beta)):
                return True
    return False


def commutator(x: np.ndarray, y: np.ndarray, model: GroupModel) -> np.ndarray:
    """[x, y] = x^-1 y^-1 x y of two elements or of two (..., n, n) stacks."""
    m = model.m
    return mat_mul(
        mat_mul(model.inverse(x), model.inverse(y), m), mat_mul(x, y, m), m
    )


def commutator_identity_check(model: GroupModel, x, y, z):
    """[x, yz]^(z^-1) = [z^-1, x] [x, y], an identity in any group.

    x, y, z are elements (a bool result) or (k, n, n) stacks (a bool array,
    one verdict per triple)."""
    m = model.m
    zinv = model.inverse(z)
    lhs = commutator(x, mat_mul(y, z, m), model)
    lhs = mat_mul(mat_mul(z, lhs, m), zinv, m)  # conjugation by z^-1
    rhs = mat_mul(commutator(zinv, x, model), commutator(x, y, model), m)
    ok = (lhs == rhs).all(axis=(-2, -1))
    return bool(ok) if ok.ndim == 0 else ok


def sampled_root_elements(model: GroupModel, per_root: int, rng) -> np.ndarray:
    """X_alpha(v) for `per_root` values v per relative root alpha, drawn
    with rng.randrange root by root, as one stack."""
    return np.stack([model.x(a, tuple(rng.randrange(model.m) for _ in range(model.v_dim(a))))
                     for a in model.rel_roots for _ in range(per_root)])


def sampled_identity_check(model: GroupModel, mats, count: int, rng) -> bool:
    """commutator_identity_check on `count` triples (x, y, z) drawn from mats
    with rng.randrange, x, y, z in turn, all checked as one stack.  rng is
    left as a triple-by-triple check stopping at the first failure leaves it."""
    mats = np.stack(mats)
    state = rng.getstate()
    drawn = mats[[rng.randrange(len(mats)) for _ in range(3 * count)]]
    triples = drawn.reshape(count, 3, *mats.shape[1:])
    held = commutator_identity_check(model, triples[:, 0], triples[:, 1], triples[:, 2])
    if held.all():
        return True
    rng.setstate(state)
    for _ in range(3 * (int(np.argmin(held)) + 1)):
        rng.randrange(len(mats))
    return False


def sampled_homogeneity_check(model: GroupModel, samples: int, rng) -> tuple[bool, int]:
    """check_chevalley_homogeneity on every pair of relative roots that are
    not opposed multiples, in the order of model.rel_roots: (ok, samples
    times scales checked).  A counterexample ends the sweep with ok False."""
    checked = 0
    try:
        for alpha in model.rel_roots:
            for beta in model.rel_roots:
                if not opposed_multiples(alpha, beta):
                    checked += check_chevalley_homogeneity(model, alpha, beta, samples, rng)
    except TheoremViolation:
        return False, checked
    return True, checked


def sampled_sum_formula_check(model: GroupModel, samples: int, rng) -> bool:
    """For `samples` pairs (v, w) per relative root alpha, drawn pair by pair,
    the product of the sum-formula factors X_alpha(v+w) prod_i X_{i alpha}(h_i)
    is X_alpha(v) X_alpha(w); the pairs of one alpha are one stack."""
    m = model.m
    ok = True
    for alpha in model.rel_roots:
        d = model.v_dim(alpha)
        vw = np.array([rng.randrange(m) for _ in range(2 * d * samples)], dtype=np.int64)
        v, w = vw.reshape(samples, 2, d).swapaxes(0, 1)
        first, higher = sum_formula_decompose(model, alpha, v, w)
        g = _x_stack(model, alpha, first)
        for i, val in sorted(higher.items()):
            g = mat_mul(g, _x_stack(model, tuple(i * c for c in alpha), val), m)
        ok &= bool((g == mat_mul(_x_stack(model, alpha, v), _x_stack(model, alpha, w), m)).all())
    return ok


def sampled_roundtrip_check(model: GroupModel, samples: int, rng) -> tuple[bool, int]:
    """Random components over the positive radical, drawn sample by sample,
    multiplied out as one stack and factored back through the radical chart:
    (ok, radical order)."""
    m = model.m
    ch = radical_chart(model)
    width = sum(ch.dims)
    digits = np.array([rng.randrange(m) for _ in range(samples * width)], dtype=np.int64)
    codes = digits.reshape(samples, width) @ m ** np.arange(width - 1, -1, -1, dtype=np.int64)
    g = model.identity()
    for alpha, v in zip(ch.roots, ch.components(codes)):
        g = mat_mul(g, _x_stack(model, alpha, v), m)
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


def levi_conjugation_check(model: GroupModel, levis, count: int, rng) -> bool:
    """Lemma rootels (ii), phi_i(r v) = r^i phi_i(v) for every r in Z/m, on
    the first `count` elements g of a copy of levis shuffled by rng, every
    relative root alpha and one v per (g, alpha), drawn g by g.  The
    conjugations of one alpha by every g and every r v are one stack."""
    m = model.m
    levis = list(levis)
    rng.shuffle(levis)
    gs = np.stack(levis[:count])[:, None]
    draws = [[[rng.randrange(m) for _ in range(model.v_dim(a))] for a in model.rel_roots]
             for _ in gs]
    scale = np.arange(m, dtype=np.int64)[:, None]
    ok = True
    for k, alpha in enumerate(model.rel_roots):
        v = np.array([row[k] for row in draws], dtype=np.int64)[:, None]
        phi = levi_conjugation_decompose(model, gs, alpha, scale * v % m)  # (g, r, d_i) each
        for i, val in phi.items():
            power = np.array([pow(r, i, m) for r in range(m)])[:, None]
            ok &= bool((val == power * val[:, 1:2] % m).all())
    return ok


def _values(model: GroupModel, alpha: Vec) -> np.ndarray:
    """Every v of V_alpha, as an (m**d, d) array in the order of v_tuples."""
    d = model.v_dim(alpha)
    return _digits(np.arange(model.m ** d), model.m, d)


def _pair_values(model: GroupModel, alpha: Vec, beta: Vec, us, vs, target: Vec) -> np.ndarray:
    """The components at the root target of [X_alpha(u), X_beta(v)] for value
    arrays us (..., d_alpha) and vs (..., d_beta) that broadcast, every
    commutator formed in one stack."""
    ch = chart(model, _pair_cone(model, alpha, beta))
    c = commutator(_x_stack(model, alpha, us), _x_stack(model, beta, vs), model)
    return ch.factor(c, "commutator left the expected unipotent group")[ch.roots.index(target)]


def _check_pair(model: GroupModel, alpha: Vec, beta: Vec) -> Vec:
    target = _vadd(alpha, beta)
    if not model.is_rel_root(target) or opposed_multiples(alpha, beta):
        raise ValueError("need alpha+beta a relative root and no opposition")
    return target


def lemma_ABe_witness(model: GroupModel, alpha: Vec, beta: Vec, u):
    """The least i such that the generator e_i of V_alpha has
    N_{alpha,beta,1,1}(e_i, u) != 0, for one nonzero u of V_beta or for each
    of a (k, d) stack of them, from one stack of commutators.

    Raises TheoremViolation at the first u where every generator gives zero,
    which refutes the statement on this model; its witness holds that u and
    its `index` in the stack."""
    us = np.asarray(u, dtype=np.int64) % model.m
    if not us.any(axis=-1).all():
        raise ValueError("u must be nonzero")
    target = _check_pair(model, alpha, beta)
    d = model.v_dim(alpha)
    gens = np.eye(d, dtype=np.int64).reshape(d, *[1] * (us.ndim - 1), d)
    hit = _pair_values(model, alpha, beta, gens, us, target).any(axis=-1)  # (generator, *u)
    found = hit.any(axis=0)
    if not found.all():
        k = int(np.argmin(found.ravel()))
        bad = tuple(us.reshape(-1, us.shape[-1])[k].tolist())
        raise TheoremViolation("Lemma ABe", f"all generators of V_{alpha} pair to zero against "
                               f"u={bad} in V_{beta} on {model.name()}",
                               witness={"alpha": alpha, "beta": beta, "u": bad, "index": k})
    return np.argmax(hit, axis=0)


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
            try:
                lemma_ABe_witness(model, alpha, beta, us)
            except TheoremViolation as exc:
                return False, abe_checked + exc.witness["index"], const_ok, const_checked
            abe_checked += len(us)
            const_checked += 1
            const_ok &= lemma_const_check(model, alpha, beta)
    return True, abe_checked, const_ok, const_checked


@lru_cache(maxsize=None)
def cone_degrees(model: GroupModel, alpha: Vec, beta: Vec) -> dict[Vec, tuple[int, int]]:
    """Roots i*alpha + j*beta whose (i, j) representation is unique.

    Cached: every caller shares the returned dict, which must not be changed."""
    reps: dict[Vec, list[tuple[int, int]]] = {}
    for gamma in _pair_cone(model, alpha, beta):
        for i in range(1, 7):
            for j in range(1, 7):
                if tuple(i * a + j * b for a, b in zip(alpha, beta)) == gamma:
                    reps.setdefault(gamma, []).append((i, j))
    return {g: ij[0] for g, ij in reps.items() if len(ij) == 1}


@lru_cache(maxsize=None)
def _root_elements(model: GroupModel, alpha: Vec) -> np.ndarray:
    """X_alpha(v) for every v of V_alpha, indexed by v read as a base-m number."""
    return np.stack([model.x(alpha, v) for v in model.v_tuples(alpha)])


def _x_stack(model: GroupModel, alpha: Vec, vs: np.ndarray) -> np.ndarray:
    """X_alpha(v) for a (..., d) array of values v, entries in [0, m)."""
    digits = model.m ** np.arange(vs.shape[-1] - 1, -1, -1, dtype=np.int64)
    return _root_elements(model, alpha)[vs @ digits]


def check_chevalley_homogeneity(
    model: GroupModel, alpha: Vec, beta: Vec, samples: int, rng
) -> int:
    """Scaling u by r multiplies the (i,j) component by r^i, and scaling v
    by r multiplies it by r^j; checked for every r in Z/m on sampled (u, v).

    The commutators [X_alpha(r u), X_beta(v)] and [X_alpha(u), X_beta(r v)]
    of every sample and every r are formed as one stack and factored by one
    chart lookup; one off the chart is a RuntimeError.  A failed comparison
    is reported as a sample-by-sample loop meets it first (r by r, root by
    root, first argument first), and rng is left as that loop leaves it:
    after drawing k+1 samples when sample k fails.
    """
    if not (model.is_rel_root(alpha) and model.is_rel_root(beta)):
        raise ValueError("alpha and beta must be relative roots")
    if opposed_multiples(alpha, beta):
        raise ValueError("opposite multiples are excluded")
    m = model.m
    da, db = model.v_dim(alpha), model.v_dim(beta)
    state = rng.getstate()
    drawn = [rng.randrange(m) for _ in range(samples * (da + db))]
    uv = np.array(drawn, dtype=np.int64).reshape(samples, da + db)
    scale = np.arange(m, dtype=np.int64)[None, :, None]
    xa = _x_stack(model, alpha, scale * uv[:, None, :da] % m)  # (samples, m, n, n)
    xb = _x_stack(model, beta, scale * uv[:, None, da:] % m)
    x = np.concatenate([xa, np.broadcast_to(xa[:, 1:2], xa.shape)], axis=1)
    y = np.concatenate([np.broadcast_to(xb[:, 1:2], xb.shape), xb], axis=1)
    ch = chart(model, _pair_cone(model, alpha, beta))
    lost = ("commutator left the expected unipotent group" if ch.roots
            else "commutator is not trivial over an empty cone")
    values = ch.factor(commutator(x, y, model), lost)  # (samples, 2m, d) each: r u, then r v
    labels, miss = [], []  # per degree comparison: its failure message, its (samples, m) mask
    for gamma, (i, j) in cone_degrees(model, alpha, beta).items():
        got = values[ch.roots.index(gamma)]
        for side, arg, deg in ((0, "first", i), (1, "second", j)):
            want = np.array([pow(r, deg, m) for r in range(m)])[:, None] * got[:, None, 1] % m
            labels.append(f"{arg}-argument degree {deg} fails at {gamma} on {model.name()}")
            miss.append((got[:, side * m:(side + 1) * m] != want).any(-1))
    if not np.any(miss):
        return samples * m
    # the first failure in (sample, r, comparison) order
    k, r, c = (int(t[0]) for t in np.nonzero(np.stack(miss, axis=-1)))
    rng.setstate(state)
    for _ in range((k + 1) * (da + db)):
        rng.randrange(m)
    row = drawn[k * (da + db):(k + 1) * (da + db)]
    raise TheoremViolation("eq. (eq:Chev)", labels[c],
                           witness={"u": tuple(row[:da]), "v": tuple(row[da:]), "r": r})
