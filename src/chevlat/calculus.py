"""Unipotent factorization and the commutator-formula decompositions.

A chart enumerates the product map (v_alpha)_alpha -> prod X_alpha(v_alpha)
over an additively closed set of relative roots, in the canonical
height-then-lex order, and inverts it by table lookup.  Bijectivity of this
map is asserted during construction, which is the parametrization statement
itself.  Everything downstream (sum formulas, conjugation and commutator
decompositions, the nondegeneracy and generation lemmas) factors matrices
through a chart and reads the polynomial values off numerically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import TheoremViolation
from .models import GroupModel, Vec
from .rings import mat_mul


def canonical_root_order(roots) -> list[Vec]:
    return sorted(roots, key=lambda v: (sum(v), v))


def _scale(r: int, v: Vec, m: int) -> Vec:
    return tuple((r * x) % m for x in v)


def _vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


@dataclass(frozen=True)
class UnipotentChart:
    model: GroupModel
    roots: tuple[Vec, ...]
    by_key: dict

    def components(self, g: np.ndarray) -> tuple[Vec, ...] | None:
        key = tuple(int(x) % self.model.m for x in np.asarray(g).flatten())
        return self.by_key.get(key)

    def product(self, components) -> np.ndarray:
        g = self.model.identity()
        for alpha, v in zip(self.roots, components):
            g = mat_mul(g, self.model.x(alpha, v), self.model.m)
        return g

    def __len__(self):
        return len(self.by_key)


@lru_cache(maxsize=None)
def chart(model: GroupModel, roots: tuple[Vec, ...]) -> UnipotentChart:
    """Chart over an additively closed root set, canonical order."""
    ordered = tuple(canonical_root_order(roots))
    spaces = [list(model.v_tuples(a)) for a in ordered]
    by_key = {}
    for combo in itertools.product(*spaces):
        g = model.identity()
        for alpha, v in zip(ordered, combo):
            g = mat_mul(g, model.x(alpha, v), model.m)
        key = tuple(int(x) for x in g.flatten())
        if key in by_key:
            raise RuntimeError(f"product map not injective over {ordered}")
        by_key[key] = combo
    return UnipotentChart(model, ordered, by_key)


def radical_roots(model: GroupModel, negative: bool = False) -> tuple[Vec, ...]:
    pos = model.positive_rel_roots
    if negative:
        return tuple(tuple(-c for c in a) for a in pos)
    return tuple(pos)


def radical_chart(model: GroupModel, negative: bool = False) -> UnipotentChart:
    return chart(model, radical_roots(model, negative))


def unipotent_factor(model: GroupModel, psi, g: np.ndarray) -> dict[Vec, Vec]:
    """Components of g as an ordered product over psi; error if g is not in
    the corresponding unipotent group."""
    ch = chart(model, tuple(psi))
    comps = ch.components(g)
    if comps is None:
        raise ValueError("matrix is not a product over the given root set")
    return dict(zip(ch.roots, comps))


def _multiple_cone(model: GroupModel, alpha: Vec) -> tuple[Vec, ...]:
    out = []
    i = 1
    while True:
        v = tuple(i * c for c in alpha)
        if not model.is_rel_root(v):
            if i > 1:
                break
        else:
            out.append(v)
        i += 1
        if i > 8:
            break
    return tuple(out)


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


def chevalley_commutator_decompose(
    model: GroupModel, alpha: Vec, u: Vec, beta: Vec, v: Vec
) -> list[tuple[Vec, Vec]]:
    """[X_alpha(u), X_beta(v)] factored over {i*alpha + j*beta}.

    Returns (root, value) pairs with nonzero value, in canonical order.
    """
    if not (model.is_rel_root(alpha) and model.is_rel_root(beta)):
        raise ValueError("alpha and beta must be relative roots")
    if opposed_multiples(alpha, beta):
        raise ValueError("opposite multiples are excluded")
    cone = _pair_cone(model, alpha, beta)
    c = commutator(model.x(alpha, u), model.x(beta, v), model)
    if not cone:
        if not (c == model.identity()).all():
            raise RuntimeError("commutator is not trivial over an empty cone")
        return []
    comps = chart(model, cone).components(c)
    if comps is None:
        raise RuntimeError("commutator left the expected unipotent group")
    return [(g, w) for g, w in zip(canonical_root_order(cone), comps) if any(w)]


def sum_formula_decompose(model: GroupModel, alpha: Vec, v: Vec, w: Vec):
    """X_alpha(v) X_alpha(w) = X_alpha(v+w) * higher multiples.

    Returns (v+w, {i: value}) where i indexes the multiple i*alpha.
    """
    cone = _multiple_cone(model, alpha)
    prod = mat_mul(model.x(alpha, v), model.x(alpha, w), model.m)
    comps = chart(model, cone).components(prod)
    if comps is None:
        raise RuntimeError("product left the unipotent group of the multiples")
    ordered = canonical_root_order(cone)
    first = comps[ordered.index(alpha)]
    expected = tuple((a + b) % model.m for a, b in zip(v, w))
    if first != expected:
        raise RuntimeError("leading component of the sum formula is not v+w")
    higher = {
        sum(g) // sum(alpha): val
        for g, val in zip(ordered, comps)
        if g != alpha and any(val)
    }
    return first, higher


def levi_conjugation_decompose(model: GroupModel, g: np.ndarray, alpha: Vec, v: Vec):
    """g X_alpha(v) g^-1 = prod_i X_{i alpha}(phi_i(v)) for Levi g."""
    if not model.in_levi(g):
        raise ValueError("conjugator must lie in the Levi subgroup")
    cone = _multiple_cone(model, alpha)
    conj = mat_mul(mat_mul(g, model.x(alpha, v), model.m), model.inverse(g), model.m)
    comps = chart(model, cone).components(conj)
    if comps is None:
        raise RuntimeError("Levi conjugation left the unipotent group")
    ordered = canonical_root_order(cone)
    ratio = [sum(gam) // sum(alpha) for gam in ordered]
    return {i: val for i, val in zip(ratio, comps)}


def component_at(decomp, gamma: Vec) -> Vec | None:
    for g, v in decomp:
        if g == gamma:
            return v
    return None


def lemma_ABe_witness(
    model: GroupModel, alpha: Vec, beta: Vec, u: Vec, gens=None
) -> int:
    """Some generator e_i of V_alpha has N_{alpha,beta,1,1}(e_i, u) != 0.

    Raises TheoremViolation when every generator gives zero, which refutes
    the statement on this model.
    """
    if not any(x % model.m for x in u):
        raise ValueError("u must be nonzero")
    target = _vadd(alpha, beta)
    if not model.is_rel_root(target):
        raise ValueError("alpha+beta must be a relative root")
    gens = list(gens) if gens is not None else model.v_basis(alpha)
    for i, e in enumerate(gens):
        comp = component_at(
            chevalley_commutator_decompose(model, alpha, e, beta, u), target
        )
        if comp is not None and any(comp):
            return i
    raise TheoremViolation(
        "Lemma ABe",
        f"all generators of V_{alpha} pair to zero against u={u} in V_{beta} "
        f"on {model.name()}",
        witness={"alpha": alpha, "beta": beta, "u": u},
    )


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
    contribute as well.
    """
    target = _vadd(alpha, beta)
    if not model.is_rel_root(target) or opposed_multiples(alpha, beta):
        raise ValueError("need alpha+beta a relative root and no opposition")
    m = model.m
    values = []
    for u in model.v_tuples(alpha):
        for v in model.v_tuples(beta):
            comp = component_at(
                chevalley_commutator_decompose(model, alpha, u, beta, v), target
            )
            if comp is not None:
                values.append(comp)
    diff = tuple(a - b for a, b in zip(alpha, beta))
    if model.is_rel_root(diff):
        two_beta = tuple(2 * b for b in beta)
        if model.is_rel_root(two_beta):
            for u in model.v_tuples(diff):
                for v in model.v_tuples(two_beta):
                    comp = component_at(
                        chevalley_commutator_decompose(model, diff, u, two_beta, v),
                        target,
                    )
                    if comp is not None:
                        values.append(comp)
        for u in model.v_tuples(diff):
            for v in model.v_tuples(beta):
                comp = component_at(
                    chevalley_commutator_decompose(model, diff, u, beta, v), target
                )
                if comp is not None:
                    values.append(comp)
    return _additive_closure(values, model.v_dim(target), m) == m ** model.v_dim(target)


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


def _check_homogeneity_sample(model, cone, degrees, u, v, left, right):
    """The degree comparisons of one sample, in the order of a scalar loop:
    the base decomposition, then for each r the two scaled decompositions
    and their comparisons.  left[r] and right[r] are the chart components of
    [X_alpha(r u), X_beta(v)] and [X_alpha(u), X_beta(r v)], None where the
    commutator is off the chart; r = 1 gives the base."""
    m = model.m
    lost = ("commutator left the expected unipotent group" if cone
            else "commutator is not trivial over an empty cone")
    if left[1] is None:
        raise RuntimeError(lost)
    base = dict(zip(cone, left[1]))
    for r in range(m):
        if left[r] is None or right[r] is None:
            raise RuntimeError(lost)
        got = dict(zip(cone, left[r])), dict(zip(cone, right[r]))
        for gamma, (i, j) in degrees.items():
            zero = (0,) * model.v_dim(gamma)
            base_val = base.get(gamma, zero)
            for side, arg, deg in ((0, "first", i), (1, "second", j)):
                if got[side].get(gamma, zero) != _scale(pow(r, deg, m), base_val, m):
                    raise TheoremViolation(
                        "eq. (eq:Chev)",
                        f"{arg}-argument degree {deg} fails at {gamma} on {model.name()}",
                        witness={"u": u, "v": v, "r": r},
                    )


def check_chevalley_homogeneity(
    model: GroupModel, alpha: Vec, beta: Vec, samples: int, rng
) -> int:
    """Scaling u by r multiplies the (i,j) component by r^i, and scaling v
    by r multiplies it by r^j; checked for every r in Z/m on sampled (u, v).

    The commutators [X_alpha(r u), X_beta(v)] and [X_alpha(u), X_beta(r v)]
    of every sample and every r are formed as one stack.  On a failure at
    sample k, rng is left as a sample-by-sample loop leaves it: after
    drawing k+1 samples.
    """
    if not (model.is_rel_root(alpha) and model.is_rel_root(beta)):
        raise ValueError("alpha and beta must be relative roots")
    if opposed_multiples(alpha, beta):
        raise ValueError("opposite multiples are excluded")
    m, n = model.m, model.degree
    degrees = cone_degrees(model, alpha, beta)
    da, db = model.v_dim(alpha), model.v_dim(beta)
    state = rng.getstate()
    drawn = [rng.randrange(m) for _ in range(samples * (da + db))]
    uv = np.array(drawn, dtype=np.int64).reshape(samples, da + db)
    scale = np.arange(m, dtype=np.int64)[None, :, None]
    xa = _x_stack(model, alpha, scale * uv[:, None, :da] % m)  # (samples, m, n, n)
    xb = _x_stack(model, beta, scale * uv[:, None, da:] % m)
    x = np.concatenate([xa, np.broadcast_to(xa[:, 1:2], xa.shape)], axis=1)
    y = np.concatenate([np.broadcast_to(xb[:, 1:2], xb.shape), xb], axis=1)
    cone = _pair_cone(model, alpha, beta)
    by_key = chart(model, cone).by_key
    comps = [by_key.get(tuple(k)) for k in commutator(x, y, model).reshape(-1, n * n).tolist()]
    for k in range(samples):
        row, at = drawn[k * (da + db):(k + 1) * (da + db)], 2 * m * k
        try:
            _check_homogeneity_sample(model, cone, degrees, tuple(row[:da]), tuple(row[da:]),
                                      comps[at:at + m], comps[at + m:at + 2 * m])
        except (RuntimeError, TheoremViolation):
            rng.setstate(state)
            for _ in range((k + 1) * (da + db)):
                rng.randrange(m)
            raise
    return samples * m
