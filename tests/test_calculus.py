import random

import numpy as np
import pytest

from chevlat import calculus
from chevlat.errors import TheoremViolation
from chevlat.models import GroupModel
from chevlat.rings import ZmRing


def sl(n, m, blocks=None):
    return GroupModel("SL", n, ZmRing(m), blocks or (1,) * n)


def sp(m, blocks="line"):
    return GroupModel("Sp", 4, ZmRing(m), blocks)


def test_unipotent_factor_example():
    model = sl(3, 4)
    x = np.eye(3, dtype=np.int64)
    x[0, 1] = 2
    x[0, 2] = 3
    comps = calculus.unipotent_factor(model, model.positive_rel_roots, x)
    assert comps == {(1, 0): (2,), (1, 1): (3,), (0, 1): (0,)}


def test_unipotent_factor_identity():
    model = sl(3, 4)
    comps = calculus.unipotent_factor(
        model, model.positive_rel_roots, model.identity()
    )
    assert all(v == (0,) for v in comps.values())


def test_unipotent_factor_rejects_outsiders():
    model = sl(3, 4)
    g = model.identity()
    g[1, 0] = 1  # lower, not in the positive radical
    with pytest.raises(ValueError):
        calculus.unipotent_factor(model, model.positive_rel_roots, g)


def test_unipotent_factor_sp4_line():
    model = sp(3)
    g = (model.x((1,), (1, 2)) @ model.x((2,), (2,))) % 3
    comps = calculus.unipotent_factor(model, model.positive_rel_roots, g)
    assert comps[(1,)] == (1, 2)
    assert comps[(2,)] == (2,)


def test_chart_is_bijective_in_any_order():
    model = sp(3)
    pos = calculus.radical_roots(model)
    ch = calculus.chart(model, pos)
    assert len(ch) == 27  # m^(2+1)
    # products in the reversed order still give radical members
    rng = random.Random(3)
    for _ in range(32):
        v = tuple(rng.randrange(3) for _ in range(2))
        w = (rng.randrange(3),)
        g = (model.x((2,), w) @ model.x((1,), v)) % 3
        assert ch.components(g) is not None


def test_chevalley_decompose_sl3():
    model = sl(3, 4)
    dec = calculus.chevalley_commutator_decompose(model, (1, 0), (1,), (0, 1), (2,))
    assert dec == [((1, 1), (2,))]
    assert calculus.chevalley_commutator_decompose(model, (1, 0), (0,), (0, 1), (2,)) == []


def test_chevalley_decompose_sl4_blocks():
    model = sl(4, 2, (1, 1, 2))
    u, v = (1,), (1, 0)
    dec = calculus.chevalley_commutator_decompose(model, (1, 0), u, (0, 1), v)
    assert dec == [((1, 1), (1, 0))]  # u*v as a 1x2 row


def test_chevalley_rejects_opposed():
    model = sl(3, 4)
    with pytest.raises(ValueError):
        calculus.chevalley_commutator_decompose(model, (1, 0), (1,), (-1, 0), (1,))
    model2 = sp(3)
    with pytest.raises(ValueError):
        calculus.chevalley_commutator_decompose(model2, (2,), (1,), (-1,), (1,))


def test_sum_formula_sl_is_exact():
    model = sl(3, 4)
    for alpha in model.rel_roots:
        for v in model.v_tuples(alpha):
            for w in model.v_tuples(alpha):
                first, higher = calculus.sum_formula_decompose(model, alpha, v, w)
                assert first == tuple((a + b) % 4 for a, b in zip(v, w))
                assert higher == {}


def test_sum_formula_sp4_line_q2():
    model = sp(3)
    # q2 from the matrix model: bilinear, vanishing only when w1*v2 = 0
    def q2(v, w):
        _, higher = calculus.sum_formula_decompose(model, (1,), v, w)
        return higher.get(2, (0,))[0]

    for v1, v2, w1, w2 in ((1, 2, 1, 1), (2, 2, 2, 1), (0, 1, 1, 0)):
        v, w = (v1, v2), (w1, w2)
        base = q2(v, w)
        # biadditivity in each slot
        for u in ((1, 0), (0, 1), (2, 2)):
            lhs = q2(tuple((a + b) % 3 for a, b in zip(v, u)), w)
            assert lhs == (q2(v, w) + q2(u, w)) % 3
            rhs = q2(v, tuple((a + b) % 3 for a, b in zip(w, u)))
            assert rhs == (q2(v, w) + q2(v, u)) % 3
        # degree pattern: scaling both arguments scales q2 quadratically
        for r in range(3):
            rv = tuple(r * a % 3 for a in v)
            rw = tuple(r * a % 3 for a in w)
            assert q2(rv, rw) == (r * r * base) % 3


def test_sum_formula_inverse_leaves_double_term():
    model = sp(3)
    v = (1, 2)
    w = tuple((-a) % 3 for a in v)
    first, higher = calculus.sum_formula_decompose(model, (1,), v, w)
    assert first == (0, 0)
    # X_a(v) X_a(-v) lands entirely in the double root subgroup
    g = (model.x((1,), v) @ model.x((1,), w)) % 3
    assert (g == model.x((2,), higher.get(2, (0,)))).all()


def test_levi_conjugation_diagonal():
    model = sl(3, 5)
    g = np.diag([2, 3, 1]).astype(np.int64)  # det 6 = 1 mod 5
    phi = calculus.levi_conjugation_decompose(model, g, (1, 0), (1,))
    assert phi == {1: ((2 * pow(3, -1, 5)) % 5,)}


def test_levi_conjugation_identity():
    model = sl(3, 5)
    phi = calculus.levi_conjugation_decompose(model, model.identity(), (1, 0), (3,))
    assert phi == {1: (3,)}


def test_levi_conjugation_sp4_line_mixing():
    model = sp(3)
    # a Levi element whose SL2 block mixes the two V_a coordinates
    mix = np.zeros((4, 4), dtype=np.int64)
    mix[0, 0] = 1
    mix[3, 3] = 1
    mix[1:3, 1:3] = np.array([[1, 1], [0, 1]])
    assert model.in_levi(mix)
    v = (1, 0)
    phi = calculus.levi_conjugation_decompose(model, mix, (1,), v)
    assert 1 in phi
    # with the plain-product parametrization a double-root correction shows up
    total = model.x((1,), phi[1])
    if 2 in phi:
        total = (total @ model.x((2,), phi[2])) % 3
    conj = (mix @ model.x((1,), v) @ model.inverse(mix)) % 3
    assert (conj == total).all()
    mixed_phi2 = any(
        2 in calculus.levi_conjugation_decompose(model, mix, (1,), w)
        and any(calculus.levi_conjugation_decompose(model, mix, (1,), w)[2])
        for w in model.v_tuples((1,))
    )
    assert mixed_phi2


def test_levi_conjugation_rejects_non_levi():
    model = sl(3, 5)
    g = model.elementary_generator((0, 1), 1)
    with pytest.raises(ValueError):
        calculus.levi_conjugation_decompose(model, g, (1, 0), (1,))


def test_commutator_identity_random():
    rng = random.Random(17)
    for model in (sl(3, 4), sp(3, "borel")):
        gens = model.all_elementary_generators()
        for _ in range(200):
            x, y, z = (gens[rng.randrange(len(gens))] for _ in range(3))
            assert calculus.commutator_identity_check(model, x, y, z)
    model = sl(3, 4)
    e = model.identity()
    assert calculus.commutator_identity_check(model, e, e, e)


def test_lemma_abe_witness_examples():
    model = sl(3, 4)
    idx = calculus.lemma_ABe_witness(model, (1, 0), (0, 1), (2,))
    assert idx == 0  # N((1), (2)) = 2 != 0 mod 4
    model6 = sl(3, 6)
    assert calculus.lemma_ABe_witness(model6, (1, 0), (0, 1), (3,)) == 0
    model42 = sl(4, 2, (1, 1, 2))
    assert calculus.lemma_ABe_witness(model42, (1, 0), (0, 1), (1, 0)) is not None


def test_lemma_abe_fails_on_sp4_mod2():
    # the short-short commutator carries the constant 2, which dies mod 2
    model = sp(2, "borel")
    with pytest.raises(TheoremViolation):
        calculus.lemma_ABe_witness(model, (1, 0), (1, 1), (1,))


def test_lemma_const_examples():
    assert calculus.lemma_const_check(sl(3, 4), (1, 0), (0, 1))
    assert calculus.lemma_const_check(sl(4, 2, (2, 1, 1)), (1, 0), (0, 1))
    assert calculus.lemma_const_check(sp(3, "borel"), (1, 0), (0, 1))
    # BC pair with alpha = beta: contributions of case (2) needed
    assert calculus.lemma_const_check(sp(3, "line"), (1,), (1,))


def test_chevalley_homogeneity_sampled():
    rng = random.Random(23)
    for model in (sl(3, 4), sp(3, "line")):
        for alpha in model.rel_roots:
            for beta in model.rel_roots:
                if calculus.opposed_multiples(alpha, beta):
                    continue
                calculus.check_chevalley_homogeneity(model, alpha, beta, 4, rng)


def test_cone_degrees():
    model = sp(3, "borel")
    degs = calculus.cone_degrees(model, (1, 0), (0, 1))
    assert degs == {(1, 1): (1, 1), (2, 1): (2, 1)}


def _scalar_homogeneity(model, alpha, beta, samples, rng):
    """Sample-by-sample reference for check_chevalley_homogeneity."""
    m = model.m

    def scale(r, v):
        return tuple((r * x) % m for x in v)

    degrees = calculus.cone_degrees(model, alpha, beta)
    checked = 0
    da, db = model.v_dim(alpha), model.v_dim(beta)
    for _ in range(samples):
        u = tuple(rng.randrange(m) for _ in range(da))
        v = tuple(rng.randrange(m) for _ in range(db))
        base = dict(calculus.chevalley_commutator_decompose(model, alpha, u, beta, v))
        for r in range(m):
            left = dict(calculus.chevalley_commutator_decompose(model, alpha, scale(r, u), beta, v))
            right = dict(calculus.chevalley_commutator_decompose(model, alpha, u, beta, scale(r, v)))
            for gamma, (i, j) in degrees.items():
                zero = (0,) * model.v_dim(gamma)
                base_val = base.get(gamma, zero)
                if left.get(gamma, zero) != scale(pow(r, i, m), base_val):
                    raise TheoremViolation(
                        "eq. (eq:Chev)",
                        f"first-argument degree {i} fails at {gamma} on {model.name()}",
                        witness={"u": u, "v": v, "r": r},
                    )
                if right.get(gamma, zero) != scale(pow(r, j, m), base_val):
                    raise TheoremViolation(
                        "eq. (eq:Chev)",
                        f"second-argument degree {j} fails at {gamma} on {model.name()}",
                        witness={"u": u, "v": v, "r": r},
                    )
            checked += 1
    return checked


def _homogeneity_run(check, model, samples, seed):
    """Outcome and rng state after each non-opposed pair, one rng throughout."""
    rng = random.Random(seed)
    out = []
    for alpha in model.rel_roots:
        for beta in model.rel_roots:
            if calculus.opposed_multiples(alpha, beta):
                continue
            try:
                result = check(model, alpha, beta, samples, rng)
            except TheoremViolation as exc:
                result = (str(exc), exc.witness)
            out.append((alpha, beta, result, rng.getstate()))
    return out


HOMOGENEITY_MODELS = [sl(3, 4), sp(3, "line"), sp(2, "borel")]


@pytest.mark.parametrize("model", HOMOGENEITY_MODELS, ids=lambda mo: mo.name())
def test_stacked_homogeneity_matches_scalar_reference(model):
    stacked = _homogeneity_run(calculus.check_chevalley_homogeneity, model, 6, 41)
    assert stacked == _homogeneity_run(_scalar_homogeneity, model, 6, 41)
    assert all(res == 6 * model.m for _, _, res, _ in stacked)


@pytest.mark.parametrize("model", HOMOGENEITY_MODELS, ids=lambda mo: mo.name())
def test_stacked_homogeneity_failure_matches_scalar_reference(model, monkeypatch):
    # degree 0 in the first argument claims [X_alpha(0), X_beta(v)] = base,
    # which fails at the first sample with a nonzero base component
    true_degrees = calculus.cone_degrees
    monkeypatch.setattr(calculus, "cone_degrees", lambda model, a, b: {
        g: (0, j) for g, (i, j) in true_degrees(model, a, b).items()})
    stacked = _homogeneity_run(calculus.check_chevalley_homogeneity, model, 6, 43)
    assert stacked == _homogeneity_run(_scalar_homogeneity, model, 6, 43)
    failures = [res for _, _, res, _ in stacked if isinstance(res, tuple)]
    assert failures and all("first-argument degree 0 fails" in msg for msg, _ in failures)


def test_stacked_identity_check_matches_scalar():
    rng = np.random.default_rng(11)
    for model in (sl(3, 4), sp(3, "line")):
        gens = np.stack(model.all_elementary_generators())
        # group elements satisfy the identity; random matrices mostly do not
        pool = np.concatenate([gens, rng.integers(0, model.m, size=(12, model.degree, model.degree))])
        x, y, z = (pool[rng.integers(0, len(pool), size=200)] for _ in range(3))
        held = calculus.commutator_identity_check(model, x, y, z)
        assert held.shape == (200,) and held.dtype == bool
        assert held.tolist() == [calculus.commutator_identity_check(model, *t) for t in zip(x, y, z)]
        assert held.any() and not held.all()


def test_sampled_identity_check_leaves_rng_like_a_scalar_loop():
    model = sl(3, 4)
    elems = model.all_elementary_generators()
    singular = [np.diag([1, 2, 2]).astype(np.int64)]
    for mats, expect in ((elems, True), (elems + singular, False)):
        rng, ref = random.Random(5), random.Random(5)
        assert calculus.sampled_identity_check(model, mats, 300, rng) is expect
        ok = True
        for _ in range(300):
            x, y, z = (mats[ref.randrange(len(mats))] for _ in range(3))
            if not calculus.commutator_identity_check(model, x, y, z):
                ok = False
                break
        assert ok is expect
        assert rng.getstate() == ref.getstate()
