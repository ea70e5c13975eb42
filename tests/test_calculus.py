import random

import numpy as np
import pytest

from chevlat import calculus
from chevlat.errors import SizeCapError, TableBoundError, TheoremViolation
from chevlat.models import GroupModel

from conftest import (
    REFERENCE_MODELS, chevalley_commutator_decompose, commutator, component_at, reference_chart,
    reference_cone_degrees, reference_levi_conjugation_check, reference_pair_cone,
    reference_pairing_sweep, unipotent_factor,
)


def sl(n, m, blocks=None):
    return GroupModel("SL", n, m, blocks or (1,) * n)


def sp(m, blocks="line"):
    return GroupModel("Sp", 4, m, blocks)


def test_unipotent_factor_example():
    model = sl(3, 4)
    x = np.eye(3, dtype=np.int64)
    x[0, 1] = 2
    x[0, 2] = 3
    comps = unipotent_factor(model, model.positive_rel_roots, x)
    assert comps == {(1, 0): (2,), (1, 1): (3,), (0, 1): (0,)}


def test_unipotent_factor_identity():
    model = sl(3, 4)
    comps = unipotent_factor(
        model, model.positive_rel_roots, model.identity()
    )
    assert all(v == (0,) for v in comps.values())


def test_unipotent_factor_rejects_outsiders():
    model = sl(3, 4)
    g = model.identity()
    g[1, 0] = 1  # lower, not in the positive radical
    with pytest.raises(ValueError):
        unipotent_factor(model, model.positive_rel_roots, g)


def test_unipotent_factor_sp4_line():
    model = sp(3)
    g = (model.x((1,), (1, 2)) @ model.x((2,), (2,))) % 3
    comps = unipotent_factor(model, model.positive_rel_roots, g)
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
        assert ch.lookup(g) >= 0


CHART_CASES = [
    (sl(3, 4), ((1, 0), (0, 1), (1, 1))),
    (sl(4, 2, (1, 1, 2)), ((1, 0), (0, 1), (1, 1))),
    (sp(3), ((-1,), (-2,))),
    (sp(2, "borel"), ((1, 0), (0, 1), (1, 1), (2, 1))),
]


@pytest.mark.parametrize("model, roots", CHART_CASES,
                         ids=[f"{mo.name()}-{roots}" for mo, roots in CHART_CASES])
def test_chart_matches_reference_products(model, roots):
    ordered, by_key = reference_chart(model, roots)
    ch = calculus.chart(model, roots)
    assert ch.roots == ordered and len(ch) == len(by_key)
    n = model.degree
    keys = np.array(list(by_key), dtype=np.int64).reshape(-1, n, n)
    assert (ch.mats == keys).all()  # products in code order
    assert ch.lookup(keys).tolist() == list(range(len(ch)))
    decoded = zip(*(v.tolist() for v in ch.components(np.arange(len(ch)))))
    assert [tuple(map(tuple, combo)) for combo in decoded] == list(by_key.values())
    off = model.identity()
    off[-1, 0] = 1  # a corner entry on the other side of the diagonal
    if roots[0][0] < 0:
        off = off.T
    assert ch.lookup(off[None]).tolist() == [-1]


def test_chart_refuses_a_non_injective_product_map():
    # X_alpha(v) X_alpha(w) = X_alpha(v + w): a root taken twice is not a chart
    with pytest.raises(RuntimeError, match="not injective"):
        calculus.chart(sl(3, 2), ((1, 0), (1, 0)))


def test_chart_refuses_oversized_products_and_keys():
    # the SL5(Z/5) radical has 5**10 products, past models.SCAN_BOUND
    with pytest.raises(SizeCapError, match="has 9765625 products") as err:
        calculus.radical_chart(sl(5, 5))
    assert type(err.value) is SizeCapError
    # 2x2 keys over Z/2**16 reach 2**64, past int64, although the chart is small
    with pytest.raises(TableBoundError, match="2\\*\\*63 - 1"):
        calculus.radical_chart(sl(2, 2**16))


def test_chevalley_decompose_sl3():
    model = sl(3, 4)
    dec = chevalley_commutator_decompose(model, (1, 0), (1,), (0, 1), (2,))
    assert dec == [((1, 1), (2,))]
    assert chevalley_commutator_decompose(model, (1, 0), (0,), (0, 1), (2,)) == []


def test_chevalley_decompose_sl4_blocks():
    model = sl(4, 2, (1, 1, 2))
    u, v = (1,), (1, 0)
    dec = chevalley_commutator_decompose(model, (1, 0), u, (0, 1), v)
    assert dec == [((1, 1), (1, 0))]  # u*v as a 1x2 row


def test_chevalley_rejects_opposed():
    model = sl(3, 4)
    with pytest.raises(ValueError):
        chevalley_commutator_decompose(model, (1, 0), (1,), (-1, 0), (1,))
    model2 = sp(3)
    with pytest.raises(ValueError):
        chevalley_commutator_decompose(model2, (2,), (1,), (-1,), (1,))


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
                calculus.check_chevalley_homogeneity(model, [(alpha, beta)], 4, rng)


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
        base = dict(chevalley_commutator_decompose(model, alpha, u, beta, v))
        for r in range(m):
            left = dict(chevalley_commutator_decompose(model, alpha, scale(r, u), beta, v))
            right = dict(chevalley_commutator_decompose(model, alpha, u, beta, scale(r, v)))
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


def _one_pair(model, alpha, beta, samples, rng):
    """check_chevalley_homogeneity on the one-pair batch [(alpha, beta)]."""
    return calculus.check_chevalley_homogeneity(model, [(alpha, beta)], samples, rng)


def _after_draws(seed, draws, m):
    """The state of random.Random(seed) after `draws` calls of randrange(m)."""
    rng = random.Random(seed)
    for _ in range(draws):
        rng.randrange(m)
    return rng.getstate()


def _homogeneity_run(check, model, samples, seed):
    """Outcome of each non-opposed pair p, each on a fresh random.Random(seed + p),
    and the rng states after them."""
    outcomes, states = [], []
    for p, (alpha, beta) in enumerate(_pairs(model)):
        rng = random.Random(seed + p)
        try:
            result = check(model, alpha, beta, samples, rng)
        except TheoremViolation as exc:
            result = (str(exc), exc.witness)
        outcomes.append((alpha, beta, result))
        states.append(rng.getstate())
    return outcomes, states


def _up_front_states(model, samples, seed):
    """The states of _homogeneity_run's rngs after every draw of their pairs."""
    return [_after_draws(seed + p, samples * (model.v_dim(a) + model.v_dim(b)), model.m)
            for p, (a, b) in enumerate(_pairs(model))]


HOMOGENEITY_MODELS = [sl(3, 4), sp(3, "line"), sp(2, "borel")]


@pytest.mark.parametrize("model", HOMOGENEITY_MODELS, ids=lambda mo: mo.name())
def test_stacked_homogeneity_matches_scalar_reference(model):
    stacked = _homogeneity_run(_one_pair, model, 6, 41)
    assert stacked == _homogeneity_run(_scalar_homogeneity, model, 6, 41)
    assert stacked[1] == _up_front_states(model, 6, 41)
    assert all(res == 6 * model.m for _, _, res in stacked[0])


@pytest.mark.parametrize("model", HOMOGENEITY_MODELS, ids=lambda mo: mo.name())
def test_stacked_homogeneity_failure_matches_scalar_reference(model, monkeypatch):
    # degree 0 in the first argument claims [X_alpha(0), X_beta(v)] = base,
    # which fails at the first sample with a nonzero base component
    true_degrees = calculus.cone_degrees
    monkeypatch.setattr(calculus, "cone_degrees", lambda model, a, b: {
        g: (0, j) for g, (i, j) in true_degrees(model, a, b).items()})
    # same verdicts and witnesses as the loop on the same draws; the stacked
    # check has made every draw of its pair, the loop stops at the failure
    stacked = _homogeneity_run(_one_pair, model, 6, 43)
    assert stacked[0] == _homogeneity_run(_scalar_homogeneity, model, 6, 43)[0]
    assert stacked[1] == _up_front_states(model, 6, 43)
    failures = [res for _, _, res in stacked[0] if isinstance(res, tuple)]
    assert failures and all("first-argument degree 0 fails" in msg for msg, _ in failures)


PAIR_TABLE_MODELS = [
    sl(3, 2), sl(3, 3), sl(3, 4), sl(4, 2), sp(2, "borel"), sp(3, "line"),
    sl(3, 6), sp(4, "line"), sp(3, "borel"), sp(3, "siegel"), sl(4, 2, (1, 2, 1)),
]


@pytest.mark.parametrize("model", PAIR_TABLE_MODELS, ids=lambda mo: mo.name())
def test_pair_table_matches_tuple_loops(model):
    for alpha in model.rel_roots:
        for beta in model.rel_roots:
            assert calculus._pair_cone(model, alpha, beta) == reference_pair_cone(model, alpha, beta)
            degrees = calculus.cone_degrees(model, alpha, beta)
            assert list(degrees.items()) == list(reference_cone_degrees(model, alpha, beta).items())


def _pairs(model):
    return [(a, b) for a in model.rel_roots for b in model.rel_roots
            if not calculus.opposed_multiples(a, b)]


def _per_pair_homogeneity(model, samples, rng):
    """sampled_homogeneity_check as a pair-by-pair loop of the scalar reference."""
    checked = 0
    try:
        for alpha, beta in _pairs(model):
            checked += _scalar_homogeneity(model, alpha, beta, samples, rng)
    except TheoremViolation:
        return False, checked
    return True, checked


def _outcome(run, model, seed):
    """(result or exception text, rng state) of one run over the whole model."""
    rng = random.Random(seed)
    try:
        result = run(model, 6, rng)
    except RuntimeError as exc:
        result = str(exc)
    return result, rng.getstate()


def _whole_model(model, seed):
    """_outcome of sampled_homogeneity_check, whose rng has made its draws
    for every pair, whatever the outcome."""
    result, state = _outcome(calculus.sampled_homogeneity_check, model, seed)
    width = sum(model.v_dim(a) + model.v_dim(b) for a, b in _pairs(model))
    assert state == _after_draws(seed, 6 * width, model.m)
    return result


def _wrong_degrees_at(monkeypatch, pair=None, true_degrees=calculus.cone_degrees):
    # claim degree 0 in the first argument at one pair only, or at every pair
    monkeypatch.setattr(calculus, "cone_degrees", lambda model, a, b: {
        g: (0, j) for g, (i, j) in true_degrees(model, a, b).items()} if pair in (None, (a, b))
        else true_degrees(model, a, b))


@pytest.mark.parametrize("model", HOMOGENEITY_MODELS, ids=lambda mo: mo.name())
def test_whole_model_homogeneity_matches_per_pair_loop(model, monkeypatch):
    pairs = _pairs(model)
    clean = _whole_model(model, 47)
    assert clean == _outcome(_per_pair_homogeneity, model, 47)[0]
    assert clean == (True, 6 * model.m * len(pairs))
    # a failure at one later pair only: the pairs before it are counted
    late = max(p for p, (a, b) in enumerate(pairs) if calculus.cone_degrees(model, a, b))
    _wrong_degrees_at(monkeypatch, pairs[late])
    failed = _whole_model(model, 47)
    assert failed == _outcome(_per_pair_homogeneity, model, 47)[0]
    assert failed == (False, 6 * model.m * late)
    # wrong at every pair: the first pair that meets a failure reports it
    _wrong_degrees_at(monkeypatch)
    everywhere = _whole_model(model, 47)
    assert everywhere == _outcome(_per_pair_homogeneity, model, 47)[0]
    assert everywhere[0] is False


def _empty_cone_at(monkeypatch, pair, true_cone=calculus._pair_cone):
    # a cone too small for one pair only
    monkeypatch.setattr(calculus, "_pair_cone", lambda model, a, b: () if (a, b) == pair
                        else true_cone(model, a, b))


@pytest.mark.parametrize("model", HOMOGENEITY_MODELS, ids=lambda mo: mo.name())
def test_off_chart_pair_is_reported_only_without_an_earlier_failure(model, monkeypatch):
    pairs = _pairs(model)
    # the pairs where some commutator of basis root elements is not trivial
    moving = [p for p, (a, b) in enumerate(pairs) if any(
        (commutator(model.x(a, e), model.x(b, f), model) != model.identity()).any()
        for e in model.v_basis(a) for f in model.v_basis(b))]
    first, last = moving[0], moving[-1]
    # off its chart at the first such pair, with or without a later failure
    _empty_cone_at(monkeypatch, pairs[first])
    lost = _whole_model(model, 53)  # after the draws of every pair
    assert lost == "commutator is not trivial over an empty cone"
    assert lost == _outcome(_per_pair_homogeneity, model, 53)[0]
    _wrong_degrees_at(monkeypatch, pairs[last])
    assert _whole_model(model, 53) == lost
    # off its chart at the last such pair, after a failure at the first
    _empty_cone_at(monkeypatch, pairs[last])
    _wrong_degrees_at(monkeypatch, pairs[first])
    earlier = _whole_model(model, 53)
    assert earlier == _outcome(_per_pair_homogeneity, model, 53)[0]
    assert earlier == (False, 6 * model.m * first)


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


def test_sampled_identity_check_matches_a_scalar_loop(monkeypatch):
    model = sl(3, 4)
    offsets, elems, inverses = calculus._root_table(model)
    singular = np.diag([1, 2, 2]).astype(np.int64)[None]
    inverse, calls = GroupModel.inverse, []

    def counted(self, g):
        calls.append(np.shape(g))
        return inverse(self, g)

    for mats, expect in ((elems, True), (np.concatenate([elems, singular]), False)):
        table = offsets, mats, inverse(model, mats)  # the pool: a root table
        monkeypatch.setattr(calculus, "_root_table", lambda model: table)
        rng, ref = random.Random(5), random.Random(5)
        calls.clear()
        monkeypatch.setattr(GroupModel, "inverse", counted)
        assert calculus.sampled_identity_check(model, 300, rng) is expect
        monkeypatch.setattr(GroupModel, "inverse", inverse)
        assert calls == []  # the pool's inverses are the table's
        ok = True
        for _ in range(300):
            x, y, z = (mats[ref.randrange(len(mats))] for _ in range(3))
            if not calculus.commutator_identity_check(model, x, y, z):
                ok = False
                break
        assert ok is expect
        # the check has made all 3 * 300 draws, whatever its verdict
        assert rng.getstate() == _after_draws(5, 3 * 300, len(mats))


@pytest.mark.parametrize("model", REFERENCE_MODELS, ids=lambda mo: mo.name())
def test_pairing_sweep_matches_per_element_reference(model):
    result = calculus.pairing_sweep(model)
    assert result == reference_pairing_sweep(model)
    if model.kind == "Sp" and model.m == 2:
        assert result == (False, 2, True, 2)  # stopped at the first TheoremViolation
    else:
        assert result[0] and result[2] and result[1] > 0


@pytest.mark.parametrize("model", REFERENCE_MODELS, ids=lambda mo: mo.name())
def test_levi_conjugation_check_matches_per_element_reference(model):
    levis = model.levi_elements()
    ok = calculus.levi_conjugation_check(model, levis)
    assert ok is reference_levi_conjugation_check(model, levis) is True
    assert all(np.array_equal(a, b) for a, b in zip(levis, model.levi_elements()))  # unchanged


def test_levi_conjugation_check_finds_a_wrong_degree(monkeypatch):
    # claim phi_i has degree i + 1: every nontrivial conjugation then fails
    model = sl(3, 3)
    true = calculus.levi_conjugation_decompose
    monkeypatch.setattr(calculus, "levi_conjugation_decompose", lambda *a: {
        i + 1: val for i, val in true(*a).items()})
    assert not calculus.levi_conjugation_check(model, model.levi_elements())


def test_exhaustive_stacks_hold_at_most_chunk_cases(monkeypatch):
    # every case once, in stacks of at most CHUNK cases (or one Levi element's)
    model, chunk = sp(3, "line"), 5
    monkeypatch.setattr(calculus, "CHUNK", chunk)
    true_sum, true_levi = calculus.sum_formula_decompose, calculus.levi_conjugation_decompose
    pairs, conjugations = [], []

    def counted_sum(model, alpha, v, w):
        pairs.append(len(v))
        return true_sum(model, alpha, v, w)

    def counted_levi(model, g, alpha, v):
        conjugations.append((len(g) * len(v), len(v)))
        return true_levi(model, g, alpha, v)

    monkeypatch.setattr(calculus, "sum_formula_decompose", counted_sum)
    monkeypatch.setattr(calculus, "levi_conjugation_decompose", counted_levi)
    values = [model.m ** model.v_dim(a) for a in model.rel_roots]
    assert calculus.sum_formula_check(model)
    assert max(pairs) <= chunk and sum(pairs) == sum(n * n for n in values)
    levis = model.levi_elements()
    assert calculus.levi_conjugation_check(model, levis)
    assert all(cases <= max(chunk, n) for cases, n in conjugations)
    assert sum(cases for cases, _ in conjugations) == len(levis) * sum(values)


@pytest.mark.parametrize("model", REFERENCE_MODELS, ids=lambda mo: mo.name())
def test_pair_values_match_per_element_decompositions(model):
    # the values Lemma const reads at alpha + beta, the degree (1, 2) values
    # of (alpha - beta, beta) included where alpha - beta is a root (Sp4)
    for alpha in model.rel_roots:
        for beta in model.rel_roots:
            target = calculus._vadd(alpha, beta)
            if calculus.opposed_multiples(alpha, beta) or not model.is_rel_root(target):
                continue
            diff = tuple(a - b for a, b in zip(alpha, beta))
            for a, b in [(alpha, beta)] + [(diff, beta)] * model.is_rel_root(diff):
                us, vs = list(model.v_tuples(a)), list(model.v_tuples(b))
                got = calculus._pair_values(model, a, b, np.array(us)[:, None], np.array(vs),
                                            target)
                zero = (0,) * model.v_dim(target)
                assert got.tolist() == [[list(component_at(chevalley_commutator_decompose(
                    model, a, u, b, v), target) or zero) for v in vs] for u in us]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 64, 1000, 5616, 2 ** 31 + 11])
@pytest.mark.parametrize("count", [0, 1, 3000])
def test_randranges_equals_a_randrange_loop(n, count):
    loop, bulk = random.Random(n * 7 + count), random.Random(n * 7 + count)
    want = [loop.randrange(n) for _ in range(count)]
    got = calculus.randranges(bulk, n, count)
    assert got.dtype == np.int64 and got.tolist() == want
    assert bulk.getstate() == loop.getstate()


@pytest.mark.parametrize("n", [0, 2 ** 32])
def test_randranges_refuses_a_range_past_one_word(n):
    with pytest.raises(ValueError, match="0 < n < 2\\*\\*32"):
        calculus.randranges(random.Random(0), n, 1)
