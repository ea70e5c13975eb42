import random

import numpy as np
import pytest

from chevlat import calculus, cli
from chevlat.errors import SizeCapError, TableBoundError
from chevlat.models import GroupModel
from chevlat.rings import draws, from_digits

from conftest import (
    REFERENCE_MODELS, additive_closure, chevalley_commutator_decompose, commutator, component_at,
    reference_chart, reference_cone_degrees, reference_lemma_ABe_witness, reference_lemma_const_check,
    reference_levi_conjugation_check, reference_pair_cone, reference_pairing_sweep, unipotent_factor,
    v_tuples,
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
        for v in v_tuples(model, alpha):
            for w in v_tuples(model, alpha):
                first, higher = calculus.sum_formula_decompose(model, alpha, v, w)
                assert first.tolist() == [(a + b) % 4 for a, b in zip(v, w)]
                assert not any(val.any() for val in higher.values())


def test_sum_formula_sp4_line_q2():
    model = sp(3)
    # q2 from the matrix model: bilinear, vanishing only when w1*v2 = 0
    def q2(v, w):
        _, higher = calculus.sum_formula_decompose(model, (1,), v, w)
        return int(higher[2][0])

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
    assert first.tolist() == [0, 0]
    # X_a(v) X_a(-v) lands entirely in the double root subgroup
    g = (model.x((1,), v) @ model.x((1,), w)) % 3
    assert (g == model.x((2,), higher[2])).all()


def test_levi_conjugation_diagonal():
    model = sl(3, 5)
    g = np.diag([2, 3, 1]).astype(np.int64)  # det 6 = 1 mod 5
    phi = calculus.levi_conjugation_decompose(model, g, (1, 0), (1,))
    assert {i: val.tolist() for i, val in phi.items()} == {1: [(2 * pow(3, -1, 5)) % 5]}


def test_levi_conjugation_identity():
    model = sl(3, 5)
    phi = calculus.levi_conjugation_decompose(model, model.identity(), (1, 0), (3,))
    assert {i: val.tolist() for i, val in phi.items()} == {1: [3]}


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
        for w in v_tuples(model, (1,))
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


def _one_pair(model, alpha, beta):
    """Lemma ABe and Lemma const on one pair, read from _lemma_tables: per u
    of V_beta by code, the least i with N_{alpha,beta,1,1}(e_i, u) != 0 (-1
    where there is none), and Lemma const's verdict."""
    hit, const = calculus._lemma_tables(model, [(alpha, beta)])
    return np.where(hit[0].any(axis=0), hit[0].argmax(axis=0), -1), bool(const(1)[0])


def _witness(model, alpha, beta, u):
    return int(_one_pair(model, alpha, beta)[0][from_digits(np.array(u), model.m)])


def test_lemma_abe_witness_examples():
    assert _witness(sl(3, 4), (1, 0), (0, 1), (2,)) == 0  # N((1), (2)) = 2 != 0 mod 4
    assert _witness(sl(3, 6), (1, 0), (0, 1), (3,)) == 0
    model42 = sl(4, 2, (1, 1, 2))
    assert _witness(model42, (1, 0), (0, 1), (1, 0)) == reference_lemma_ABe_witness(
        model42, (1, 0), (0, 1), (1, 0)) >= 0


def test_lemma_abe_fails_on_sp4_mod2():
    # the short-short commutator carries the constant 2, which dies mod 2:
    # no witness, -1, for u = 0 and for the one nonzero u, and no exception
    model = sp(2, "borel")
    assert _one_pair(model, (1, 0), (1, 1))[0].tolist() == [-1, -1]
    assert reference_lemma_ABe_witness(model, (1, 0), (1, 1), (1,)) == -1


def test_lemma_const_examples():
    assert _one_pair(sl(3, 4), (1, 0), (0, 1))[1]
    assert _one_pair(sl(4, 2, (2, 1, 1)), (1, 0), (0, 1))[1]
    assert _one_pair(sp(3, "borel"), (1, 0), (0, 1))[1]
    # BC pair with alpha = beta: contributions of case (2) needed
    assert _one_pair(sp(3, "line"), (1,), (1,))[1]


def test_chevalley_homogeneity_is_exhaustive():
    # every (u, v) of every non-opposed pair times every scale r in Z/m
    for model in (sl(3, 4), sp(3, "line")):
        assert calculus.check_chevalley_homogeneity(model) == (True, model.m * sum(
            model.m ** (model.v_dim(a) + model.v_dim(b)) for a, b in _pairs(model)))


def test_cone_degrees():
    model = sp(3, "borel")
    degs = calculus.cone_degrees(model, (1, 0), (0, 1))
    assert degs == {(1, 1): (1, 1), (2, 1): (2, 1)}


def _scalar_homogeneity(model):
    """check_chevalley_homogeneity case by case: every (u, v) of every pair
    decomposed once, then each (u, v, r) compared through the decompositions
    at (r u, v) and (u, r v).  (ok, cases)."""
    m, ok, cases = model.m, True, 0

    def scale(r, v):
        return tuple((r * x) % m for x in v)

    for alpha, beta in _pairs(model):
        degrees = calculus.cone_degrees(model, alpha, beta)
        decomposed = {(u, v): dict(chevalley_commutator_decompose(model, alpha, u, beta, v))
                      for u in v_tuples(model, alpha) for v in v_tuples(model, beta)}
        for (u, v), base in decomposed.items():
            for r in range(m):
                left, right = decomposed[scale(r, u), v], decomposed[u, scale(r, v)]
                for gamma, (i, j) in degrees.items():
                    zero = (0,) * model.v_dim(gamma)
                    base_val = base.get(gamma, zero)
                    ok &= left.get(gamma, zero) == scale(pow(r, i, m), base_val)
                    ok &= right.get(gamma, zero) == scale(pow(r, j, m), base_val)
                cases += 1
    return ok, cases


def _cases(model):
    """The (pair, u, v, r) of the homogeneity check: m per commutator of the table."""
    return model.m * len(calculus._commutator_table(model)[1])


def _pairs(model):
    return [(a, b) for a in model.rel_roots for b in model.rel_roots
            if not calculus.opposed_multiples(a, b)]


def _wrong_degrees_at(monkeypatch, pair=None, true_degrees=calculus.cone_degrees):
    # claim degree 0 in the first argument at one pair only, or at every pair
    monkeypatch.setattr(calculus, "cone_degrees", lambda model, a, b: {
        g: (0, j) for g, (i, j) in true_degrees(model, a, b).items()} if pair in (None, (a, b))
        else true_degrees(model, a, b))


def _moving_pairs(model):
    """The indices of the pairs where some commutator of basis root elements
    is not trivial, so that a wrong degree or cone there can show."""
    def basis(alpha):  # X_alpha(e) for the unit vectors e of V_alpha, one stack
        return model.x(alpha, np.eye(model.v_dim(alpha), dtype=np.int64))

    return [p for p, (a, b) in enumerate(_pairs(model)) if (commutator(
        basis(a)[:, None], basis(b)[None], model) != model.identity()).any()]


HOMOGENEITY_MODELS = [sl(3, 4), sp(3, "line"), sp(2, "borel")]


@pytest.mark.parametrize("model", HOMOGENEITY_MODELS, ids=lambda mo: mo.name())
def test_stacked_homogeneity_matches_scalar_reference(model):
    stacked = calculus.check_chevalley_homogeneity(model)
    assert stacked == _scalar_homogeneity(model) == (True, _cases(model))


@pytest.mark.parametrize("model", HOMOGENEITY_MODELS, ids=lambda mo: mo.name())
def test_stacked_homogeneity_failure_matches_scalar_reference(model, monkeypatch):
    # degree 0 in the first argument at every pair claims
    # [X_alpha(0), X_beta(v)] = base, which fails at a case with a nonzero
    # base component; the cases still count every pair
    _wrong_degrees_at(monkeypatch)
    stacked = calculus.check_chevalley_homogeneity(model)
    assert stacked == _scalar_homogeneity(model) == (False, _cases(model))


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


@pytest.mark.parametrize("model", HOMOGENEITY_MODELS, ids=lambda mo: mo.name())
def test_whole_model_homogeneity_matches_per_pair_loop(model, monkeypatch):
    # wrong degrees at the last pair whose commutators move only: the verdict
    # fails as the scalar loop's does, and the cases count every pair
    pairs = _pairs(model)
    last = max(p for p in _moving_pairs(model) if calculus.cone_degrees(model, *pairs[p]))
    _wrong_degrees_at(monkeypatch, pairs[last])
    stacked = calculus.check_chevalley_homogeneity(model)
    assert stacked == _scalar_homogeneity(model) == (False, _cases(model))


def _empty_cone_at(monkeypatch, pair, true_cone=calculus._pair_cone):
    # a cone too small for one pair only
    monkeypatch.setattr(calculus, "_pair_cone", lambda model, a, b: () if (a, b) == pair
                        else true_cone(model, a, b))


@pytest.fixture
def fresh_commutator_table():
    """Commutator tables decoded after the fault is planted, and none kept after it."""
    calculus._commutator_table.cache_clear()
    yield
    calculus._commutator_table.cache_clear()


@pytest.mark.parametrize("model", HOMOGENEITY_MODELS, ids=lambda mo: mo.name())
def test_off_chart_commutator_is_an_error_whatever_else_fails(model, monkeypatch,
                                                              fresh_commutator_table):
    pairs, moving = _pairs(model), _moving_pairs(model)
    # off its chart at the last moving pair, with or without a wrong degree at the first
    _empty_cone_at(monkeypatch, pairs[moving[-1]])
    for _ in range(2):
        with pytest.raises(RuntimeError, match="commutator left the unipotent group of its cone"):
            calculus.check_chevalley_homogeneity(model)
        _wrong_degrees_at(monkeypatch, pairs[moving[0]])


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
        calls.clear()
        monkeypatch.setattr(GroupModel, "inverse", counted)
        assert calculus.sampled_identity_check(model, 300, random.Random(5)) is expect
        monkeypatch.setattr(GroupModel, "inverse", inverse)
        assert calls == []  # the pool's inverses are the table's
        # the same triples, drawn x, y, z in turn, one at a time
        drawn = draws(random.Random(5), len(mats), 3, 300)
        assert all(calculus.commutator_identity_check(model, *mats[drawn[:, k]])
                   for k in range(300)) is expect


@pytest.mark.parametrize("model", REFERENCE_MODELS, ids=lambda mo: mo.name())
def test_pairing_sweep_matches_per_element_reference(model):
    result = calculus.pairing_sweep(model)
    assert result == reference_pairing_sweep(model)
    if model.kind == "Sp" and model.m == 2:
        assert result == (False, 2, True, 2)  # stopped at the first u without a witness
    else:
        assert result[0] and result[2] and result[1] > 0


@pytest.mark.parametrize("model", REFERENCE_MODELS, ids=lambda mo: mo.name())
def test_levi_conjugation_check_matches_per_element_reference(model):
    levis = model.levi_elements()
    ok = calculus.levi_conjugation_check(model, levis)
    assert ok is reference_levi_conjugation_check(model, levis) is True
    assert all(np.array_equal(a, b) for a, b in zip(levis, model.levi_elements()))  # unchanged


def test_levi_conjugation_check_checks_and_inverts_the_levi_elements_once(monkeypatch):
    # one in_levi and one inverse call over all Levi elements, not one per
    # relative root; a non-Levi element among them is refused as before
    model, calls = sl(3, 3), []
    levis = model.levi_elements()
    for name in ("in_levi", "inverse"):
        true = getattr(GroupModel, name)
        monkeypatch.setattr(GroupModel, name, lambda self, g, name=name, true=true: (
            calls.append((name, len(g))), true(self, g))[1])
    assert calculus.levi_conjugation_check(model, levis)
    assert calls == [("in_levi", len(levis)), ("inverse", len(levis))]
    with pytest.raises(ValueError, match="conjugator must lie in the Levi subgroup"):
        calculus.levi_conjugation_check(model, [*levis, model.elementary_generator((0, 1), 1)])


def test_pairing_sweep_closes_only_the_pairs_before_its_stop(monkeypatch):
    # Sp4(Z/2) borel stops at its third pair of 24: Lemma const's additive
    # closure runs on the two pairs before it, and the result is the reference's
    model, rows = sp(2, "borel"), []
    true = calculus._additive_closure
    monkeypatch.setattr(calculus, "_additive_closure",
                        lambda gens, m, d: (rows.append(len(gens)), true(gens, m, d))[1])
    assert calculus.pairing_sweep(model) == reference_pairing_sweep(model) == (False, 2, True, 2)
    assert rows == [2]


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

    def counted_levi(model, g, alpha, v, *inverse):
        conjugations.append((len(g) * len(v), len(v)))
        return true_levi(model, g, alpha, v, *inverse)

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
    # the values Lemma const reads at alpha + beta, those of (alpha - beta,
    # 2 beta) and (alpha - beta, beta) included where these are roots (only
    # the latter occurs here, on Sp4 borel), every segment in one call
    m, segments = model.m, []
    for alpha in model.rel_roots:
        for beta in model.rel_roots:
            target = calculus._vadd(alpha, beta)
            if calculus.opposed_multiples(alpha, beta) or not model.is_rel_root(target):
                continue
            diff, two_beta = tuple(a - b for a, b in zip(alpha, beta)), tuple(2 * b for b in beta)
            extra = [(diff, two_beta)] * model.is_rel_root(two_beta) + [(diff, beta)]
            segments += [(a, b, target) for a, b in [(alpha, beta)] + extra * model.is_rel_root(diff)]
    values, offsets = calculus._target_values(model, segments)
    assert len(values) == sum(m ** (model.v_dim(a) + model.v_dim(b)) for a, b, _ in segments)
    for (a, b, target), lo in zip(segments, offsets):
        zero = (0,) * model.v_dim(target)
        want = [int(from_digits(np.array(component_at(chevalley_commutator_decompose(
            model, a, u, b, v), target) or zero), m))
            for u in v_tuples(model, a) for v in v_tuples(model, b)]
        assert values[lo:lo + len(want)].tolist() == want


OTHER_PARABOLICS = [sl(4, 2, (2, 1, 1)), sl(4, 2, (1, 2, 1)), sp(3, "line"), sp(4, "line")]


@pytest.mark.parametrize("model", OTHER_PARABOLICS, ids=lambda mo: mo.name())
def test_lemmas_match_per_element_references_past_dimension_one(model):
    # V_alpha of dimension 2: Lemma ABe reads two generator rows of a block;
    # Sp4(Z/4) line has u without a witness, so its sweep stops inside its
    # first pair
    assert calculus.pairing_sweep(model) == reference_pairing_sweep(model)
    for alpha, beta in _pairs(model):
        if not model.is_rel_root(calculus._vadd(alpha, beta)):
            continue
        witness, const = _one_pair(model, alpha, beta)
        assert witness[1:].tolist() == [  # the nonzero u, by code
            reference_lemma_ABe_witness(model, alpha, beta, u) for u in v_tuples(model, beta)][1:]
        assert const is reference_lemma_const_check(model, alpha, beta)


def test_pairing_sweep_looks_up_each_cone_once(monkeypatch):
    # SL4(Z/2): a cold commutator table decodes its 528 commutators with one
    # lookup per distinct cone, each key once; a warm sweep, 48 pairs, looks
    # nothing up, whether it stops early or not
    model, control = sl(4, 2), sp(2, "borel")
    warm = calculus.pairing_sweep(control)  # table and charts built
    assert calculus.pairing_sweep(model) == (True, 48, True, 48) and not warm[0]
    true, calls = calculus.UnipotentChart.lookup_keys, []

    def counted(chart, keys):
        calls.append(len(keys))
        return true(chart, keys)

    monkeypatch.setattr(calculus.UnipotentChart, "lookup_keys", counted)
    start, codes = calculus._commutator_table.__wrapped__(model)
    assert len(calls) == len({calculus._pair_cone(model, *p) for p in start})
    assert sum(calls) == len(codes) == 528
    calls.clear()
    assert calculus.pairing_sweep(model) == (True, 48, True, 48)
    assert calculus.pairing_sweep(control) == warm  # stops early
    assert calls == []


COMMUTATOR_TABLE_MODELS = [spec.build() for spec in cli.DEFAULT_MODELS] + [
    sl(4, 2, (2, 1, 1)), sp(3, "borel")]


@pytest.mark.parametrize("model", COMMUTATOR_TABLE_MODELS, ids=lambda mo: mo.name())
def test_commutator_table_matches_per_pair_commutators(model, monkeypatch):
    # pair by pair in the order of model.rel_roots, u by u, v by v: the chart
    # codes, in the pair's cone, of x^-1 y^-1 x y formed per pair from the
    # root elements, none off its chart
    start, codes = calculus._commutator_table(model)
    assert list(start) == _pairs(model)
    at = 0
    for alpha, beta in _pairs(model):
        xa = np.stack([model.x(alpha, u) for u in v_tuples(model, alpha)])[:, None]
        xb = np.stack([model.x(beta, v) for v in v_tuples(model, beta)])[None]
        ch = calculus.chart(model, calculus._pair_cone(model, alpha, beta))
        want = ch.lookup(commutator(xa, xb, model)).ravel()
        assert start[alpha, beta] == at
        assert codes[at:at + want.size].tolist() == want.tolist()
        at += want.size
    assert at == len(codes) and (codes >= 0).all()
    monkeypatch.setattr(calculus, "CHUNK", 7)  # stacks of 7 commutators decode the same codes
    assert np.array_equal(calculus._commutator_table.__wrapped__(model)[1], codes)


def test_the_default_models_have_1910_commutators():
    # SL3 over Z/2, Z/3, Z/4: 30 pairs of m**2; SL4(Z/2): 132 pairs of 4;
    # Sp4(Z/2) borel: 56 pairs of 4; Sp4(Z/3) line: 8 pairs, 288 codes.
    # The homogeneity check reads each at every r in Z/m: 5,338 cases
    models = [spec.build() for spec in cli.DEFAULT_MODELS]
    assert [len(calculus._commutator_table(model)[1]) for model in models] == [
        120, 270, 480, 528, 224, 288]
    assert [calculus.check_chevalley_homogeneity(model)[1] for model in models] == [
        240, 810, 1920, 1056, 448, 864]


@pytest.mark.parametrize("m, d", [(2, 1), (4, 1), (6, 1), (4, 2), (6, 2), (9, 2), (8, 3)])
def test_additive_closure_matches_a_tuple_bfs(m, d):
    # generators in random ideals, so that proper subgroups come up too; one
    # row of marked codes per generator set, all rows closed in one call
    rng = np.random.default_rng(10 * m + d)
    sets = []
    for k in (1, 2, 3, 5, 8):
        ideal = rng.choice([q for q in range(1, m + 1) if m % q == 0], size=(k, 1))
        sets.append(ideal * rng.integers(0, m, size=(k, d)) % m)
    gens = np.zeros((len(sets), m ** d), dtype=bool)
    for row, values in enumerate(sets):
        gens[row, from_digits(values, m)] = True
    assert calculus._additive_closure(gens, m, d).tolist() == [
        additive_closure(values.tolist(), d, m) for values in sets]
