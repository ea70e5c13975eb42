import numpy as np
import pytest

from chevlat.models import (
    GroupModel,
    SP4_FORM,
    gauss_cell_factors,
    gauss_cell_membership,
    hypothesis_check,
    order_formula,
    scheme_center_elements,
)
from chevlat.rings import ZmRing, det_int


def sl(n, m, blocks=None):
    return GroupModel("SL", n, ZmRing(m), blocks or (1,) * n)


def sp(m, blocks="borel"):
    return GroupModel("Sp", 4, ZmRing(m), blocks)


def test_elementary_generator_examples():
    m = sl(3, 4)
    g = m.elementary_generator((0, 1), 1)
    assert g[0, 1] == 1 and (g - np.eye(3, dtype=np.int64))[0, 1] == 1
    assert (m.elementary_generator((0, 1), 0) == np.eye(3, dtype=np.int64)).all()
    with pytest.raises(ValueError):
        m.elementary_generator((1, 1), 1)


def test_sp4_generators_preserve_form():
    for mod in (2, 3, 5):
        model = sp(mod)
        for g in model.all_elementary_generators():
            lhs = (g.T @ SP4_FORM @ g) % mod
            assert (lhs == SP4_FORM % mod).all()


def test_relative_root_element_sl3():
    m = sl(3, 4)
    g = m.x((1, 1), (2,))  # block pair (1,3)
    expect = np.eye(3, dtype=np.int64)
    expect[0, 2] = 2
    assert (g == expect).all()


def test_relative_root_element_sl4_blocks22():
    m = sl(4, 2, (2, 2))
    v = (1, 0, 0, 1)
    g = m.x((1,), v)
    expect = np.eye(4, dtype=np.int64)
    expect[0:2, 2:4] = np.eye(2, dtype=np.int64)
    assert (g == expect).all()


def test_sp4_line_sum_formula_has_double_term():
    model = sp(3, "line")
    v, w = (0, 1), (1, 0)
    lhs = (model.x((1,), v) @ model.x((1,), w)) % 3
    rhs = model.x((1,), (1, 1))
    # X_a(v) X_a(w) and X_a(v+w) differ by a (2a)-factor
    assert not (lhs == rhs).all()
    found = None
    for t in range(3):
        if (lhs == (rhs @ model.x((2,), (t,))) % 3).all():
            found = t
    assert found


def test_order_formula_frozen_values():
    assert order_formula(sl(3, 2)) == 168
    assert order_formula(sl(3, 3)) == 5616
    assert order_formula(sl(3, 4)) == 43008
    assert order_formula(sl(4, 2)) == 20160
    assert order_formula(sp(2)) == 720
    assert order_formula(sp(3)) == 51840
    assert order_formula(sp(5)) == 9360000


def test_hypothesis_check():
    h = hypothesis_check(sl(3, 4))
    assert h.main_ok and h.perfect_ok and h.isotropic_rank == 2
    h2 = hypothesis_check(sp(2))
    assert not h2.main_ok and not h2.perfect_ok
    assert h2.structure_primes == (2,)
    h3 = hypothesis_check(sp(3))
    assert h3.main_ok and h3.perfect_ok
    h4 = hypothesis_check(sl(2, 5, (1, 1)))
    assert not h4.main_ok and h4.isotropic_rank == 1
    h5 = hypothesis_check(sp(4))
    assert not h5.main_ok  # 2 not invertible mod 4


def test_gauss_cell_identity_and_weyl():
    m = sl(3, 4)
    assert gauss_cell_membership(m, m.identity()) is not None
    w = np.array([[0, 0, 1], [0, 3, 0], [1, 0, 0]], dtype=np.int64)
    assert det_int(w) % 4 == 1
    assert gauss_cell_membership(m, w) is None


def test_gauss_cell_lower_unipotent():
    m = sl(3, 5)
    g = np.eye(3, dtype=np.int64)
    g[1, 0] = 1
    u, l, v = gauss_cell_membership(m, g)
    assert (u == np.eye(3, dtype=np.int64)).all()
    assert (l == np.eye(3, dtype=np.int64)).all()
    assert (v == g).all()


def test_gauss_cell_roundtrip_random():
    rng = np.random.default_rng(11)
    for model in (sl(3, 4), sl(4, 2, (1, 1, 2)), sp(3, "line")):
        mats = [model.elementary_generator(p, 1) for p in model.generator_positions()]
        for _ in range(50):
            g = model.identity()
            for _k in range(5):
                g = (g @ mats[rng.integers(len(mats))]) % model.m
            fac = gauss_cell_membership(model, g)
            if fac is not None:
                u, l, v = fac
                assert ((u @ l @ v) % model.m == g).all()
                assert model.in_levi(l)
                assert model.in_parabolic(u) and model.in_parabolic(v, negative=True)


def test_gauss_cell_factors_of_a_stack_match_one_by_one():
    rng = np.random.default_rng(12)
    for model in (sl(3, 4), sl(4, 2, (1, 1, 2)), sp(3, "line")):
        pool = np.stack(model.all_elementary_generators())
        # products of a few generators; transposed positions mix in non-members
        stack = pool[rng.integers(len(pool), size=(40, 3))]
        stack = (stack[:, 0] @ stack[:, 1] @ stack[:, 2]) % model.m
        member, u, l, v = gauss_cell_factors(model, stack)
        assert member.any() and not member.all()
        for i, g in enumerate(stack):
            fac = gauss_cell_membership(model, g)
            assert member[i] == (fac is not None)
            if fac is not None:
                assert all((a == b).all() for a, b in zip(fac, (u[i], l[i], v[i])))


def test_levi_elements_borel_torus():
    m = sl(3, 5)
    levis = m.levi_elements()
    # oracle: diagonal (a, b, c) with abc = 1, a,b,c units mod 5
    count = sum(
        1
        for a in range(1, 5)
        for b in range(1, 5)
        for c in range(1, 5)
        if (a * b * c) % 5 == 1
    )
    assert len(levis) == count
    sp_levis = sp(3).levi_elements()
    assert len(sp_levis) == 4  # units^2 for the symplectic diagonal torus


def test_scheme_center():
    assert len(scheme_center_elements(sl(3, 4))) == 1
    # cube roots of 1 mod 7 are {1, 2, 4}
    assert len(scheme_center_elements(sl(3, 7))) == 3
    assert len(scheme_center_elements(sp(3))) == 2
    assert len(scheme_center_elements(sp(2))) == 1
    assert len(scheme_center_elements(sl(2, 7, (1, 1)))) == 2


def test_block_validation():
    with pytest.raises(ValueError):
        GroupModel("SL", 3, ZmRing(4), (3,))  # no proper parabolic
    with pytest.raises(ValueError):
        GroupModel("SL", 3, ZmRing(4), (2, 2))
    with pytest.raises(ValueError):
        GroupModel("Sp", 4, ZmRing(3), "weird")
    with pytest.raises(ValueError):
        GroupModel("Sp", 6, ZmRing(3), "borel")


def test_rel_roots_match_block_picture():
    m = sl(4, 2, (1, 2, 1))
    # oracle: interval vectors for all ordered block pairs
    expected = set()
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            lo, hi = min(i, j), max(i, j)
            sign = 1 if i < j else -1
            expected.add(tuple(sign if lo <= t < hi else 0 for t in range(2)))
    assert set(m.rel_roots) == expected
    assert m.v_dim((1, 0)) == 2  # blocks 1 x 2
    assert m.v_dim((1, 1)) == 1


@pytest.mark.parametrize(
    "n,blocks",
    [(3, (1, 1, 1)), (3, (1, 2)), (4, (1, 1, 1, 1)), (4, (2, 2)), (4, (1, 2, 1)), (4, (1, 3))],
)
def test_block_roots_against_abstract_projection(n, blocks):
    """The block-derived relative data must agree with the projection of
    A_{n-1} that kills the interior simple roots of the Levi."""
    from chevlat import relroots, rootsys

    model = sl(n, 2, blocks)
    base = rootsys.build_root_system(rootsys.RootSystemType("A", n - 1))
    cuts = set()
    s = 0
    for b in blocks[:-1]:
        s += b
        cuts.add(s - 1)  # 0-based simple root at each block boundary
    rel = relroots.build_relative(relroots.RelativeDatum(base, frozenset(cuts), ()))
    assert set(model.rel_roots) == rel.rel_roots
    for alpha in model.rel_roots:
        assert model.v_dim(alpha) == len(rel.fiber(alpha))


def test_sp4_rel_roots_by_parabolic():
    assert set(sp(3, "borel").rel_roots) == {
        (1, 0), (0, 1), (1, 1), (2, 1), (-1, 0), (0, -1), (-1, -1), (-2, -1)
    }
    assert set(sp(3, "line").rel_roots) == {(1,), (2,), (-1,), (-2,)}
    assert set(sp(3, "siegel").rel_roots) == {(1,), (-1,)}
    assert sp(3, "line").v_dim((1,)) == 2
    assert sp(3, "line").v_dim((2,)) == 1
    assert sp(3, "siegel").v_dim((1,)) == 3


def test_inverse_and_membership_on_stacks(sl3_4, sp4_3):
    rng = np.random.default_rng(11)
    for ctx in (sl3_4, sp4_3):
        model, t = ctx.model, ctx.table
        elements = t.mats[rng.integers(0, t.N, size=24)].astype(np.int64)
        others = rng.integers(0, model.m, size=(24, model.n, model.n))
        stack = np.stack([elements, others])  # a (2, 24, n, n) stack
        member = model.is_element(stack)
        assert member.shape == (2, 24) and member[0].all()
        assert member.tolist() == [[model.is_element(g) for g in row] for row in stack]
        assert all(type(model.is_element(g)) is bool for g in others)
        inv = model.inverse(elements)
        for g, gi in zip(elements, inv):
            assert (gi == model.inverse(g)).all()
            assert ((g @ gi) % model.m == np.eye(model.n, dtype=np.int64)).all()
        assert (model.inverse(stack[None])[0, 0] == inv).all()
