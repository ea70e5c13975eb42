import math
import random

import numpy as np
import pytest

from chevlat import lattice
from chevlat.errors import TheoremViolation
from chevlat.models import GroupModel
from chevlat.rings import ZmIdeal, ZmRing

from conftest import ctx_for


def ideal(ctx, d):
    return ZmIdeal(ctx.model.ring, d)


def test_subgroup_closure_empty(sl3_2):
    sub = lattice.subgroup_closure(sl3_2.table, [])
    assert sub.order == 1
    assert sl3_2.table.identity_idx in sub


def test_subgroup_closure_generators_give_whole_group(sl3_2):
    sub = lattice.subgroup_closure(sl3_2.table, sl3_2.table.gen_idxs.tolist())
    assert sub.order == 168


def test_subgroup_closure_cyclic(sl3_4):
    # (e + 2e_12)^2 = e mod 4, so the closure is cyclic of order 2
    idx = sl3_4.table.lookup_one(sl3_4.model.elementary_generator((0, 1), 2))
    sub = lattice.subgroup_closure(sl3_4.table, [idx])
    assert sub.order == 2


def test_normal_closure_of_transvection_is_everything(sl3_2):
    idx = sl3_2.table.lookup_one(sl3_2.model.elementary_generator((0, 1), 1))
    sub = lattice.normal_closure(sl3_2.table, [idx])
    assert sub.order == 168


def test_normal_closure_identity_trivial(sl3_2):
    sub = lattice.normal_closure(sl3_2.table, [sl3_2.table.identity_idx])
    assert sub.order == 1


def test_normal_closure_level_two(sl3_4):
    idx = sl3_4.table.lookup_one(sl3_4.model.elementary_generator((0, 1), 2))
    sub = lattice.normal_closure(sl3_4.table, [idx])
    cong = sl3_4.congruence(ideal(sl3_4, 2))
    assert sub.issubset(cong)
    assert sub.order == 256  # equals the level-2 congruence subgroup here


def test_normal_closure_is_fixed_point(sl3_4):
    idx = sl3_4.table.lookup_one(sl3_4.model.elementary_generator((0, 2), 2))
    sub = lattice.normal_closure(sl3_4.table, [idx])
    for perm in sl3_4.table.egen_conj_perms():
        assert np.array_equal(sub.member[perm], sub.member)


def test_orbit_count_sl3_f2(sl3_2):
    orbit, reps = sl3_2.orbits()
    assert len(reps) == 6  # conjugacy classes of SL3(F2)
    assert int((orbit == orbit[sl3_2.table.identity_idx]).sum()) == 1


def test_congruence_subgroups(sl3_4):
    assert sl3_4.congruence(ideal(sl3_4, 1)).order == 43008
    assert sl3_4.congruence(ideal(sl3_4, 2)).order == 256
    assert sl3_4.congruence(ideal(sl3_4, 4)).order == 1
    # normality in the whole group
    cong = sl3_4.congruence(ideal(sl3_4, 2))
    for perm in sl3_4.table.egen_conj_perms():
        assert np.array_equal(cong.member[perm], cong.member)


def test_full_congruence(sl3_4, sp4_3):
    assert sl3_4.full_congruence(ideal(sl3_4, 1)).order == 43008
    # center of SL3(F2) is trivial, so C(R,(2)) = G(R,(2))
    assert sl3_4.full_congruence(ideal(sl3_4, 2)) == sl3_4.congruence(ideal(sl3_4, 2))
    assert sl3_4.full_congruence(ideal(sl3_4, 4)).order == 1  # trivial center
    assert sp4_3.full_congruence(ideal(sp4_3, 3)).order == 2  # {+-1}
    cong = sp4_3.congruence(ideal(sp4_3, 3))
    full = sp4_3.full_congruence(ideal(sp4_3, 3))
    assert cong.issubset(full)


def test_relative_elementary(sl3_4):
    assert sl3_4.relative_elementary(ideal(sl3_4, 1)).order == 43008
    assert sl3_4.relative_elementary(ideal(sl3_4, 4)).order == 1
    rel2 = sl3_4.relative_elementary(ideal(sl3_4, 2))
    assert rel2 == sl3_4.congruence(ideal(sl3_4, 2))  # equality specific to this model


def test_monotonicity_in_the_ideal(sl3_4):
    qs = sl3_4.ideals
    for qa in qs:
        for qb in qs:
            if qa.issubset(qb):
                assert sl3_4.relative_elementary(qa).issubset(sl3_4.relative_elementary(qb))
                assert sl3_4.congruence(qa).issubset(sl3_4.congruence(qb))
                assert sl3_4.full_congruence(qa).issubset(sl3_4.full_congruence(qb))


def test_center(sl3_4, sp4_3):
    assert sl3_4.center().order == 1
    assert sp4_3.center().order == 2
    sl2_7 = ctx_for("SL", 2, 7, (1, 1))
    assert sl2_7.center().order == 2  # {+-1}, the square roots of 1 mod 7
    # centralizer of the whole group equals the center
    full = lattice.subgroup_closure(sp4_3.table, sp4_3.table.gen_idxs.tolist())
    assert sp4_3.centralizer(full) == sp4_3.center()


def test_commutator_subgroup(sl3_2, sp4_2):
    egens = sl3_2.table.gen_idxs.tolist()
    assert sl3_2.commutator_subgroup(egens, egens).order == 168
    egens2 = sp4_2.table.gen_idxs.tolist()
    derived = sp4_2.commutator_subgroup(egens2, egens2)
    assert sp4_2.table.N // derived.order == 2  # index-2 subgroup of Sp4(F2)
    trivial = sp4_2.commutator_subgroup([sp4_2.table.identity_idx], egens2)
    assert trivial.order == 1


def test_generating_set_generates_congruence_subgroup(sl3_4):
    sub = sl3_4.congruence(ideal(sl3_4, 2))
    gens = lattice.generating_set(sl3_4.table, sub)
    assert gens and all(g in sub for g in gens)
    assert lattice.subgroup_closure(sl3_4.table, gens) == sub


def test_sandwich_classify_sl3_4(sl3_4):
    results = lattice.sandwich_classify(sl3_4)
    assert all(r.verdict == "unique" for r in results)
    orbit, _ = sl3_4.orbits()
    by_orbit = {orbit[r.seed_index]: r for r in results}

    def level_of(mat):
        idx = sl3_4.table.lookup_one(mat)
        return by_orbit[orbit[idx]].admissible[0]

    assert level_of(sl3_4.model.elementary_generator((0, 1), 2)) == 2
    assert level_of(sl3_4.model.elementary_generator((0, 1), 1)) == 1
    assert level_of(sl3_4.model.identity()) == 4


def test_sandwich_violations_on_sp4_f2(sp4_2):
    results = lattice.sandwich_classify(sp4_2, strict=False)
    assert any(r.verdict != "unique" for r in results)
    with pytest.raises(TheoremViolation):
        lattice.sandwich_classify(sp4_2, strict=True)


def test_level_theorem_example(sl3_4):
    idx = sl3_4.table.lookup_one(sl3_4.model.elementary_generator((0, 2), 2))
    sub = lattice.normal_closure(sl3_4.table, [idx])
    rep = lattice.verify_level_theorem(sl3_4, sub, ideal(sl3_4, 2))
    assert rep.equal
    # H cap X_(1,2)(V) = {0, 2} as values
    vs, idxs = sl3_4.root_element_indices()[(1, 0)]
    got = {v for v, i in zip(vs, idxs) if sub.member[i]}
    assert got == {(0,), (2,)}


def test_commutator_formula(sl3_4, sp4_3):
    for ctx in (sl3_4, sp4_3):
        out = lattice.verify_commutator_formula(ctx)
        assert all(r["equal"] for r in out)


def test_parabolic_independence(sl3_4, sl4_2):
    out = lattice.verify_parabolic_independence(sl3_4, [(1, 2)])
    assert all(r["equal"] for r in out)
    out2 = lattice.verify_parabolic_independence(sl4_2, [(2, 2), (1, 1, 2)])
    assert all(r["equal"] for r in out2)


def test_structure_theorems(sl3_2, sp4_2):
    st = lattice.verify_structure_theorems(sl3_2)
    assert st["e_normal"] and st["perfect"] and st["centralizer_matches_center"]
    assert not st["hall_witt_failures"]
    st2 = lattice.verify_structure_theorems(sp4_2, strict=False)
    assert st2["derived_index"] == 2
    assert not st2["perfect_expected"]


def test_extract_unipotent(sl3_4):
    idx = sl3_4.table.lookup_one(sl3_4.model.elementary_generator((0, 1), 2))
    sub = lattice.normal_closure(sl3_4.table, [idx])
    found = lattice.extract_unipotent(sl3_4, sub)
    assert found is not None
    alpha, v = found
    assert any(v)
    center = sl3_4.center()
    assert lattice.extract_unipotent(sl3_4, center) is None


def test_unipotent_extraction_all_orbits(sl3_4):
    out = lattice.verify_unipotent_extraction(sl3_4)
    assert not out["failures"] and not out["radical_failures"]
    assert out["noncentral_closures"] > 0


def test_simplicity(sl3_2, sl3_3):
    out = lattice.simplicity_check(sl3_2)
    assert out["noncentral_elements"] == 167 and not out["failures"]
    out3 = lattice.simplicity_check(sl3_3)
    assert not out3["failures"]


def test_simplicity_requires_prime(sl3_4):
    with pytest.raises(ValueError):
        lattice.simplicity_check(sl3_4)


def test_join_compatibility(sl3_4):
    out = lattice.join_compatibility(sl3_4, 40, random.Random(1))
    assert out["checked"] == 40 and not out["mismatches"]


def test_join_level_is_gcd_handpicked(sl3_4):
    t = sl3_4.table
    g = t.lookup_one(sl3_4.model.elementary_generator((0, 1), 2))  # level 2
    h = t.lookup_one(sl3_4.model.elementary_generator((1, 2), 1))  # level 1
    join = lattice.normal_closure(t, [g, h])
    lower = {q.d: sl3_4.relative_elementary(q) for q in sl3_4.ideals}
    upper = {q.d: sl3_4.full_congruence(q) for q in sl3_4.ideals}
    adm = [q.d for q in sl3_4.ideals
           if lower[q.d].issubset(join) and join.issubset(upper[q.d])]
    assert adm == [math.gcd(2, 1)]


def test_centralizer_lemmas(sl3_2, sl3_3, sp4_3):
    for ctx in (sl3_2, sl3_3):
        assert not lattice.verify_u_cent_field(ctx)["failures"]
        assert not lattice.verify_centralizer_beta(ctx.model)["failures"]
        assert not lattice.verify_small_levi_b(ctx.model)["failures"]
    borel = GroupModel("Sp", 4, ZmRing(3), "borel")
    ctx_borel = lattice.get_context(borel)
    assert not lattice.verify_u_cent_field(ctx_borel)["failures"]
    assert not lattice.verify_centralizer_beta(borel)["failures"]
    assert not lattice.verify_small_levi_b(borel)["failures"]


def test_centralizer_beta_over_z4_and_z9():
    # table-free checks still run where the element table would not fit
    for m in (4, 9):
        model = GroupModel("SL", 3, ZmRing(m), (1, 1, 1))
        assert not lattice.verify_centralizer_beta(model)["failures"]
        assert not lattice.verify_small_levi_b(model)["failures"]


def test_centralizer_beta_needs_rank_two():
    with pytest.raises(ValueError):
        lattice.verify_centralizer_beta(GroupModel("Sp", 4, ZmRing(3), "line"))


def test_gauss_brute_force(sl3_2, sl3_3):
    assert lattice.gauss_brute_force_agrees(sl3_2)
    assert lattice.gauss_brute_force_agrees(sl3_3)


def test_enormal_lattice_sl3_4(sl3_4):
    members = lattice.enormal_lattice(sl3_4)
    assert [sub.order for sub, _ in members] == [1, 256, 43008]
    assert all(len(adm) == 1 for _, adm in members)
    level = {sub.key(): adm[0] for sub, adm in members}
    for a, (la,) in members:
        for b, (lb,) in members:
            assert level[sl3_4.closures.join(a, b).key()] == math.gcd(la, lb)


def test_enormal_lattice_sp4_2_has_non_unique_member(sp4_2):
    members = lattice.enormal_lattice(sp4_2)
    assert all(lattice.is_enormal(sub) for sub, _ in members)
    assert any(len(adm) != 1 for _, adm in members)


@pytest.fixture
def sl2_6():
    # Z/6 has incomparable ideals, so joins of orbit closures are not all inclusions
    return ctx_for("SL", 2, 6, (1, 1))


@pytest.fixture(params=["sl3_4", "sp4_2", "sl2_6"])
def registry_ctx(request):
    return request.getfixturevalue(request.param)


def test_registry_orbit_closures_match_plain_engine(registry_ctx):
    ctx = registry_ctx
    for rep in ctx.orbits()[1]:
        assert ctx.orbit_closure(rep) == lattice.normal_closure(ctx.table, [rep])


def test_registry_relative_elementary_matches_plain_engine(registry_ctx):
    ctx = registry_ctx
    for q in ctx.ideals:
        seeds = [ctx.table.lookup_one(ctx.model.x(alpha, v))
                 for alpha in ctx.model.rel_roots
                 for v in ctx.model.v_tuples(alpha, q) if any(v)]
        assert ctx.relative_elementary(q) == lattice.normal_closure(ctx.table, seeds)


def test_registry_join_matches_plain_engine(registry_ctx):
    ctx = registry_ctx
    reps = {}
    for rep in ctx.orbits()[1]:
        reps.setdefault(ctx.orbit_closure(rep).key(), rep)
    distinct = sorted(reps.values())
    assert len(distinct) >= 2
    for i, ra in enumerate(distinct):
        for rb in distinct[i + 1:]:
            joined = ctx.closures.join(ctx.orbit_closure(ra), ctx.orbit_closure(rb))
            assert joined == lattice.normal_closure(ctx.table, [ra, rb])


def test_sibling_reuses_orbits_and_closures(sl3_4, monkeypatch):
    orbits = sl3_4.orbits()
    closures = {rep: sl3_4.orbit_closure(rep) for rep in orbits[1]}

    def recomputed(*args, **kwargs):
        raise AssertionError("recomputed on a sibling context")

    monkeypatch.setattr(lattice, "e_conjugacy_orbits", recomputed)
    monkeypatch.setattr(lattice, "normal_closure", recomputed)
    sib = sl3_4.sibling((1, 2))
    assert sib.table is sl3_4.table
    assert sib.orbits() is orbits
    assert all(sib.orbit_closure(rep) is sub for rep, sub in closures.items())


def test_element_indices_names_what_is_missing(sl3_2):
    t = sl3_2.table
    assert lattice._element_indices(t, [t.mat(5), t.mat(7)], "x").tolist() == [5, 7]
    with pytest.raises(RuntimeError, match="a singular matrix is not in the element table"):
        lattice._element_indices(t, [t.mat(5), np.zeros((3, 3))], "a singular matrix")
