import math
import random

import numpy as np
import pytest

from chevlat import cli, lattice, models
from chevlat.models import GroupModel
from chevlat.table import ElementTable

from conftest import (
    REFERENCE_MODELS, BitsetSubgroup, bfs_orbits, ctx_for, enormal_lattice, generating_set, index_of,
    is_enormal,
    plain_normal_closure, reference_center, reference_centralizer_beta, reference_closure_of,
    reference_congruence, reference_full_congruence, reference_normal_closure,
    reference_products, reference_small_levi_b, reference_subgroup_closure, table_inverses,
)


def reps_in(sub):
    """The orbit representatives in a subgroup's mask, which normally generate it."""
    return np.asarray(sub.orbits.reps)[sub.mask].tolist()


def test_subgroup_closure_empty(sl3_2):
    sub = reference_subgroup_closure(sl3_2.table, [])
    assert sub.order == 1
    assert sl3_2.table.identity_idx in sub


def test_subgroup_closure_generators_give_whole_group(sl3_2):
    sub = reference_subgroup_closure(sl3_2.table, sl3_2.table.gen_idxs.tolist())
    assert sub.order == 168


def test_subgroup_closure_cyclic(sl3_4):
    # (e + 2e_12)^2 = e mod 4, so the closure is cyclic of order 2
    idx = index_of(sl3_4.table, sl3_4.model.elementary_generator((0, 1), 2))
    sub = reference_subgroup_closure(sl3_4.table, [idx])
    assert sub.order == 2


def test_normal_closure_of_transvection_is_everything(sl3_2):
    idx = index_of(sl3_2.table, sl3_2.model.elementary_generator((0, 1), 1))
    sub = sl3_2.closure_of([idx])
    assert sub.order == 168


def test_normal_closure_identity_trivial(sl3_2):
    sub = sl3_2.closure_of([sl3_2.table.identity_idx])
    assert sub.order == 1


def test_normal_closure_level_two(sl3_4):
    idx = index_of(sl3_4.table, sl3_4.model.elementary_generator((0, 1), 2))
    sub = sl3_4.closure_of([idx])
    cong = sl3_4.congruence(2)
    assert sub.issubset(cong)
    assert sub.order == 256  # equals the level-2 congruence subgroup here


def test_normal_closure_is_fixed_point(sl3_4):
    idx = index_of(sl3_4.table, sl3_4.model.elementary_generator((0, 2), 2))
    sub = sl3_4.closure_of([idx])
    for perm in sl3_4.table.conj:
        assert np.array_equal(sub.member[perm], sub.member)


def test_orbit_count_sl3_f2(sl3_2):
    orbit, reps, _ = sl3_2.orbits()
    assert len(reps) == 6  # conjugacy classes of SL3(F2)
    assert int((orbit == orbit[sl3_2.table.identity_idx]).sum()) == 1


@pytest.mark.parametrize("name", ["sl3_4", "sp4_3"])
def test_products_match_unique_reference(name, request):
    ctx = request.getfixturevalue(name)
    t, rng = ctx.table, np.random.default_rng(7)
    other = [int(i) for i in rng.choice(t.N, 3, replace=False)]  # mostly not generators
    egens = t.gen_idxs.tolist()
    for gen_idxs in (egens, sorted(set(egens) | set(table_inverses(t, egens).tolist())), other,
                     [egens[0], *other]):
        for size in (1, 50, 30_000):  # 30,000 spans several chunks
            frontier = rng.choice(t.N, min(size, t.N), replace=False)
            member = rng.random(t.N) < 0.3
            want_member = member.copy()
            got = lattice._products(t, member, frontier, t.row_tables(t.mat(gen_idxs)))
            want = reference_products(t, want_member, frontier, gen_idxs)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert np.array_equal(member, want_member)
    # no candidate: every product is a member already
    member = np.ones(t.N, dtype=bool)
    got = lattice._products(t, member, np.arange(10), t.row_tables(t.mat(egens)))
    assert got.size == 0 and member.all()


@pytest.mark.parametrize("spec", cli.DEFAULT_MODELS, ids=lambda s: s.build().name())
def test_elementary_is_the_closure_of_the_generators(spec):
    ctx = ctx_for(spec.kind, spec.degree, spec.modulus, spec.blocks)
    e_sub = ctx.elementary()
    closure = reference_subgroup_closure(ctx.table, ctx.table.gen_idxs.tolist())
    assert np.array_equal(e_sub.member, closure.member)
    assert plain_normal_closure(ctx.table, reps_in(e_sub)) == e_sub
    assert is_enormal(ctx.table, e_sub)


def test_elementary_reads_the_table(sl3_4, monkeypatch):
    def closed(*args, **kwargs):
        raise AssertionError("E(R) closed again")

    monkeypatch.setattr(lattice, "normal_closure", closed)
    e_sub = sl3_4.sibling(sl3_4.model.blocks).elementary()  # a fresh context cache
    assert e_sub.order == sl3_4.table.N
    assert e_sub.mask.all()


def test_congruence_subgroups(sl3_4):
    assert sl3_4.congruence(1).order == 43008
    assert sl3_4.congruence(2).order == 256
    assert sl3_4.congruence(4).order == 1
    # normality in the whole group
    cong = sl3_4.congruence(2)
    for perm in sl3_4.table.conj:
        assert np.array_equal(cong.member[perm], cong.member)


def test_full_congruence(sl3_4, sp4_3, sp4_2, sl4_2):
    assert sl3_4.full_congruence(1).order == 43008
    # center of SL3(F2) is trivial, so C(R,(2)) = G(R,(2))
    assert sl3_4.full_congruence(2) == sl3_4.congruence(2)
    assert sl3_4.full_congruence(4).order == 1  # trivial center
    assert sp4_3.full_congruence(3).order == 2  # {+-1}
    cong = sp4_3.congruence(3)
    full = sp4_3.full_congruence(3)
    assert cong.issubset(full)
    # against the quotient tables, on every ideal; the ideals of Z/12 and
    # Z/6 are not a chain, and Sp4(Z/2) lies outside the main hypotheses.
    # Sp4(Z/4), 737,280 elements, is not kept for later tests
    sl2_12, sl3_6 = ctx_for("SL", 2, 12, (1, 1)), ctx_for("SL", 3, 6, (1, 1, 1))
    sp4_4 = lattice.GroupContext(GroupModel("Sp", 4, 4, "line"))
    for ctx in (sl3_4, sp4_3, sl2_12, sl3_6, sp4_2, sl4_2, sp4_4):
        assert np.array_equal(ctx.center().member, reference_center(ctx))
        for d in ctx.ideals:
            assert np.array_equal(ctx.congruence(d).member, reference_congruence(ctx, d))
            assert np.array_equal(ctx.full_congruence(d).member,
                                  reference_full_congruence(ctx, d)), (ctx.model.name(), d)


def test_full_congruence_checks_the_map_to_the_quotient_is_onto(sl3_4, monkeypatch):
    ctx = sl3_4.sibling(sl3_4.model.blocks)  # same table, empty cache
    monkeypatch.setattr(lattice, "order_formula",
                        lambda model, m=None: 2 * models.order_formula(model, m))
    with pytest.raises(RuntimeError, match=r"image mod 2 has 168 elements.* over Z/2 gives 336"):
        ctx.full_congruence(2)


@pytest.mark.parametrize("spec", [("SL", 2, 12, (1, 1)), ("Sp", 4, 3, "line")])
def test_full_congruence_builds_no_quotient_table(spec, monkeypatch):
    cached = ctx_for(*spec)
    ctx = cached.sibling(cached.model.blocks)  # same table, empty cache
    want = [reference_full_congruence(cached, d) for d in ctx.ideals]

    def refuse(*args, **kwargs):
        raise AssertionError("a context or element table was asked for")

    monkeypatch.setattr(ElementTable, "__init__", refuse)
    monkeypatch.setattr(lattice.GroupContext, "__init__", refuse)
    for d, member in zip(ctx.ideals, want):
        assert np.array_equal(ctx.full_congruence(d).member, member)


def test_relative_elementary(sl3_4):
    assert sl3_4.relative_elementary(1).order == 43008
    assert sl3_4.relative_elementary(4).order == 1
    rel2 = sl3_4.relative_elementary(2)
    assert rel2 == sl3_4.congruence(2)  # equality specific to this model


def test_monotonicity_in_the_ideal(sl3_4):
    # (a) lies in (b) exactly when b divides a
    for a in sl3_4.ideals:
        for b in sl3_4.ideals:
            if a % b == 0:
                assert sl3_4.relative_elementary(a).issubset(sl3_4.relative_elementary(b))
                assert sl3_4.congruence(a).issubset(sl3_4.congruence(b))
                assert sl3_4.full_congruence(a).issubset(sl3_4.full_congruence(b))


def matmul_centralizer(table, mats):
    """Reference centralizer: the elements x with x g = g x for every g,
    from matrix products over the whole table."""
    all_mats = table.mat(np.arange(table.N))
    member = np.ones(table.N, dtype=bool)
    for g in mats:
        g = np.asarray(g, dtype=np.int64) % table.m
        member &= ((all_mats @ g) % table.m == (g @ all_mats) % table.m).all(axis=(1, 2))
    return member


def test_center(sl3_4, sp4_3):
    assert sl3_4.center().order == 1
    assert sp4_3.center().order == 2
    sl2_7 = ctx_for("SL", 2, 7, (1, 1))
    assert sl2_7.center().order == 2  # {+-1}, the square roots of 1 mod 7
    for ctx in (sl3_4, sp4_3, sl2_7):
        egens = [ctx.table.mat(i) for i in ctx.table.gen_idxs]
        assert np.array_equal(ctx.center().member, matmul_centralizer(ctx.table, egens))
    # the common fixed points of the E generator conjugations are the center
    assert np.array_equal(reference_center(sp4_3), sp4_3.center().member)


def test_commutator_subgroup(sl3_2, sp4_2):
    assert sl3_2.commutator_subgroup(sl3_2.elementary()).order == 168
    derived = sp4_2.commutator_subgroup(sp4_2.elementary())
    assert sp4_2.table.N // derived.order == 2  # index-2 subgroup of Sp4(F2)
    trivial = sp4_2.commutator_subgroup(sp4_2.orbit_closure(sp4_2.table.identity_idx))
    assert trivial.order == 1


def test_commutator_subgroup_refuses_a_commutator_off_the_table(sl3_2, monkeypatch):
    # an index -1 would name the last element; a named error reaches the CLI
    # instead.  A fresh registry has no commutators cached yet.
    ctx = lattice.GroupContext(sl3_2.model, closures=lattice._ClosureRegistry(sl3_2.table))
    e_sub = ctx.elementary()
    monkeypatch.setattr(sl3_2.table, "lookup", lambda mats: np.full(len(mats), -1))
    with pytest.raises(RuntimeError, match=r"a commutator \[x, y\] is not in the element table"):
        ctx.commutator_subgroup(e_sub)


def test_generating_set_generates_congruence_subgroup(sl3_4):
    sub = sl3_4.congruence(2)
    gens = generating_set(sl3_4.table, sub)
    assert gens and all(g in sub for g in gens)
    assert reference_subgroup_closure(sl3_4.table, gens) == sub


def test_sandwich_classify_sl3_4(sl3_4):
    results = lattice.sandwich_classify(sl3_4)
    assert all(r.verdict == "unique" for r in results)
    orbit = sl3_4.orbits().ids
    by_orbit = {orbit[r.seed_index]: r for r in results}

    def level_of(mat):
        idx = index_of(sl3_4.table, mat)
        return by_orbit[orbit[idx]].admissible[0]

    assert level_of(sl3_4.model.elementary_generator((0, 1), 2)) == 2
    assert level_of(sl3_4.model.elementary_generator((0, 1), 1)) == 1
    assert level_of(sl3_4.model.identity()) == 4


def test_sandwich_violations_on_sp4_f2(sp4_2):
    results = lattice.sandwich_classify(sp4_2)
    assert any(r.verdict != "unique" for r in results)


def test_level_theorem_example(sl3_4):
    idx = index_of(sl3_4.table, sl3_4.model.elementary_generator((0, 2), 2))
    sub = sl3_4.closure_of([idx])
    rep = lattice.verify_level_theorem(sl3_4, sub, 2)
    assert rep.equal
    # H cap X_(1,2)(V) = {0, 2} as values
    vs, idxs = sl3_4.root_element_indices()[(1, 0)]
    got = {v for v, i in zip(vs, idxs) if sub.member[i]}
    assert got == {(0,), (2,)}


def test_commutator_formula(sl3_4, sp4_3):
    for ctx in (sl3_4, sp4_3):
        out = lattice.verify_commutator_formula(ctx)
        assert all(r["equal"] for r in out)


@pytest.mark.parametrize("spec,want", [
    (("SL", 3, 6, (1, 1, 1)),
     [(1, 943488, 943488, True), (2, 5616, 5616, True), (3, 168, 168, True), (6, 1, 1, True)]),
    (("Sp", 4, 4, "line"), [(1, 368640, 737280, False), (2, 1024, 1024, True), (4, 1, 1, True)]),
    (("SL", 2, 12, (1, 1)),
     [(1, 96, 1152, False), (2, 32, 192, False), (3, 12, 48, False), (4, 8, 24, False),
      (6, 4, 8, False), (12, 1, 1, True)]),
], ids=["SL3(Z/6)", "Sp4(Z/4)", "SL2(Z/12)"])
def test_commutator_formula_per_ideal(spec, want):
    # Sp4(Z/4) has 737,280 elements; its table is not kept for later tests
    ctx = lattice.GroupContext(GroupModel(*spec)) if spec[0] == "Sp" else ctx_for(*spec)
    out = lattice.verify_commutator_formula(ctx)
    assert [(r["ideal"], r["commutator_order"], r["relative_elementary_order"], r["equal"])
            for r in out] == want


# SL3(Z/9) is left out: its 36,846,576 elements exceed the default cap
@pytest.mark.parametrize("model", [mo for mo in REFERENCE_MODELS if mo.m != 9] + [
    GroupModel("SL", 3, 6, (1, 1, 1))], ids=lambda mo: mo.name())
def test_orbit_representatives_in_a_congruence_subgroup_generate_it(model):
    # G(R,q) is normal, so it is the normal closure of the orbits it meets
    ctx = ctx_for(model.kind, model.degree, model.m, model.blocks)
    reps = np.asarray(ctx.orbits().reps)
    for d in ctx.ideals:
        cong = ctx.congruence(d)
        assert ctx.closure_of(reps[cong.member[reps]].tolist()) == cong


@pytest.mark.parametrize("spec", [
    ("SL", 3, 2, (1, 1, 1)), ("SL", 3, 3, (1, 1, 1)), ("SL", 3, 4, (1, 1, 1)),
    ("Sp", 4, 2, "borel"), ("Sp", 4, 3, "line"), ("SL", 2, 12, (1, 1)),
], ids=lambda spec: f"{spec[0]}{spec[1]}(Z/{spec[2]})")
def test_orbit_closure_is_central_exactly_when_its_representative_is(spec):
    ctx = ctx_for(*spec)
    center, reps = ctx.center(), ctx.orbits()[1]
    central = [ctx.orbit_closure(rep).issubset(center) for rep in reps]
    assert [bool(center.member[rep]) for rep in reps] == central
    assert lattice.verify_unipotent_extraction(ctx)["noncentral_closures"] == central.count(False)
    if len(ctx.ideals) == 2:  # Z/m is a field
        sizes = ctx.orbits().sizes
        want = sum(int(sizes[k]) for k, c in enumerate(central) if not c)
        assert lattice.simplicity_check(ctx)["noncentral_elements"] == want


def test_closure_of_matches_joining_every_orbit_closure(registry_ctx):
    ctx = registry_ctx
    rng = np.random.default_rng(7)
    for size in (1, 3, 20, 200):
        seeds = rng.choice(ctx.table.N, size).tolist()
        got, want = ctx.closure_of(seeds), reference_closure_of(ctx, seeds)
        assert got == want and got is want


def test_closure_of_joins_each_distinct_closure_once(sl3_4, monkeypatch):
    reps = sl3_4.orbits()[1]
    distinct = {id(sl3_4.orbit_closure(rep)) for rep in reps}
    assert len(distinct) < len(reps)  # orbits share closure objects
    joined = []
    join = sl3_4.closures.join

    def counting_join(a, b):
        joined.append(id(b))
        return join(a, b)

    monkeypatch.setattr(sl3_4.closures, "join", counting_join)
    assert sl3_4.closure_of(reps).order == sl3_4.table.N
    assert sorted(joined) == sorted(distinct)


def test_parabolic_independence(sl3_4, sl4_2):
    out = lattice.verify_parabolic_independence(sl3_4, [(1, 2)])
    assert all(r["equal"] for r in out)
    out2 = lattice.verify_parabolic_independence(sl4_2, [(2, 2), (1, 1, 2)])
    assert all(r["equal"] for r in out2)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_relative_elementary_agrees_across_the_sp4_parabolics(m):
    # Lemma E_P on Sp4, which verify_parabolic_independence refuses: E(R,q)
    # of every ideal is one subgroup whether read off the root elements of
    # the borel, the line or the siegel parabolic.  Sp4(Z/4) has 737,280
    # elements; its table is not kept for later tests
    model = GroupModel("Sp", 4, m, "borel")
    ctx = lattice.GroupContext(model) if m == 4 else ctx_for("Sp", 4, m, "borel")
    for blocks in ("line", "siegel"):
        sibling = ctx.sibling(blocks)
        assert [sibling.relative_elementary(d) == ctx.relative_elementary(d)
                for d in ctx.ideals] == [True] * len(ctx.ideals)


def test_structure_theorems(sl3_2, sp4_2):
    st = lattice.verify_structure_theorems(sl3_2)
    assert st["e_normal"] and st["perfect"] and st["centralizer_matches_center"]
    assert not st["hall_witt_failures"]
    st2 = lattice.verify_structure_theorems(sp4_2)
    assert st2["derived_index"] == 2
    assert not st2["perfect_expected"]


def test_extract_unipotent(sl3_4):
    idx = index_of(sl3_4.table, sl3_4.model.elementary_generator((0, 1), 2))
    sub = sl3_4.closure_of([idx])
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
    g = index_of(t, sl3_4.model.elementary_generator((0, 1), 2))  # level 2
    h = index_of(t, sl3_4.model.elementary_generator((1, 2), 1))  # level 1
    join = plain_normal_closure(t, [g, h])
    lower = {d: BitsetSubgroup(sl3_4.relative_elementary(d).member) for d in sl3_4.ideals}
    upper = {d: BitsetSubgroup(sl3_4.full_congruence(d).member) for d in sl3_4.ideals}
    adm = [d for d in sl3_4.ideals
           if lower[d].issubset(join) and join.issubset(upper[d])]
    assert adm == [math.gcd(2, 1)]


def test_centralizer_lemmas(sl3_2, sl3_3, sp4_3):
    for ctx in (sl3_2, sl3_3):
        assert not lattice.verify_u_cent_field(ctx)["failures"]
        assert not lattice.verify_centralizer_beta(ctx.model)["failures"]
        assert not lattice.verify_small_levi_b(ctx.model)["failures"]
    borel = GroupModel("Sp", 4, 3, "borel")
    ctx_borel = ctx_for("Sp", 4, 3, "borel")
    assert not lattice.verify_u_cent_field(ctx_borel)["failures"]
    assert not lattice.verify_centralizer_beta(borel)["failures"]
    assert not lattice.verify_small_levi_b(borel)["failures"]


@pytest.mark.parametrize("spec", [
    ("SL", 3, 2, (1, 1, 1)), ("SL", 3, 3, (1, 1, 1)),
    ("SL", 4, 2, (1, 1, 1, 1)), ("SL", 4, 2, (2, 2)),
    ("Sp", 4, 2, "line"), ("Sp", 4, 2, "borel"),
    ("Sp", 4, 3, "line"), ("Sp", 4, 3, "borel"),
])
def test_radical_centralizer_from_generators(spec):
    # the X_alpha(e) generate the radical, so their centralizer is the one of
    # the whole radical, taken here by matrix products over the table
    ctx = ctx_for(*spec)
    model = ctx.model
    radical = [model.x(a, v) for a in model.positive_rel_roots for v in model.v_tuples(a)]
    full = matmul_centralizer(ctx.table, radical)
    idx = np.flatnonzero(full)
    outside = idx[~model.in_parabolic(ctx.table.mat(idx))].tolist()
    assert lattice.verify_u_cent_field(ctx) == {"centralizing": len(idx), "failures": outside}


def test_centralizer_lemmas_without_rank_two_parabolic():
    out = lattice.verify_centralizer_lemmas(ctx_for("SL", 2, 5, (1, 1)))
    assert list(out) == ["u_cent_field"] and not out["u_cent_field"]["failures"]
    out = lattice.verify_centralizer_lemmas(ctx_for("Sp", 4, 3, "line"))
    assert not any(r["failures"] for r in out.values())
    assert out["centr_beta"]["checked"] and out["small_levi_b"]["checked"]


def test_centralizer_beta_over_z4_and_z9():
    # table-free checks still run where the element table would not fit
    for m in (4, 9):
        model = GroupModel("SL", 3, m, (1, 1, 1))
        assert not lattice.verify_centralizer_beta(model)["failures"]
        assert not lattice.verify_small_levi_b(model)["failures"]


@pytest.mark.parametrize("model", REFERENCE_MODELS, ids=lambda mo: mo.name())
def test_centralizer_readers_match_per_element_reference(model):
    beta = lattice.verify_centralizer_beta(model)
    levi_b = lattice.verify_small_levi_b(model)
    assert beta == reference_centralizer_beta(model)
    assert levi_b == reference_small_levi_b(model)
    assert beta["checked"] and levi_b["checked"]
    # Lemma centr-beta fails on the negative control Sp4(Z/2); small-levi-b holds there too
    assert bool(beta["failures"]) is (model.kind == "Sp" and model.m == 2)
    assert not levi_b["failures"]


def test_centralizer_beta_needs_rank_two():
    with pytest.raises(ValueError):
        lattice.verify_centralizer_beta(GroupModel("Sp", 4, 3, "line"))


def test_gauss_brute_force(sl3_2, sl3_3):
    for ctx in (sl3_2, sl3_3):
        assert lattice.gauss_brute_force_agrees(ctx.model, ctx.table)


def test_enormal_lattice_sl3_4(sl3_4):
    members = enormal_lattice(sl3_4)
    assert [sub.order for sub, _ in members] == [1, 256, 43008]
    assert all(len(adm) == 1 for _, adm in members)
    level = {sub.mask.tobytes(): adm[0] for sub, adm in members}
    for a, (la,) in members:
        for b, (lb,) in members:
            joined = sl3_4.closures.join(a, b)
            assert level[joined.mask.tobytes()] == math.gcd(la, lb)


def test_enormal_lattice_sl3_6():
    # Z/6 has the incomparable ideals (2) and (3) on a rank-2 group
    ctx = ctx_for("SL", 3, 6, (1, 1, 1))
    members = enormal_lattice(ctx)
    assert [sub.order for sub, _ in members] == [1, 168, 5616, 943488]
    assert [adm for _, adm in members] == [[6], [3], [2], [1]]
    level = {sub.mask.tobytes(): adm[0] for sub, adm in members}
    for a, (la,) in members:
        for b, (lb,) in members:
            assert level[ctx.closures.join(a, b).mask.tobytes()] == math.gcd(la, lb)
    assert ctx.closures.join(members[1][0], members[2][0]) == members[3][0]


def test_enormal_lattice_sp4_2_has_non_unique_member(sp4_2):
    members = enormal_lattice(sp4_2)
    assert all(is_enormal(sp4_2.table, sub) for sub, _ in members)
    assert any(len(adm) != 1 for _, adm in members)


@pytest.mark.parametrize("name", ["sl3_4", "sp4_2"])
def test_is_enormal_holds_on_the_lattice_and_fails_on_a_root_subgroup(name, request):
    # is_enormal checks the bitset, so a bitset without gens gets the same verdict
    ctx = request.getfixturevalue(name)
    for sub, _ in enormal_lattice(ctx):
        assert sub.order == int(sub.member.sum())
        assert is_enormal(ctx.table, sub)
        assert is_enormal(ctx.table, BitsetSubgroup(sub.member))
    # the subgroup one root element X_alpha(1) generates is not E-normal
    root = reference_subgroup_closure(ctx.table, [int(ctx.table.gen_idxs[0])])
    assert root.gens and 1 < root.order < ctx.table.N
    assert not is_enormal(ctx.table, root)
    assert not is_enormal(ctx.table, BitsetSubgroup(root.member))


@pytest.fixture
def sl2_6():
    # Z/6 has incomparable ideals, so joins of orbit closures are not all inclusions
    return ctx_for("SL", 2, 6, (1, 1))


@pytest.fixture(params=["sl3_4", "sp4_2", "sl2_6", "sl4_2"])
def registry_ctx(request):
    return request.getfixturevalue(request.param)


@pytest.mark.parametrize("name", ["sl3_4", "sp4_2", "sp4_3", "sl2_6"])
def test_e_conjugacy_orbits_match_bfs(request, name):
    ctx = request.getfixturevalue(name)
    orbit, least = lattice.e_conjugacy_orbits(ctx.table)
    assert np.array_equal(orbit, bfs_orbits(ctx.table))
    reps = ctx.orbits()[1]
    assert reps == least.tolist() == np.unique(orbit, return_index=True)[1].tolist()
    assert reps == [int(np.nonzero(orbit == k)[0][0]) for k in range(len(reps))]


def test_orbit_labels_and_ids_are_int32(sl3_4):
    # half the bytes of int64: 44 MB instead of 88 MB on SL3(Z/8)
    orbit, least = lattice.e_conjugacy_orbits(sl3_4.table)
    assert orbit.dtype == np.int32 and sl3_4.orbits().ids.dtype == np.int32
    assert orbit.tolist() == bfs_orbits(sl3_4.table).tolist()


def test_registry_orbit_closures_match_plain_engine(registry_ctx):
    ctx = registry_ctx
    for rep in ctx.orbits()[1]:
        assert plain_normal_closure(ctx.table, [rep]) == ctx.orbit_closure(rep)


def test_orbit_closure_gens_are_the_representative(registry_ctx):
    # cl(r) grows from r alone, so in a fresh registry each distinct closure
    # is normally generated by the representative of the first orbit that
    # built it, and by the representatives in its mask
    ctx = registry_ctx
    registry = lattice._ClosureRegistry(ctx.table)
    built = {}
    for rep in ctx.orbits()[1]:
        built.setdefault(id(sub := registry.orbit_closure(rep)), (rep, sub))
    for rep, sub in built.values():
        assert plain_normal_closure(ctx.table, [rep]) == sub
        assert plain_normal_closure(ctx.table, reps_in(sub)) == sub


def test_registry_relative_elementary_matches_plain_engine(registry_ctx):
    ctx = registry_ctx
    for d in ctx.ideals:
        seeds = [index_of(ctx.table, ctx.model.x(alpha, v))
                 for alpha in ctx.model.rel_roots
                 for v in ctx.model.v_tuples(alpha, d) if any(v)]
        assert plain_normal_closure(ctx.table, seeds) == ctx.relative_elementary(d)


@pytest.fixture
def sl2_12():
    return ctx_for("SL", 2, 12, (1, 1))


@pytest.mark.parametrize("name", ["sl3_4", "sp4_2", "sl2_6", "sl4_2", "sl2_12"])
def test_registry_join_matches_plain_engine(name, request):
    # every pair of distinct orbit closures, each with its representative,
    # and on SL2(Z/12) every pair of lattice members, with the
    # representatives in their masks: there joins are not inclusions
    ctx = request.getfixturevalue(name)
    if name == "sl2_12":
        subs = [(sub, reps_in(sub)) for sub, _ in enormal_lattice(ctx)]
    else:
        reps = {}
        for rep in ctx.orbits()[1]:
            reps.setdefault(ctx.orbit_closure(rep).mask.tobytes(), rep)
        subs = [(ctx.orbit_closure(rep), [rep]) for rep in sorted(reps.values())]
    assert len(subs) >= 2
    products = 0
    for i, (a, seeds_a) in enumerate(subs):
        for b, seeds_b in subs[i + 1:]:
            joined = ctx.closures.join(a, b)
            assert joined is ctx.closures.join(b, a)
            assert plain_normal_closure(ctx.table, seeds_a + seeds_b) == joined
            assert plain_normal_closure(ctx.table, reps_in(joined)) == joined
            products += not (a.issubset(b) or b.issubset(a))
    assert products > 0 or name != "sl2_12"


@pytest.mark.parametrize("spec", [(s.kind, s.degree, s.modulus, s.blocks) for s in cli.DEFAULT_MODELS]
                         + [("SL", 3, 6, (1, 1, 1)), ("Sp", 4, 4, "line")],
                         ids=lambda s: f"{s[0]}{s[1]}(Z/{s[2]})")
def test_closures_match_a_run_without_the_whole_group_exit(spec, monkeypatch):
    # a closure that reaches every E generator ends at the whole table with
    # the masks, and the shared objects, of a BFS run to its fixed point
    large = spec == ("Sp", 4, 4, "line")  # not kept for later tests
    ctx = lattice.GroupContext(GroupModel(*spec)) if large else ctx_for(*spec)
    reps = ctx.orbits()[1]
    got = [ctx.orbit_closure(rep) for rep in reps] + [ctx.closure_of(reps)]
    plain = lattice.GroupContext(ctx.model, ctx.cap,
                                 closures=lattice._ClosureRegistry(ctx.table))
    monkeypatch.setattr(lattice, "normal_closure", reference_normal_closure)
    want = [plain.orbit_closure(rep) for rep in reps] + [reference_closure_of(plain, reps)]
    assert got[-1].order == ctx.table.N
    assert ([(g.mask.tobytes(), g.order) for g in got]
            == [(w.mask.tobytes(), w.order) for w in want])

    def sharing(subs):
        return [next(i for i, other in enumerate(subs) if other is sub) for sub in subs]

    assert sharing(got[:-1]) == sharing(want[:-1])


def test_whole_group_orbit_closures_are_one_object(sl3_4, monkeypatch):
    # closure_of dedupes orbit closures by identity, so the whole-group exit
    # must return the object the stop hook would have returned
    registry = lattice._ClosureRegistry(sl3_4.table)
    whole = [rep for rep in sl3_4.orbits()[1] if sl3_4.orbit_closure(rep).order == sl3_4.table.N]
    first = registry.orbit_closure(whole[0])
    monkeypatch.setattr(registry, "_known_closure", lambda rep: None)
    assert len(whole) > 1 and all(registry.orbit_closure(rep) is first for rep in whole[1:])


def test_orbit_closure_without_certificate_raises(sl3_4, sl2_6, monkeypatch):
    registry = lattice._ClosureRegistry(sl3_4.table)
    # two incomparable closures, whose join is formed from products
    joins = lattice._ClosureRegistry(sl2_6.table)
    closures = [joins.orbit_closure(rep) for rep in sl2_6.orbits()[1]]
    a, b = next((a, b) for a in closures for b in closures
                if not (a.issubset(b) or b.issubset(a)))
    # a normal_closure that returns a subgroup that is not E-normal
    monkeypatch.setattr(lattice, "normal_closure", lambda table, *args, **kwargs:
                        reference_subgroup_closure(table, [int(table.gen_idxs[0])]).member)
    with pytest.raises(RuntimeError, match="generated by an E-orbit is not E-normal"):
        registry.orbit_closure(sl3_4.orbits()[1][1])
    # products x r that stay x: the join's mask is that of A cup B, too small
    monkeypatch.setattr(sl2_6.table, "right_mult",
                        lambda idx, tables: np.tile(idx, (len(tables), 1)))
    with pytest.raises(RuntimeError, match="join of E-normal subgroups is not E-normal"):
        joins.join(a, b)


def test_join_equal_to_a_held_closure_is_that_object():
    # on SL3(Z/6) the level-2 and level-3 orbit closures join to the whole
    # group, which the registry already holds as an orbit closure
    ctx = ctx_for("SL", 3, 6, (1, 1, 1))
    registry = lattice._ClosureRegistry(ctx.table)
    by_order = {}
    for rep in ctx.orbits()[1]:
        sub = registry.orbit_closure(rep)
        assert by_order.setdefault(sub.order, sub) is sub  # one object per subgroup
    assert sorted(by_order) == [1, 168, 5616, ctx.table.N]
    assert registry.join(by_order[168], by_order[5616]) is by_order[ctx.table.N]


@pytest.mark.parametrize("spec", [("SL", 3, 4, (1, 1, 1)), ("Sp", 4, 3, "line")],
                         ids=["SL3(Z/4)", "Sp4(Z/3)"])
def test_every_bound_has_its_own_ideal_as_sandwich(spec):
    # the bounds are unions of orbits like the closures, so the sandwich
    # reads them whether or not the registry built them
    ctx = ctx_for(*spec)
    for d in ctx.ideals:
        for sub in (ctx.congruence(d), ctx.full_congruence(d), ctx.relative_elementary(d)):
            assert ctx.sandwich_ideals(sub) == [d]
        rep = lattice.verify_level_theorem(ctx, ctx.congruence(d), d)
        assert rep.equal and rep.level == d


def test_sandwich_suite_settles_most_orbit_closures_without_a_bfs(monkeypatch):
    # cl(r) holds every [r, e], so a known closure of a commutator's orbit
    # that holds r is cl(r), with no BFS: 20 BFS runs build every orbit
    # closure, join and bound the suite reads on the six default models
    calls = []
    true = lattice.normal_closure

    def counted(*args, **kwargs):
        calls.append(args)
        return true(*args, **kwargs)

    monkeypatch.setattr(lattice, "normal_closure", counted)
    for spec in cli.DEFAULT_MODELS:
        for _ in cli.sandwich_records(spec, cli.DEFAULT_CAP):
            pass
    assert 0 < len(calls) <= 20


def test_level_reports_are_computed_once_per_closure(sl3_4, monkeypatch):
    ctx = sl3_4.sibling(sl3_4.model.blocks)  # a fresh context cache on the shared registry
    by_closure = {}
    for r in lattice.sandwich_classify(ctx):
        if r.verdict == "unique":
            by_closure.setdefault(id(ctx.orbit_closure(r.seed_index)), []).append(r)
    first, second = next(rs for rs in by_closure.values() if len(rs) > 1)[:2]
    sub, d = ctx.orbit_closure(first.seed_index), first.admissible[0]
    a = lattice.verify_level_theorem(ctx, sub, d, first.seed_index)

    def recomputed(*args):
        raise AssertionError("the level report was computed again")

    monkeypatch.setattr(ctx, "root_element_indices", recomputed)
    b = lattice.verify_level_theorem(ctx, sub, d, second.seed_index)
    assert (a.seed_index, b.seed_index) == (first.seed_index, second.seed_index)
    assert {**a.as_dict(), "seed_index": None} == {**b.as_dict(), "seed_index": None}
    assert a.equal and a.per_root
    want = list(b.per_root)
    a.per_root.clear()
    assert b.per_root == want
    assert lattice.verify_level_theorem(ctx, sub, d).per_root == want


def test_subgroups_keep_no_array_over_the_table(sl3_4):
    # a subgroup keeps its orbit mask and the shared orbit data;
    # only the orbit ids, one array the registry owns, have the table's length
    ctx = sl3_4.sibling(sl3_4.model.blocks)  # a fresh context cache on the shared registry
    lattice.verify_structure_theorems(ctx)
    enormal_lattice(ctx)
    lattice.verify_commutator_formula(ctx)  # every bound of every ideal
    orbits = ctx.orbits()
    held = [*ctx.closures._by_mask.values(), *ctx.closures._by_orbit.values(),
            *(v for v in ctx._cache.values() if isinstance(v, lattice.Subgroup))]
    assert len(held) > 10
    for sub in held:
        assert sub.orbits is orbits
        assert sub.mask.shape == (len(orbits.reps),) and sub.mask.dtype == bool
        assert all(not isinstance(v, np.ndarray) or v is sub.mask for v in vars(sub).values())
    assert len(orbits.reps) < ctx.table.N


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
