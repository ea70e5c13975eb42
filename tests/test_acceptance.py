"""Acceptance suite: one test per criterion, exact equalities throughout.

Each test prints a single PASS line when its criterion holds; run with
``pytest -s tests/test_acceptance.py`` to see them.  All subgroup-level
assertions are exact bitset or integer comparisons, never approximate.
"""

import random
import time

from chevlat import calculus, lattice, models, relroots
from chevlat.models import GroupModel
from chevlat.rings import ZmRing

from conftest import ctx_for

MAIN_MODELS = [
    ("SL", 3, 2, (1, 1, 1)),
    ("SL", 3, 3, (1, 1, 1)),
    ("SL", 3, 4, (1, 1, 1)),
    ("SL", 4, 2, (1, 1, 1, 1)),
    ("Sp", 4, 3, "line"),
]


def contexts():
    return [ctx_for(*spec) for spec in MAIN_MODELS]


def sandwich_level(ctx, result):
    assert result.verdict == "unique"
    return next(q for q in ctx.ideals if q.d == result.admissible[0])


def test_c1_sandwich_classification():
    started = time.time()
    total_orbits = 0
    for ctx in contexts():
        results = lattice.sandwich_classify(ctx)
        assert all(r.verdict == "unique" for r in results)
        total_orbits += len(results)
    elapsed = time.time() - started
    assert elapsed < 300, f"sandwich classification took {elapsed:.0f}s"
    print(f"\nPASS criterion 1: unique sandwich for {total_orbits} orbit closures "
          f"across 5 models in {elapsed:.1f}s")


def test_c2_commutator_formula_and_parabolic_independence():
    for ctx in contexts():
        out = lattice.verify_commutator_formula(ctx)
        assert all(r["equal"] for r in out)
    sl3 = ctx_for("SL", 3, 4, (1, 1, 1))
    out = lattice.verify_parabolic_independence(sl3, [(1, 2), (2, 1)])
    assert all(r["equal"] for r in out)
    sl4 = ctx_for("SL", 4, 2, (1, 1, 1, 1))
    out = lattice.verify_parabolic_independence(sl4, [(2, 2), (1, 1, 2)])
    assert all(r["equal"] for r in out)
    print("\nPASS criterion 2: E(R,q) = [G(R,q), E(R)] for every ideal, "
          "independent of the block composition")


def test_c3_level_computation():
    levels = 0
    for ctx in contexts():
        for res in lattice.sandwich_classify(ctx):
            q = sandwich_level(ctx, res)
            rep = lattice.verify_level_theorem(
                ctx, ctx.orbit_closure(res.seed_index), q, res.seed_index
            )
            assert rep.equal
            levels += 1
    print(f"\nPASS criterion 3: per-root level identity for {levels} closures")


def test_c4_structure_theorems_and_negative_control():
    for ctx in contexts():
        st = lattice.verify_structure_theorems(ctx)
        assert st["e_normal"] and st["centralizer_matches_center"] and st["perfect"]
        assert not st["hall_witt_failures"]
    neg = ctx_for("Sp", 4, 2, "borel")
    assert not neg.hypotheses.perfect_ok  # hypothesis violation is detected
    st = lattice.verify_structure_theorems(neg)
    assert st["derived_index"] == 2  # the expected exception, recorded exactly
    print("\nPASS criterion 4: E normal, centralizer = center, E perfect, "
          "Hall-Witt stable; Sp4(Z/2) derived index 2 as expected exception")


def test_c5_simplicity_desk_check():
    sl3_2 = ctx_for("SL", 3, 2, (1, 1, 1))
    out = lattice.simplicity_check(sl3_2)
    assert out["noncentral_elements"] == 167
    assert out["group_order"] == 168
    assert not out["failures"]
    for spec in (("SL", 3, 3, (1, 1, 1)), ("Sp", 4, 3, "line")):
        assert not lattice.simplicity_check(ctx_for(*spec))["failures"]
    print("\nPASS criterion 5: 167 closures fill SL3(F2); closures full or "
          "central over F3")


def test_c6_relative_root_lemma_suite():
    started = time.time()
    totals = relroots.sweep_totals(5)
    assert all(v == 0 for k, v in totals.items() if k.endswith("failed")), totals
    for base, target, gen in relroots.FOLDS:
        assert relroots.fold_matches(base, target, gen)
    elapsed = time.time() - started
    assert elapsed < 30, f"relative-root sweep took {elapsed:.0f}s"
    print(f"\nPASS criterion 6: {totals['fiber_checked']} fiber checks, "
          f"{totals['sigma_checked']} sigma sets, 0 counterexamples; foldings "
          f"C_n, B_n, F4, G2 exact; {elapsed:.1f}s")


def test_c7_commutator_calculus_properties():
    rng = random.Random(0xC7)
    for ctx in contexts():
        model = ctx.model
        gens = model.all_elementary_generators()
        assert calculus.sampled_identity_check(model, gens, 1000, rng)
        # each non-opposed pair checks 100 samples times every scale r in Z/m
        ok, checked = calculus.sampled_homogeneity_check(model, 100, rng)
        assert ok and checked > 0 and checked % (100 * model.m) == 0
        assert calculus.sampled_sum_formula_check(model, 50, rng)
        assert calculus.sampled_roundtrip_check(model, 50, rng)[0]
        assert models.sampled_gauss_roundtrip_check(model, 50, rng)

    # the Sp4 BC_1 double-root term round-trips with its bilinear part
    sp = ctx_for("Sp", 4, 3, "line").model
    for v in sp.v_tuples((1,)):
        for w in sp.v_tuples((1,)):
            first, higher = calculus.sum_formula_decompose(sp, (1,), v, w)
            assert first == tuple((a + b) % 3 for a, b in zip(v, w))
            expect = (-2 * w[0] * v[1]) % 3  # read off the matrix model
            assert higher.get(2, (0,))[0] == expect

    assert lattice.gauss_brute_force_agrees(ctx_for("SL", 3, 2, (1, 1, 1)))
    assert lattice.gauss_brute_force_agrees(ctx_for("SL", 3, 3, (1, 1, 1)))
    print("\nPASS criterion 7: commutator identity, degree homogeneity, sum "
          "formula, unipotent and Gauss round-trips, brute-force cell agreement")


def test_c8_centralizer_lemmas():
    checked = 0
    borel = lattice.get_context(GroupModel("Sp", 4, ZmRing(3), "borel"))
    for ctx in (ctx_for("SL", 3, 2, (1, 1, 1)), ctx_for("SL", 3, 3, (1, 1, 1)), borel):
        out = lattice.verify_centralizer_lemmas(ctx)
        assert set(out) == {"u_cent_field", "centr_beta", "small_levi_b"}
        assert not any(r["failures"] for r in out.values())
        checked += 1
    print(f"\nPASS criterion 8: centralizer lemmas exhaustive on {checked} "
          "prime-field models, zero counterexamples")
