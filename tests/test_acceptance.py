"""Acceptance suite: one test per criterion, exact equalities throughout.

Criteria 1-4 on the main models are asserted on the records the CLI itself
reports: the test drains `cli.group_records` and `cli.sandwich_records`.

Each test prints a single PASS line when its criterion holds; run with
``pytest -s tests/test_acceptance.py`` to see them.  All subgroup-level
assertions are exact bitset or integer comparisons, never approximate.
"""

import random
import time

import pytest

from chevlat import calculus, cli, lattice, models, relroots
from chevlat.models import GroupModel

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


@pytest.mark.parametrize("spec", MAIN_MODELS, ids=lambda s: f"{s[0]}{s[1]}(Z/{s[2]})")
def test_c1_to_c4_cli_records(spec):
    # the records `chevlat group` and `chevlat sandwich` report: the sandwich
    # classification (criterion 1), the commutator formula (2), the level
    # computation (3) and the structure theorems (4) all hold, none expected
    # to fail; the sandwich records stay within 300 s over the five models
    spec = cli.ModelSpec(*spec)
    started = time.time()
    records = list(cli.sandwich_records(spec, cli.DEFAULT_CAP))
    elapsed = time.time() - started
    assert elapsed < 300 / len(MAIN_MODELS), f"sandwich records took {elapsed:.0f}s"
    records += cli.group_records(spec, cli.DEFAULT_CAP)
    assert {"sandwich_classification", "level_computation", "commutator_formula",
            "elementary_normal", "centralizer_is_center", "elementary_perfect",
            "hall_witt_stabilization"} <= {name for name, *_ in records}
    for name, _anchor, ok, expect_violation, _witness in records:
        assert ok is None or (ok and not expect_violation), name
    print(f"\nPASS criteria 1-4: {len(records)} group and sandwich records hold on "
          f"{spec.build().name()}; sandwich records in {elapsed:.1f}s")


def test_c2_commutator_formula_and_parabolic_independence():
    sl3 = ctx_for("SL", 3, 4, (1, 1, 1))
    out = lattice.verify_parabolic_independence(sl3, [(1, 2), (2, 1)])
    assert all(r["equal"] for r in out)
    sl4 = ctx_for("SL", 4, 2, (1, 1, 1, 1))
    out = lattice.verify_parabolic_independence(sl4, [(2, 2), (1, 1, 2)])
    assert all(r["equal"] for r in out)
    print("\nPASS criterion 2: E(R,q) for every ideal is independent of the "
          "block composition")


def test_c4_structure_theorems_and_negative_control():
    neg = ctx_for("Sp", 4, 2, "borel")
    assert not neg.hypotheses.perfect_ok  # hypothesis violation is detected
    st = lattice.verify_structure_theorems(neg)
    assert st["derived_index"] == 2  # the expected exception, recorded exactly
    print("\nPASS criterion 4: Sp4(Z/2) derived index 2 as expected exception")


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
    for ctx in contexts():
        model = ctx.model
        assert calculus.generators_in_group(model)
        assert calculus.sampled_identity_check(model, 1000, random.Random(0xC7))
        # each non-opposed pair checks 100 samples times every scale r in Z/m
        ok, checked = calculus.sampled_homogeneity_check(model, 100, random.Random(0xC7))
        assert ok and checked > 0 and checked % (100 * model.m) == 0
        assert calculus.sum_formula_check(model)
        assert calculus.levi_conjugation_check(model, model.levi_elements())
        assert calculus.roundtrip_check(model)[0]
        assert models.sampled_gauss_roundtrip_check(model, 50, random.Random(0xC7))

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
    borel = lattice.get_context(GroupModel("Sp", 4, 3, "borel"))
    for ctx in (ctx_for("SL", 3, 2, (1, 1, 1)), ctx_for("SL", 3, 3, (1, 1, 1)), borel):
        out = lattice.verify_centralizer_lemmas(ctx)
        assert set(out) == {"u_cent_field", "centr_beta", "small_levi_b"}
        assert not any(r["failures"] for r in out.values())
        checked += 1
    print(f"\nPASS criterion 8: centralizer lemmas exhaustive on {checked} "
          "prime-field models, zero counterexamples")
