"""Planted faults: each monkeypatch breaks one piece of the program, and the
check that covers it must then fail.  A check that no fault can make fail
verifies nothing.  The faults of the exhaustive checks sit at their last
case, which a check over part of its cases would miss.  The wrong-degree
fault of the Levi conjugation check, at every case, is in test_calculus."""

import numpy as np
import pytest

from chevlat import calculus, cli, lattice, relroots
from chevlat.models import GroupModel

from conftest import adjacent_ok, reference_adjacent_ok


def sl(n, m):
    return GroupModel("SL", n, m, (1,) * n)


def sp(m, blocks="line"):
    return GroupModel("Sp", 4, m, blocks)


@pytest.fixture
def fresh_root_tables():
    """Root elements built after the fault is planted, and none kept after it."""
    caches = (calculus._root_elements, calculus._root_table, calculus.chart)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def test_sum_formula_fails_on_a_higher_component_off_by_one(monkeypatch):
    # Sp4 line has the double root 2 alpha, so the sum formula has a higher factor
    model = sp(3)
    assert calculus.sum_formula_check(model)
    true = calculus.sum_formula_decompose

    def off_by_one(model, alpha, v, w):
        first, higher = true(model, alpha, v, w)
        last = ((v == model.m - 1) & (w == model.m - 1)).all(axis=-1)  # the last pair
        for val in higher.values():
            val[last, 0] = (val[last, 0] + 1) % model.m
            break
        return first, higher

    monkeypatch.setattr(calculus, "sum_formula_decompose", off_by_one)
    assert not calculus.sum_formula_check(model)


@pytest.mark.parametrize("model", [sl(3, 2), sl(3, 4), sp(3)], ids=lambda mo: mo.name())
def test_roundtrip_fails_when_two_codes_are_swapped(model, monkeypatch):
    assert calculus.roundtrip_check(model)[0]
    true = calculus.UnipotentChart.components

    def swapped(self, codes):  # the last two codes
        codes, a, b = np.asarray(codes), len(self) - 1, len(self) - 2
        return true(self, np.where(codes == a, b, np.where(codes == b, a, codes)))

    monkeypatch.setattr(calculus.UnipotentChart, "components", swapped)
    assert calculus.roundtrip_check(model) == (False, len(calculus.radical_chart(model)))


def test_generators_in_group_fails_on_a_singular_root_element(monkeypatch, fresh_root_tables):
    model = sl(3, 3)
    alpha = model.rel_roots[-1]
    true = GroupModel.x

    def singular_at_last(self, a, v):
        g = true(self, a, v)
        if (a, tuple(v)) == (alpha, (2,)):
            g[0, 0] = 0
        return g

    monkeypatch.setattr(GroupModel, "x", singular_at_last)
    # the elementary generators are built without x: the root table alone catches it
    assert model.is_element(model.all_elementary_generators()).all()
    assert not calculus.generators_in_group(model)


def test_levi_conjugation_fails_on_a_shift_at_the_last_element(monkeypatch):
    # 36 Levi elements on SL3(Z/9)
    model = sl(3, 9)
    levis = model.levi_elements()
    assert calculus.levi_conjugation_check(model, levis)
    true = calculus.levi_conjugation_decompose

    def shifted_at_last(model, g, alpha, v):
        last = (g == levis[-1]).all(axis=(-2, -1))[..., None]
        return {i: (val + last) % model.m for i, val in true(model, g, alpha, v).items()}

    monkeypatch.setattr(calculus, "levi_conjugation_decompose", shifted_at_last)
    assert not calculus.levi_conjugation_check(model, levis)


def _group_records(spec):
    return [cli._jsonable(record) for record in cli.group_records(spec, cli.DEFAULT_CAP)]


def test_identity_failure_changes_only_its_record(monkeypatch):
    clean = [_group_records(spec) for spec in cli.DEFAULT_MODELS]
    true = calculus.commutator_identity_check

    def last_triple_fails(model, x, y, z, inverses=None):
        held = true(model, x, y, z, inverses)
        held[-1] = False
        return held

    monkeypatch.setattr(calculus, "commutator_identity_check", last_triple_fails)
    for spec, before in zip(cli.DEFAULT_MODELS, clean):
        after = _group_records(spec)
        changed = [b[0] for b, a in zip(before, after) if a != b]
        assert changed == ["commutator_identity"]
        assert [a[2] for a in after if a[0] == "commutator_identity"] == [False]


def _failing_relroots_records():
    return {name for name, _, ok, _, _ in cli.relroots_records() if ok is False}


def test_a_padded_unit_vector_slot_counted_as_a_root_fails_the_sweep(monkeypatch):
    # a datum of relative rank k pads its unit-vector slots k..r-1 with -1;
    # here they name the datum's first root instead, so that root is walked
    # and checked as one more simple root: the adjacency count fails
    assert _failing_relroots_records() == set()
    true = relroots._Stack

    def padded_slots_count(rels):
        st = true(rels)
        has_roots = (st.start[1:] > st.start[:-1])[:, None]
        st.simple = np.where((st.simple < 0) & has_roots, st.start[:-1, None], st.simple)
        return st

    monkeypatch.setattr(relroots, "_Stack", padded_slots_count)
    assert _failing_relroots_records() == {"relative_lemma_sweep"}
    assert relroots.sweep_totals(5)["adjacent_failed"] > 0


def test_a_datum_offset_off_by_one_is_stopped_by_the_cover_guard(monkeypatch):
    # every query of the stack's one sorted search (labels, unit vectors,
    # cover labels, sums, negations) carries datum d + 1's offset, so it is
    # answered among the next datum's roots; the last datum's roots are then
    # not found, which the guard on the cover labels reports
    true_space, true_find = relroots._key_space, relroots.sorted_find
    spans = []

    def key_space(*args):
        weights, span, origin = true_space(*args)
        spans.append(span)
        return weights, span, origin

    def next_datum(keys, queries, ids=None):  # only the search right after a key space
        return true_find(keys, queries + spans.pop() if spans else queries, ids)

    monkeypatch.setattr(relroots, "_key_space", key_space)
    monkeypatch.setattr(relroots, "sorted_find", next_datum)
    with pytest.raises(RuntimeError, match="cover projection disagrees with the direct one"):
        _failing_relroots_records()


def test_a_chain_walk_one_step_short_is_a_gap_of_the_sweep(monkeypatch):
    # The walk stops before the last multiple of b.  No record fails: the
    # lemma holds on every datum of the sweep, so a weaker walk cannot show
    # there.  That is a gap of the sweep record, not harmless mathematics;
    # the walk's comparison with coordinate lookups over every simple a and
    # every root b (test_adjacent_walk_matches_lookup_reference), failing
    # chains included, is what catches it.
    def one_step_short(add, ia, ib):
        ok = np.ones(len(ia), dtype=bool)
        live, jb = np.arange(len(ia)), np.asarray(ib)
        while live.size:
            nxt = add(jb, ib[live])
            more = nxt >= 0  # the last multiple is never checked
            ok[live[more & (add(ia[live], jb) < 0)]] = False
            live, jb = live[more], nxt[more]
        return ok

    monkeypatch.setattr(relroots, "_chains_ok", one_step_short)
    assert _failing_relroots_records() == set()
    idx = relroots.build_relative(relroots.sweep_data(2)[-1]).index
    assert any(adjacent_ok(idx, ia, ib) != reference_adjacent_ok(idx, ia, ib)
               for ia in idx.simple for ib in range(len(idx.coords)))


# -- the ideal lattice: an ideal of Z/m is its generator d | m ----------------

# every default model but the Sp4(Z/2) control, whose failures are expected
HOLDING = [spec.build().name() for spec in cli.DEFAULT_MODELS if not spec.expect_violation]


def _sandwich_run(monkeypatch):
    """The sandwich suite on the default models, with its exit code and the
    models on which each record fails.  It runs on fresh contexts: the
    element tables and their closures depend on the group only and stay
    shared, but no ideal data cached before the fault was planted is read."""
    monkeypatch.setattr(lattice, "_CONTEXTS", {})
    report, code = cli.run(cli.RunConfig(suite="sandwich"))
    failing = {}
    for check in report["checks"]:
        if check["verdict"] == "fail":
            failing.setdefault(check["name"], []).append(check["model"])
    return code, failing, report["checks"]


@pytest.mark.parametrize("drop, failing", [
    (slice(1, None), ["sandwich_classification", "level_computation", "join_compatibility"]),
    (slice(None, -1), ["sandwich_classification", "level_computation"]),
], ids=["without the unit ideal", "without the zero ideal"])
def test_a_missing_ideal_fails_the_sandwich_records(drop, failing, monkeypatch):
    # without (1) the whole group has no sandwich, and the joins that reach
    # it have no level; without (m) the trivial subgroup has none
    assert _sandwich_run(monkeypatch)[:2] == (0, {})
    true = lattice.divisors
    monkeypatch.setattr(lattice, "divisors", lambda m: true(m)[drop])
    assert _sandwich_run(monkeypatch)[:2] == (1, {name: HOLDING for name in failing})


def test_v_tuples_ignoring_the_ideal_fails_the_level_computation(monkeypatch):
    true = GroupModel.v_tuples
    monkeypatch.setattr(GroupModel, "v_tuples", lambda self, alpha, d=1: true(self, alpha))
    assert _sandwich_run(monkeypatch)[:2] == (1, {"level_computation": HOLDING})


@pytest.mark.parametrize("radical, moves_control", [(lambda m: m, False), (lambda m: 1, True)],
                         ids=["zero ideal", "unit ideal"])
def test_a_wrong_jacobson_radical_is_a_gap_of_the_sandwich_suite(radical, moves_control,
                                                                 monkeypatch):
    # No verdict changes: this is a gap, not harmless mathematics.
    # verify_unipotent_extraction reads the radical only for closures that
    # already lack a root unipotent, and no closure of a model inside the
    # hypotheses does.  The Sp4(Z/2) control has such closures, but Z/2 is a
    # field, so its radical is the zero ideal, and the unit ideal only moves
    # every one of them into the witness's radical_failures.
    _, _, clean = _sandwich_run(monkeypatch)
    monkeypatch.setattr(lattice, "jacobson_radical", radical)
    code, failing, checks = _sandwich_run(monkeypatch)
    assert (code, failing) == (0, {})
    changed = [(b["name"], b["model"]) for a, b in zip(clean, checks) if a != b]
    if not moves_control:
        assert changed == []
        return
    assert changed == [("unipotent_extraction", "Sp4(Z/2)[borel]")]
    (before,) = [a for a in clean if (a["name"], a["model"]) == changed[0]]
    (after,) = [b for b in checks if (b["name"], b["model"]) == changed[0]]
    assert after["verdict"] == before["verdict"] == "expected-exception"
    assert before["witness"]["radical_failures"] == []
    assert after["witness"]["radical_failures"] == after["witness"]["failures"] != []
