"""Planted faults: each monkeypatch breaks one piece of the program, and the
check that covers it must then fail.  A check that no fault can make fail
verifies nothing.  The faults of the exhaustive checks sit at their last
case, which a check over part of its cases would miss.  The wrong-degree
fault of the Levi conjugation check, at every case, is in test_calculus."""

import numpy as np
import pytest

from chevlat import calculus, cli, relroots
from chevlat.models import GroupModel
from chevlat.rings import ZmRing

from conftest import adjacent_ok, reference_adjacent_ok


def sl(n, m):
    return GroupModel("SL", n, ZmRing(m), (1,) * n)


def sp(m, blocks="line"):
    return GroupModel("Sp", 4, ZmRing(m), blocks)


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
