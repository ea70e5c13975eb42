"""Planted faults: each monkeypatch breaks one piece of the program, and the
check that covers it must then fail (or a guard must end the run).  One
fault is planted in a function's source, so that its own assert meets it.  A check that no fault can make fail
verifies nothing.  The faults of the exhaustive checks sit at their last
case, which a check over part of its cases would miss.  The wrong-degree
fault of the Levi conjugation check, at every case, is in test_calculus."""

import dataclasses
import functools
import inspect

import numpy as np
import pytest

from chevlat import calculus, cli, lattice, models, relroots, rootsys
from chevlat.models import GroupModel
from chevlat.rings import from_digits
from chevlat.table import matrix_keys

import conftest
from conftest import adjacent_ok, reference_adjacent_ok, reference_pairing_sweep


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
        if a == alpha:  # X_alpha(2), the last root element, in any stack of them
            g[(np.asarray(v) == 2).all(axis=-1), 0, 0] = 0
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

    def shifted_at_last(model, g, alpha, v, *inverse):
        last = (g == levis[-1]).all(axis=(-2, -1))[..., None]
        return {i: (val + last) % model.m for i, val in true(model, g, alpha, v, *inverse).items()}

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


def _default_spec(name):
    (spec,) = [spec for spec in cli.DEFAULT_MODELS if spec.build().name() == name]
    return spec


def _failing_group_records(spec):
    return {record[0] for record in _group_records(spec) if record[2] is False}


@pytest.mark.parametrize("name", ["SL3(Z/4)[(1, 1, 1)]", "Sp4(Z/3)[line]"])
def test_wrong_degrees_at_the_last_pair_fail_only_the_homogeneity_record(name, monkeypatch):
    # one degree too high at the last pair whose degree table is not empty;
    # the pairs after it have nothing to get wrong
    spec = _default_spec(name)
    assert _failing_group_records(spec) == set()
    model, true = spec.build(), calculus.cone_degrees
    roots = model.rel_roots
    pairs = [(a, b) for a in roots for b in roots if not calculus.opposed_multiples(a, b)]
    last = [pair for pair in pairs if true(model, *pair)][-1]
    monkeypatch.setattr(calculus, "cone_degrees", lambda model, a, b: {
        g: (i + 1, j) for g, (i, j) in true(model, a, b).items()} if (a, b) == last
        else true(model, a, b))
    assert _failing_group_records(spec) == {"chevalley_homogeneity"}


def test_a_simple_generator_dropped_fails_only_the_elementary_subgroup(monkeypatch, capsys):
    # without x_21 the BFS of SL3(Z/2) ends at the 24 matrices with last row
    # (0, 0, 1): Theorem EE's record fails with both counts, and the brute
    # force that needs the whole table is skipped
    spec = _default_spec("SL3(Z/2)[(1, 1, 1)]")
    clean = _group_records(spec)
    assert {record[2] for record in clean} == {True}
    true = GroupModel.simple_generator_mats
    monkeypatch.setattr(GroupModel, "simple_generator_mats", lambda self: true(self)[:-1])
    records = _group_records(spec)
    assert {record[0] for record in records if record[2] is False} == {"elementary_subgroup_full"}
    assert [r[0] for r in records] == [r[0] for r in clean if r[0] != "gauss_cell_brute_force"]
    assert {r[0]: r[4] for r in records}["elementary_subgroup_full"] == {
        "order": 24, "order_formula": 168}
    assert cli.main(["group", "--model", "SL3", "--mod", "2"]) == 1
    capsys.readouterr()


def _wrong_l_at_the_last_member(member, l):
    """A wrong Levi factor l at the last member of the main cell.  Only the
    assert of gauss_cell_factors compares u*l*v with g, so the fault can
    only end the run."""
    l[np.flatnonzero(member)[-1:], 0, 0] += 1


def test_a_wrong_gauss_factor_inside_the_elimination_ends_the_run(monkeypatch, capsys):
    # The same fault planted in the source of gauss_cell_factors, just before
    # its own assert: the assert stops the run (exit 3) at the first model's
    # identity, a one-member stack, before any record could fail.
    source = inspect.getsource(models.gauss_cell_factors)
    anchor = "    cell = u[member], l[member], v[member]\n"
    assert source.count(anchor) == 1
    namespace = {**vars(models), "_wrong_l_at_the_last_member": _wrong_l_at_the_last_member}
    exec(compile(source.replace(anchor, "    _wrong_l_at_the_last_member(member, l)\n" + anchor),
                 models.__file__, "exec"), namespace)
    mutant = namespace["gauss_cell_factors"]
    model = _default_spec("SL3(Z/4)[(1, 1, 1)]").build()
    with pytest.raises(AssertionError):
        mutant(model, np.stack(model.all_elementary_generators()))
    monkeypatch.setattr(models, "gauss_cell_factors", mutant)
    assert cli.main(["group"]) == 3
    assert capsys.readouterr().err.splitlines()[-1] == "internal error: "


def test_a_c4_long_root_pair_swapped_fails_only_its_record(monkeypatch, capsys):
    # C4 trades its long roots +-2 eps1 = +-(2, 2, 2, 1) for the vectors
    # +-(eps1 + eps2 + eps3 + eps4) = +-(1, 2, 3, 2) of the same length: 32
    # roots, every Cartan value an integer and no diagram automorphism, so
    # only reflection stability can fail
    true = rootsys.build_root_system

    def swapped(rtype):
        sys = true(rtype)
        if str(rtype) != "C4":
            return sys
        pair = {(2, 2, 2, 1), (-2, -2, -2, -1)}
        assert pair <= sys.roots
        return dataclasses.replace(sys, roots=sys.roots - pair | {(1, 2, 3, 2), (-1, -2, -3, -2)})

    assert {name for name, _, ok, _, _ in cli.roots_records() if ok is False} == set()
    monkeypatch.setattr(rootsys, "build_root_system", swapped)
    failing = [(name, witness) for name, _, ok, _, witness in cli.roots_records() if ok is False]
    assert failing == [("root_system_C4", {"roots": 32, "automorphisms": 1,
                                           "structure_primes": [2]})]
    assert cli.main(["roots"]) == 1
    capsys.readouterr()


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


def _sandwich_run(suite="sandwich"):
    """The sandwich suite (or another) on the default models, with its exit
    code and the models on which each record fails.  Each model's context is
    built by its suite, so no data cached before the fault was planted is read."""
    report, code = cli.run(cli.RunConfig(suite=suite))
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
    assert _sandwich_run()[:2] == (0, {})
    true = lattice.divisors
    monkeypatch.setattr(lattice, "divisors", lambda m: true(m)[drop])
    assert _sandwich_run()[:2] == (1, {name: HOLDING for name in failing})


def test_v_tuples_ignoring_the_ideal_fails_the_level_computation(monkeypatch):
    # planted in the source of verify_level_theorem: its in-ideal mask is the
    # one of the unit ideal, every v of V_alpha; E(R,q) keeps its own reading
    source = inspect.getsource(lattice.verify_level_theorem)
    anchor = "ctx.root_elements_in(d)"
    assert source.count(anchor) == 1
    namespace = dict(vars(lattice))
    exec(compile(source.replace(anchor, "ctx.root_elements_in(1)"), lattice.__file__, "exec"),
         namespace)
    monkeypatch.setattr(lattice, "verify_level_theorem", namespace["verify_level_theorem"])
    assert _sandwich_run()[:2] == (1, {"level_computation": HOLDING})


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
    _, _, clean = _sandwich_run()
    monkeypatch.setattr(lattice, "jacobson_radical", radical)
    code, failing, checks = _sandwich_run()
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


def test_a_probe_that_skips_its_containment_check_fails_the_sandwich_records(monkeypatch):
    # The registry settles cl(r) from a known closure K of an orbit holding
    # some [r, e] only when r lies in K.  Planted in the source of
    # orbit_closure, the probe takes the first known closure of a
    # commutator's orbit as it is, one that need not hold r: the trivial
    # group cl(1) when r commutes with an E generator.  Every model inside
    # the hypotheses then fails the records that read the orbit closures
    # (SL3(Z/4) is not over a field, so it has no simplicity record), and the
    # Sp4(Z/2) control's commutator formula, read off the same closures,
    # comes out equal, an unexpected pass.
    _, _, clean = _sandwich_run()
    source = inspect.getsource(lattice._ClosureRegistry.orbit_closure)
    anchor = "            found = stop(self._rep_commutators[:, k]) if stop is not None else None\n"
    assert source.count(anchor) == 1
    unchecked = ("            found = next((self._by_orbit[c] for c in orbits.ids.take("
                 "self._rep_commutators[:, k]).tolist() if c in self._by_orbit), None)\n")
    namespace = dict(vars(lattice))
    exec(compile(inspect.cleandoc("\n" + source.replace(anchor, unchecked)), lattice.__file__,
                 "exec"), namespace)
    monkeypatch.setattr(lattice._ClosureRegistry, "orbit_closure", namespace["orbit_closure"])
    code, failing, checks = _sandwich_run()
    over_fields = [name for name in HOLDING if not name.startswith("SL3(Z/4)")]
    assert (code, failing) == (1, {
        "sandwich_classification": HOLDING, "level_computation": HOLDING,
        "elementary_perfect": HOLDING, "unipotent_extraction": HOLDING,
        "join_compatibility": HOLDING, "central_quotient_simple": over_fields})
    moved = [(b["name"], b["model"], a["verdict"], b["verdict"]) for a, b in zip(clean, checks)
             if a["verdict"] != b["verdict"] and b["verdict"] != "fail"]
    assert moved == [("commutator_formula", "Sp4(Z/2)[borel]", "expected-exception", "info")]


def test_a_center_with_one_extra_orbit_fails_only_the_centralizer_record(monkeypatch):
    # the last orbit outside the center counted as central: the points of the
    # center subscheme no longer match, and the checks that read the center
    # only to skip its orbits (unipotent extraction, simplicity) see one
    # noncentral orbit less, which fails nowhere
    assert _sandwich_run()[:2] == (0, {})
    true = lattice.GroupContext.center

    def one_extra_orbit(ctx):
        center = true(ctx)
        mask = center.mask.copy()
        mask[np.flatnonzero(~mask)[-1]] = True
        return lattice.Subgroup(center.orbits, mask)

    monkeypatch.setattr(lattice.GroupContext, "center", one_extra_orbit)
    assert _sandwich_run()[:2] == (1, {"centralizer_is_center": HOLDING})


def test_a_join_that_skips_its_products_ends_the_run(monkeypatch, capsys):
    # Planted in the source of join, the product loop never runs, so a join
    # that is not an inclusion comes out as the mask of A cup B.  No join of
    # `chevlat all` grows, so its report does not move.  On SL2(Z/12) joins
    # do grow, and when neither subgroup holds the other |A cup B| is less
    # than |A| |B| / |A cap B|: the order certificate ends the run (exit 3).
    def report_without_timing():
        report, code = cli.run(cli.RunConfig(suite="all"))
        return {**report, "timing": None}, code

    clean = report_without_timing()
    source = inspect.getsource(lattice._ClosureRegistry.join)
    anchor = "        for lo in range(0, xs.size, chunk):\n"
    assert source.count(anchor) == 1
    namespace = dict(vars(lattice))
    exec(compile(inspect.cleandoc("\n" + source.replace(anchor, "        for lo in range(0):\n")),
                 lattice.__file__, "exec"), namespace)
    monkeypatch.setattr(lattice._ClosureRegistry, "join", namespace["join"])
    assert report_without_timing() == clean
    assert cli.main(["sandwich", "--model", "SL2", "--mod", "12"]) == 3
    assert (capsys.readouterr().err.splitlines()[-1]
            == "internal error: join of E-normal subgroups is not E-normal")


# -- the shared commutator table ----------------------------------------------

def _code(model, pair, mat):
    """The code of a matrix in the chart of the pair's cone, -1 off the chart."""
    return calculus.chart(model, calculus._pair_cone(model, *pair)).lookup(mat)


def _plant_block(monkeypatch, block):
    """Every model's commutator table with one wrong block: at the last pair,
    in the sweep's order, whose sum is a root, every commutator is the matrix
    block(model, alpha, beta), planted as its code."""
    true = calculus._commutator_table

    @functools.lru_cache(maxsize=None)
    def planted(model):
        start, codes = true(model)
        alpha, beta = [p for p in start if model.is_rel_root(calculus._vadd(*p))][-1]
        size = model.m ** (model.v_dim(alpha) + model.v_dim(beta))
        codes = codes.copy()
        codes[start[alpha, beta]:start[alpha, beta] + size] = _code(
            model, (alpha, beta), block(model, alpha, beta))
        return start, codes

    monkeypatch.setattr(calculus, "_commutator_table", planted)


def test_the_identity_in_a_commutator_block_fails_only_the_pairing_witness(monkeypatch):
    # every commutator of the pair is trivial: Lemma ABe finds no witness at
    # the pair's first u, so the sweep stops before its Lemma const, which
    # then counts one pair less; the homogeneity check reads the block too,
    # but the identity's components are all zero, which every degree allows.
    # The Sp4(Z/2) control already stops earlier, so its records do not move.
    code, failing, clean = _sandwich_run("group")
    assert (code, failing) == (0, {})
    _plant_block(monkeypatch, lambda model, a, b: model.identity())
    code, failing, checks = _sandwich_run("group")
    assert (code, failing) == (1, {"pairing_witness": HOLDING})
    moved = [(a, b) for a, b in zip(clean, checks) if a != b]
    assert {(b["name"], b["model"]) for _, b in moved} == {
        (name, model) for name in ("pairing_witness", "leading_values_generate")
        for model in HOLDING}
    assert all(b["verdict"] == "pass" and b["witness"]["checked"] == a["witness"]["checked"] - 1
               for a, b in moved if b["name"] == "leading_values_generate")


def test_a_commutator_block_in_the_ideal_2_fails_the_leading_values(monkeypatch):
    # SL3(Z/4): every commutator of the last pair is X_{alpha+beta}(2), which
    # has a witness for every u but generates only the ideal (2), and does
    # not scale with u and v
    spec = _default_spec("SL3(Z/4)[(1, 1, 1)]")
    assert _failing_group_records(spec) == set()
    _plant_block(monkeypatch, lambda model, a, b: model.x(calculus._vadd(a, b), (2,)))
    assert _failing_group_records(spec) == {"leading_values_generate", "chevalley_homogeneity"}


def _plant_commutators(monkeypatch, model, plants):
    """One model's commutator table and the reference decomposition of
    conftest, both with planted commutators: plants maps a pair (alpha, beta)
    to (u, v, mat), and every [X_alpha(u'), X_beta(v')] with u' of code u and
    v' of code v (any code where u or v is None) is then mat.  Planted in the
    source of _commutator_table, as mat's key before the keys are decoded, so
    the table decodes and checks it as it would a computed commutator."""
    m, decompose = model.m, conftest.chevalley_commutator_decompose
    every = slice(None)

    def plant(mo, start, keys):
        if mo != model:
            return keys
        for (a, b), (u, v, mat) in plants.items():
            nb = m ** mo.v_dim(b)
            block = keys[start[a, b]:start[a, b] + m ** mo.v_dim(a) * nb].reshape(-1, nb)
            block[every if u is None else u, every if v is None else v] = matrix_keys(mat, m)
        return keys

    source = inspect.getsource(calculus._commutator_table.__wrapped__)
    anchor = "    cones = [_pair_cone(model, a, b) for a, b in pairs]\n"
    assert source.count(anchor) == 1
    namespace = {**vars(calculus), "plant": plant}
    exec(compile(source.replace(anchor, "    keys = plant(model, dict(zip(pairs, starts.tolist())), "
                                "keys)\n" + anchor), calculus.__file__, "exec"), namespace)

    def planted_decompose(mo, a, u_, b, v_):
        if mo == model and (a, b) in plants:
            u, v, mat = plants[a, b]
            if u in (None, from_digits(np.array(u_), m)) and v in (
                    None, from_digits(np.array(v_), m)):
                return conftest.cone_decompose(mo, a, b, mat)
        return decompose(mo, a, u_, b, v_)

    monkeypatch.setattr(calculus, "_commutator_table", namespace["_commutator_table"])
    monkeypatch.setattr(conftest, "chevalley_commutator_decompose", planted_decompose)


def _sweep_pairs(model):
    return [p for p in calculus._commutator_table(model)[0] if model.is_rel_root(calculus._vadd(*p))]


def _pairing_records(spec):
    """The (ok, checked) of the pairing_witness and leading_values_generate records."""
    return [(r[2], r[4]["checked"]) for r in _group_records(spec)
            if r[0] in ("pairing_witness", "leading_values_generate")]


OFF_CHART = np.zeros((4, 4), dtype=np.int64)  # in no chart, code -1: every chart holds unipotents


def _first_generator_row(model, pair):
    """(u, v) of [X_alpha(e_0), X_beta(v)], v of code 1: a commutator Lemma ABe reads."""
    return model.m ** (model.v_dim(pair[0]) - 1), 1


def _assert_ends_the_run(capsys, message):
    """The group suite on Sp4(Z/3) line ends with exit 3 and this message."""
    assert cli.main(["group", "--model", "Sp4", "--mod", "3", "--blocks", "line"]) == 3
    assert capsys.readouterr().err.splitlines()[-1] == f"internal error: {message}"


def test_a_missing_witness_at_a_later_u_stops_the_sweep_inside_its_pair(monkeypatch):
    # SL3(Z/3): the fifth pair's commutators with the last u = 2 of V_beta are
    # trivial, so the sweep stops at the second u of that pair: 4 pairs of 2 u,
    # plus 1, and Lemma const counts the 4 pairs before it.  The commutators
    # with u = 1 keep their values, which u = 2 no longer scales, so the
    # homogeneity check fails too
    spec = _default_spec("SL3(Z/3)[(1, 1, 1)]")
    model = spec.build()
    assert _pairing_records(spec) == [(True, 24), (True, 12)]
    _plant_commutators(monkeypatch, model, {_sweep_pairs(model)[4]: (None, 2, model.identity())})
    assert calculus.pairing_sweep(model) == reference_pairing_sweep(model) == (False, 9, True, 4)
    assert _failing_group_records(spec) == {"pairing_witness", "chevalley_homogeneity"}
    assert _pairing_records(spec) == [(False, 9), (True, 4)]


def test_a_stop_inside_the_fifth_pair_closes_only_the_four_before_it(monkeypatch):
    # the planted stop above: Lemma const's additive closure runs on the 4
    # pairs before the stop, not on all 12, and the sweep equals the reference
    model, rows = _default_spec("SL3(Z/3)[(1, 1, 1)]").build(), []
    _plant_commutators(monkeypatch, model, {_sweep_pairs(model)[4]: (None, 2, model.identity())})
    true = calculus._additive_closure
    monkeypatch.setattr(calculus, "_additive_closure",
                        lambda gens, m, d: (rows.append(len(gens)), true(gens, m, d))[1])
    assert calculus.pairing_sweep(model) == reference_pairing_sweep(model) == (False, 9, True, 4)
    assert rows == [4] and len(_sweep_pairs(model)) == 12


def test_a_commutator_off_the_chart_past_the_stop_leaves_the_sweep(monkeypatch, capsys):
    # Sp4(Z/3) line: trivial commutators at the first of its two pairs stop
    # the sweep there, so a commutator off the chart at the second pair, in a
    # row Lemma ABe would read, is never reached by the pair-by-pair reference.
    # The commutator table checks every commutator where it is built, so the
    # sweep, and the group suite before it, end on the table's error
    spec = _default_spec("Sp4(Z/3)[line]")
    model = spec.build()
    first, second = _sweep_pairs(model)
    off = {second: (*_first_generator_row(model, second), OFF_CHART)}
    with monkeypatch.context() as mp:
        _plant_commutators(mp, model, {first: (None, None, model.identity())})
        alone = _pairing_records(spec)
    assert alone == [(False, 0), (True, 0)]
    _plant_commutators(monkeypatch, model, {first: (None, None, model.identity()), **off})
    assert reference_pairing_sweep(model) == (False, 0, True, 0)
    with pytest.raises(RuntimeError, match="commutator left the unipotent group of its cone"):
        calculus.pairing_sweep(model)
    _assert_ends_the_run(capsys, "commutator left the unipotent group of its cone")


def test_a_commutator_off_the_chart_before_the_stop_ends_the_run(monkeypatch, capsys):
    # Sp4(Z/3) line: a commutator off the chart at the first pair, in a row
    # Lemma ABe reads, and trivial commutators at the second: the reference
    # reads the first pair's block before it stops, so it raises.  The sweep,
    # and the group suite before it, end on the commutator table's error
    model = _default_spec("Sp4(Z/3)[line]").build()
    first, second = _sweep_pairs(model)
    off = {first: (*_first_generator_row(model, first), OFF_CHART)}
    _plant_commutators(monkeypatch, model, {second: (None, None, model.identity()), **off})
    with pytest.raises(RuntimeError, match="commutator left the expected unipotent group"):
        reference_pairing_sweep(model)
    with pytest.raises(RuntimeError, match="commutator left the unipotent group of its cone"):
        calculus.pairing_sweep(model)
    _assert_ends_the_run(capsys, "commutator left the unipotent group of its cone")


@pytest.mark.parametrize("name", ["SL3(Z/4)[(1, 1, 1)]", "Sp4(Z/3)[line]"])
def test_a_wrong_commutator_at_the_last_case_fails_only_the_homogeneity_record(name, monkeypatch):
    # at the last (u, v) of the last pair whose commutators move, the next
    # element of the pair's chart: a case a sampled check need not reach.
    # Lemma ABe reads only the rows of the generators e_i, and the other
    # values Lemma const reads still generate
    spec = _default_spec(name)
    assert _failing_group_records(spec) == set()
    model = spec.build()
    start, codes = calculus._commutator_table(model)
    sizes = {(a, b): model.m ** (model.v_dim(a) + model.v_dim(b)) for a, b in start}
    pair = [p for p in start if codes[start[p]:start[p] + sizes[p]].any()][-1]
    ch, last = calculus.chart(model, calculus._pair_cone(model, *pair)), start[pair] + sizes[pair] - 1
    u, v = divmod(sizes[pair] - 1, model.m ** model.v_dim(pair[1]))
    _plant_commutators(monkeypatch, model, {pair: (u, v, ch.mats[(codes[last] + 1) % len(ch)])})
    assert _failing_group_records(spec) == {"chevalley_homogeneity"}
