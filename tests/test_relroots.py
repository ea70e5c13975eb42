import dataclasses
import functools
import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

from chevlat import relroots, rootsys
from chevlat.relroots import RelativeDatum, build_relative, fold
from chevlat.rootsys import RootSystemType, build_root_system

from conftest import (
    adjacent_ok, check_adjacent_simple, check_fiber_additivity, project, reference_adjacent_ok,
    relative_simple_roots, sigma_masks, sigma_properties, sigma_set, unfold,
)


def sys_of(family, rank):
    return build_root_system(RootSystemType(family, rank))


def closed_group(rank, gens):
    out = {tuple(range(rank))} | set(gens)
    while True:
        new = {rootsys.perm_compose(a, b) for a in out for b in out}
        if new <= out:
            return tuple(sorted(out))
        out |= new


REV3 = (2, 1, 0)


# -- tuple-level reference for check_datum --------------------------------------
# Every gamma, adjacency, fiber and sigma check on Python tuples, straight
# from the definitions, with no use of the relative index.

def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _neg(a):
    return tuple(-x for x in a)


def ref_fiber_additivity(rel, a, b):
    fa, fb = rel.fiber(a), rel.fiber(b)
    return all(
        any(tuple(m - x for m, x in zip(mu, m1)) in fb for m1 in fa)
        for mu in rel.fiber(_add(a, b))
    )


def ref_adjacent_simple(rel, a, b):
    j = 1
    while tuple(j * x for x in b) in rel.rel_roots:
        if _add(a, tuple(j * x for x in b)) not in rel.rel_roots:
            return False
        j += 1
    return True


def _ref_sigma_direct(rel, b, mode):
    base = rel.datum.base
    fiber_sum = tuple(sum(col) for col in zip(*rel.fiber(b)))
    form = [sum(g * f for g, f in zip(row, fiber_sum)) for row in base.gram2]
    out = set()
    for a in rel.rel_roots:
        vals = [sum(x * f for x, f in zip(mu, form)) >= 0 for mu in rel.fiber(a)]
        if (all(vals) if mode == "all" else any(vals)):
            out.add(a)
    return frozenset(out)


def ref_sigma_set(rel, b, mode="all"):
    base = rel.datum.base
    if base.is_simply_laced():
        return _ref_sigma_direct(rel, b, mode)
    cover, cover_gamma, coord_perm = unfold(base)
    fold_orbits = relroots._gamma_orbits(frozenset(range(cover.rank)), cover_gamma)
    j2 = frozenset(
        i for k, orb in enumerate(fold_orbits) if coord_perm[k] in rel.datum.J for i in orb
    )
    rel2 = build_relative(RelativeDatum(cover, j2, cover_gamma))
    sorted_j = sorted(rel.datum.J)
    as_perm = tuple(
        sorted_j.index(coord_perm[next(i for i, o in enumerate(fold_orbits) if orb[0] in o)])
        for orb in rel2.orbits
    )
    assert {rootsys.perm_on_root(as_perm, v) for v in rel2.rel_roots} == rel.rel_roots
    b2 = rootsys.perm_on_root(rootsys.perm_inverse(as_perm), b)
    return frozenset(rootsys.perm_on_root(as_perm, v) for v in _ref_sigma_direct(rel2, b2, mode))


def ref_sigma_properties(rel, b, sigma):
    roots = rel.rel_roots
    required = {a for a in roots if _add(a, b) not in roots and any(_add(a, b))}
    return {
        "additively_closed": all(
            _add(x, y) in sigma for x in sigma for y in sigma if _add(x, y) in roots
        ),
        "covers_with_negation": sigma | {_neg(v) for v in sigma} == roots,
        "proper": sigma != roots,
        "contains_non_addable": required <= sigma,
    }


def ref_check_datum(rel):
    counts = dict.fromkeys((
        "adjacent_checked", "adjacent_failed", "fiber_checked", "fiber_failed",
        "sigma_checked", "sigma_failed", "sigma_forms_checked", "sigma_forms_failed",
        "gamma_invariance_failed",
    ), 0)
    base = rel.datum.base
    for p in rel.datum.gamma:
        for mu in base.roots:
            if project(rel, rootsys.perm_on_root(p, mu)) != project(rel, mu):
                counts["gamma_invariance_failed"] += 1
    simples = {
        a for a in (project(rel, e) for i, e in enumerate(base.simple_roots) if i in rel.datum.J)
        if any(a)
    }
    for a in simples:
        for b in simples:
            if a != b and _add(a, b) in rel.rel_roots:
                counts["adjacent_checked"] += 1
                counts["adjacent_failed"] += not ref_adjacent_simple(rel, a, b)
    for a in rel.rel_roots:
        for b in rel.rel_roots:
            if _add(a, b) in rel.rel_roots:
                counts["fiber_checked"] += 1
                counts["fiber_failed"] += not ref_fiber_additivity(rel, a, b)
    for b in simples:
        sigma = ref_sigma_set(rel, b)
        counts["sigma_checked"] += 1
        counts["sigma_failed"] += not all(ref_sigma_properties(rel, b, sigma).values())
        if base.is_simply_laced():
            counts["sigma_forms_checked"] += 1
            counts["sigma_forms_failed"] += sigma != ref_sigma_set(rel, b, "some")
    return counts


def broken_b3():
    """B3 with the roots +-(a2 + a3) taken out, over J = {a3}: the root
    a2 + 2a3 over 2 no longer splits as a root over 1 plus a root, while
    a1 + a2 + 2a3 = a3 + (a1 + a2 + a3) still does."""
    b3 = sys_of("B", 3)
    bad = dataclasses.replace(b3, roots=b3.roots - {(0, 1, 1), (0, -1, -1)})
    return build_relative(RelativeDatum(bad, frozenset({2}), ()))


def test_a2_single_node():
    rel = build_relative(RelativeDatum(sys_of("A", 2), frozenset({0}), ()))
    assert rel.rel_roots == {(1,), (-1,)}
    assert rel.fiber((1,)) == {(1, 0), (1, 1)}
    assert relative_simple_roots(rel) == {(1,)}


def test_a3_bc1():
    rel = build_relative(RelativeDatum(sys_of("A", 3), frozenset({0, 2}), (REV3,)))
    assert rel.rel_roots == {(1,), (2,), (-1,), (-2,)}
    assert rel.fiber((1,)) == {(1, 0, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1)}
    assert rel.fiber((2,)) == {(1, 1, 1)}
    assert relative_simple_roots(rel) == {(1,)}


def test_identity_projection():
    c2 = sys_of("C", 2)
    rel = build_relative(RelativeDatum(c2, frozenset({0, 1}), ()))
    assert rel.rel_roots == c2.roots
    assert all(len(rel.fiber(a)) == 1 for a in rel.rel_roots)
    assert relative_simple_roots(rel) == {(1, 0), (0, 1)}


def test_projection_is_linear_and_gamma_invariant():
    rel = build_relative(RelativeDatum(sys_of("A", 3), frozenset({0, 2}), (REV3,)))
    base = rel.datum.base
    for mu in base.roots:
        for nu in base.roots:
            s = tuple(x + y for x, y in zip(mu, nu))
            assert project(rel, s) == tuple(
                x + y for x, y in zip(project(rel, mu), project(rel, nu))
            )
        for p in rel.datum.gamma:
            assert project(rel, rootsys.perm_on_root(p, mu)) == project(rel, mu)


def test_fibers_partition_roots():
    rel = build_relative(RelativeDatum(sys_of("D", 4), frozenset({0, 2, 3}), ()))
    base = rel.datum.base
    covered = set()
    for a in rel.rel_roots:
        assert not (rel.fiber(a) & covered)
        covered |= rel.fiber(a)
    zero_fiber = {mu for mu in base.roots if not any(project(rel, mu))}
    assert covered | zero_fiber == base.roots


def test_j_not_invariant_rejected():
    with pytest.raises(ValueError):
        RelativeDatum(sys_of("A", 3), frozenset({0}), (REV3,))


def test_gamma_not_a_group_rejected():
    bad = (1, 0, 2)  # swaps the A3 ends? no: it swaps nodes 0,1, not a diagram symmetry
    with pytest.raises(ValueError):
        RelativeDatum(sys_of("A", 3), frozenset({0, 1, 2}), (bad,))


def test_fiber_additivity_bc1():
    rel = build_relative(RelativeDatum(sys_of("A", 3), frozenset({0, 2}), (REV3,)))
    assert check_fiber_additivity(rel, (1,), (1,))


def test_fiber_additivity_singleton_fibers():
    rel = build_relative(RelativeDatum(sys_of("A", 2), frozenset({0, 1}), ()))
    assert check_fiber_additivity(rel, (1, 0), (0, 1))


def test_fiber_additivity_vacuous_rank_one():
    rel = build_relative(RelativeDatum(sys_of("A", 2), frozenset({0}), ()))
    with pytest.raises(ValueError):
        check_fiber_additivity(rel, (1,), (1,))  # (2,) is not a root here


def test_adjacent_simple_c3():
    rel = build_relative(RelativeDatum(sys_of("C", 3), frozenset({0, 1}), ()))
    simples = relative_simple_roots(rel)
    for a in simples:
        for b in simples:
            if a != b and tuple(x + y for x, y in zip(a, b)) in rel.rel_roots:
                assert check_adjacent_simple(rel, a, b)


def test_adjacent_simple_a4_reversal_bc2():
    # folding A4 by the reversal gives BC2, where a+2b is a genuine case
    rev = (3, 2, 1, 0)
    rel = build_relative(RelativeDatum(sys_of("A", 4), frozenset({0, 1, 2, 3}), (rev,)))
    assert (0, 2) in rel.rel_roots and (1, 2) in rel.rel_roots  # 2b and a+2b
    simples = sorted(relative_simple_roots(rel))
    assert len(simples) == 2
    found = False
    for a in simples:
        for b in simples:
            if a != b and tuple(x + y for x, y in zip(a, b)) in rel.rel_roots:
                assert check_adjacent_simple(rel, a, b)
                found = True
    assert found


def test_adjacent_walk_matches_lookup_reference():
    # the addition-table walk against one lookup per multiple, for every simple
    # a and every relative root b of the rank <= 5 sweep: 10,666 pairs, most of
    # them failing, as a + b need not be a root
    outcomes = set()
    for datum in relroots.sweep_data(5):
        idx = build_relative(datum).index
        for ia in idx.simple:
            for ib in range(len(idx.coords)):
                want = reference_adjacent_ok(idx, ia, ib)
                assert adjacent_ok(idx, ia, ib) == want, (datum, ia, ib)
                outcomes.add(want)
    assert outcomes == {True, False}


def test_adjacent_simple_vacuous_in_rank_one():
    rev = (3, 2, 1, 0)
    rel = build_relative(RelativeDatum(sys_of("A", 4), frozenset({0, 3}), (rev,)))
    assert relative_simple_roots(rel) == {(1,)}


def test_sigma_a2_by_hand():
    a2 = sys_of("A", 2)
    rel = build_relative(RelativeDatum(a2, frozenset({0, 1}), ()))
    # oracle: pairing of each of the six roots against alpha_1, by hand
    assert sigma_set(rel, (1, 0)) == {(1, 0), (1, 1), (0, -1)}
    assert sigma_set(rel, (0, 1)) == {(0, 1), (1, 1), (-1, 0)}


def test_sigma_bc1():
    rel = build_relative(RelativeDatum(sys_of("A", 3), frozenset({0, 2}), (REV3,)))
    assert sigma_set(rel, (1,)) == {(1,), (2,)}


def test_sigma_forms_agree_simply_laced():
    for datum in relroots.sweep_data(4):
        if not datum.base.is_simply_laced():
            continue
        rel = build_relative(datum)
        for b in relative_simple_roots(rel):
            assert sigma_set(rel, b, "all") == sigma_set(rel, b, "some")


def test_sigma_forms_differ_on_a_straddling_fiber():
    # A2 with 2(a1, a2) = -3 over J = {0}: the fiber of b pairs with b's
    # summed fiber to both signs, so "some" holds everywhere and "all" nowhere
    a2 = sys_of("A", 2)
    bad = dataclasses.replace(a2, gram2=((2, -3), (-3, 2)))
    rel = build_relative(RelativeDatum(bad, frozenset({0}), ()))
    every, some = sigma_masks(rel)
    assert every.tolist() == [[False, False]] and some.tolist() == [[True, True]]
    assert relroots.check_datum(rel)["sigma_forms_failed"] == 1


def test_sigma_properties_hold_rank4():
    for datum in relroots.sweep_data(4):
        rel = build_relative(datum)
        for b in relative_simple_roots(rel):
            props = sigma_properties(rel, b)
            assert all(props.values()), (datum.base.rtype, sorted(datum.J), b, props)


def test_sigma_checks_match_the_reference_on_every_subset():
    # every property, failing ones included, on every subset of the roots of
    # A2 and of BC1 (A3 folded by the reversal)
    for rel in (build_relative(RelativeDatum(sys_of("A", 2), frozenset({0, 1}), ())),
                build_relative(RelativeDatum(sys_of("A", 3), frozenset({0, 2}), (REV3,)))):
        roots = sorted(rel.rel_roots)
        outcomes = set()
        for b in relative_simple_roots(rel):
            for size in range(len(roots) + 1):
                for sigma in map(frozenset, itertools.combinations(roots, size)):
                    got = sigma_properties(rel, b, sigma)
                    assert got == ref_sigma_properties(rel, b, sigma), (b, sorted(sigma))
                    outcomes |= set(got.items())
        assert len(outcomes) == 8  # each property both holds and fails


def test_sigma_rejects_non_simple():
    rel = build_relative(RelativeDatum(sys_of("A", 2), frozenset({0, 1}), ()))
    with pytest.raises(ValueError):
        sigma_set(rel, (1, 1))


@pytest.mark.parametrize(
    "base,target,gen",
    [
        (("A", 3), ("C", 2), (2, 1, 0)),
        (("A", 5), ("C", 3), (4, 3, 2, 1, 0)),
        (("A", 7), ("C", 4), (6, 5, 4, 3, 2, 1, 0)),
        (("D", 4), ("G", 2), (2, 1, 3, 0)),
        (("D", 5), ("B", 4), (0, 1, 2, 4, 3)),
        (("D", 6), ("B", 5), (0, 1, 2, 3, 5, 4)),
        (("E", 6), ("F", 4), (5, 1, 4, 3, 2, 0)),
    ],
)
def test_foldings(base, target, gen):
    bsys = sys_of(*base)
    gamma = closed_group(bsys.rank, [gen])
    rel = fold(bsys, gamma)
    tsys = sys_of(*target)
    perm = relroots.match_coordinates(rel.rel_roots, tsys)
    assert perm is not None
    assert len(rel.rel_roots) == len(tsys.roots)


def test_fold_trivial_gamma_is_identity():
    a2 = sys_of("A", 2)
    rel = fold(a2, ())
    assert rel.rel_roots == a2.roots


def test_fold_rejects_multiply_laced():
    with pytest.raises(ValueError):
        fold(sys_of("C", 2), ())


def test_unfold_consistency():
    for family, rank in [("B", 2), ("B", 3), ("C", 2), ("C", 3), ("F", 4), ("G", 2)]:
        sys = sys_of(family, rank)
        cover, gamma, perm = unfold(sys)
        rel = fold(cover, gamma)
        mapped = {rootsys.perm_on_root(perm, v) for v in rel.rel_roots}
        assert mapped == sys.roots


def test_sweep_counts_zero_failures_rank4():
    totals = {}
    for datum in relroots.sweep_data(4):
        rel = build_relative(datum)
        for k, v in relroots.check_datum(rel).items():
            totals[k] = totals.get(k, 0) + v
    assert totals["adjacent_failed"] == 0
    assert totals["fiber_failed"] == 0
    assert totals["sigma_failed"] == 0
    assert totals["sigma_forms_failed"] == 0
    assert totals["gamma_invariance_failed"] == 0
    assert totals["fiber_checked"] > 1000


def test_sweep_totals_pinned_exactly():
    totals = relroots.sweep_totals(5)
    assert totals == {
        "adjacent_checked": 736, "adjacent_failed": 0,
        "fiber_checked": 25800, "fiber_failed": 0,
        "sigma_checked": 678, "sigma_failed": 0,
        "sigma_forms_checked": 386, "sigma_forms_failed": 0,
        "gamma_invariance_failed": 0,
    }
    assert all(type(v) is int for v in totals.values())


def test_check_datum_matches_tuple_reference():
    # all 344 data, the B5 -> D6 and C5 -> A9 cover paths among them
    data = relroots.sweep_data(5)
    assert len(data) == 344
    assert {d.base.rtype for d in data} >= {RootSystemType("B", 5), RootSystemType("C", 5)}
    # the reversal-folded E6 data: 2^4 subsets of the orbits {1,6}, {3,5}, {2}, {4}
    assert sum(d.base.rtype == RootSystemType("E", 6) for d in data) == 16
    for datum in data:
        rel = build_relative(datum)
        got = relroots.check_datum(rel)
        assert got == reference_counts(datum), (datum.base.rtype, sorted(datum.J), datum.gamma)
        assert all(type(v) is int for v in got.values())


@functools.lru_cache(maxsize=None)
def reference_counts(datum):
    return ref_check_datum(build_relative(datum))


def by_base(data):
    stacks = {}
    for datum in data:
        stacks.setdefault(datum.base, []).append(datum)
    return list(stacks.values())


def test_each_base_as_one_stack_matches_tuple_reference():
    # padding, mixed relative ranks (J = {} to the full set), the B5 -> D6 and
    # C5 -> A9 covers and the 16 E6 reversal data, each base in one stack
    stacks = by_base(relroots.sweep_data(5))
    assert len(stacks) == 19
    for data in stacks:
        rels = [build_relative(datum) for datum in data]
        assert len({rel.rank for rel in rels}) > 1
        got = relroots.check_datum(rels)
        for datum, counts in zip(data, got):
            assert counts == reference_counts(datum), (datum.base.rtype, sorted(datum.J))
        # a stack numbers each datum's roots as its own RelativeIndex does
        st = relroots._Stack(rels)
        for d, rel in enumerate(rels):
            label = rel.index.label
            assert st.label[d].tolist() == np.where(label >= 0, label + st.start[d], -1).tolist()


def test_sweep_makes_one_stacked_call_per_base(monkeypatch):
    calls = []
    true = relroots._Stack

    def counted(rels):
        calls.append(rels)
        return true(rels)

    monkeypatch.setattr(relroots, "_Stack", counted)
    relroots.sweep_totals(5)
    assert len(calls) == len({rels[0].datum.base for rels in calls}) == 19
    assert sum(map(len, calls)) == 344
    assert all(len({rel.datum.base for rel in rels}) == 1 for rels in calls)


def test_stacked_keys_refuse_an_overflowing_composite():
    # 2**40 data of base-17 keys of 6 coordinates (E6's reversal data have
    # bound 8) need 2**40 * 17**6 > 2**63 keys; the guard names the base
    # before any array is made
    with pytest.raises(ValueError, match="E6: 1099511627776 stacked data of base-17 keys"):
        relroots._key_space("E6", 6, 8, 2 ** 40)
    weights, span, origin = relroots._key_space("E6", 6, 8, 16)
    assert span == 17 ** 6 and weights.tolist() == [17 ** k for k in range(5, -1, -1)]
    assert origin.tolist() == [d * span + 8 * sum(weights.tolist()) for d in range(16)]


def test_split_table_catches_a_partial_fiber_failure():
    rel = broken_b3()
    assert rel.fiber((2,)) == {(0, 1, 2), (1, 1, 2), (1, 2, 2)}
    assert not check_fiber_additivity(rel, (1,), (1,))
    assert not ref_fiber_additivity(rel, (1,), (1,))
    counts = relroots.check_datum(rel)
    assert counts["fiber_failed"] > 0
    assert counts == ref_check_datum(rel)


def test_a_modified_base_is_stacked_apart(monkeypatch):
    # the broken B3 has the type of the real B3 but other roots, so one
    # check_datum call over both checks it in a stack of its own
    stacks = []
    true = relroots._Stack

    def counted(rels):
        stacks.append(rels)
        return true(rels)

    monkeypatch.setattr(relroots, "_Stack", counted)
    real = [build_relative(d) for d in relroots.sweep_data(3)
            if d.base.rtype == RootSystemType("B", 3)]
    rels = [*real[:4], broken_b3(), *real[4:]]
    got = relroots.check_datum(rels)
    assert [len(s) for s in stacks] == [8, 1] and stacks[1][0] is rels[4]
    assert got == [ref_check_datum(rel) for rel in rels]
    assert got[4]["fiber_failed"] > 0


def test_a_modified_base_gets_its_own_tables():
    # the real B3's tables are built and cached first; the broken copy has the
    # same type but other roots, so it must not read them
    for datum in relroots.sweep_data(3):
        if datum.base.rtype == RootSystemType("B", 3):
            relroots.check_datum(build_relative(datum))
    rel = broken_b3()
    counts = relroots.check_datum(rel)
    assert counts["fiber_failed"] > 0
    assert counts == ref_check_datum(rel)


def test_relroots_suite_does_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call (tens of ms cold); the
    # sweep sorts and masks instead, so a fresh relroots run never loads it
    code = ("import sys\n"
            "from chevlat import cli\n"
            f"assert cli.main(['relroots', '--out', {str(tmp_path / 'r.json')!r}]) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"
