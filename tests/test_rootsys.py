import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevlat import cli, rootsys
from chevlat.rootsys import RootSystemType, build_root_system


ALL_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 8),
    ("B", 2), ("B", 3), ("B", 5), ("C", 2), ("C", 3), ("C", 5),
    ("D", 3), ("D", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8),
    ("F", 4), ("G", 2),
]


# Tuple-level references for the integer Gram pairing, the Cartan integers,
# reflections and the highest root, read straight off `gram2`.
def pairing2(sys, u, v):
    return sum(ui * g * vj for ui, row in zip(u, sys.gram2) for g, vj in zip(row, v))


def cartan_int(sys, u, v):
    c, rem = divmod(2 * pairing2(sys, u, v), pairing2(sys, v, v))
    assert rem == 0, (u, v)
    return c


def reflect(sys, u, beta):
    c = cartan_int(sys, u, beta)
    return tuple(ui - c * bi for ui, bi in zip(u, beta))


def highest_root(sys):
    return max((v for v in sys.roots if rootsys.is_positive(v)), key=lambda v: (sum(v), v))


def classical_count(family, rank):
    # independent of the library's own table
    return {
        "A": rank * (rank + 1),
        "B": 2 * rank * rank,
        "C": 2 * rank * rank,
        "D": 2 * rank * (rank - 1),
        "E": {6: 72, 7: 126, 8: 240}[rank] if family == "E" else None,
        "F": 48,
        "G": 12,
    }[family]


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_root_counts(family, rank):
    sys = build_root_system(RootSystemType(family, rank))
    assert len(sys.roots) == classical_count(family, rank)


def test_a2_roots_exact():
    sys = build_root_system(RootSystemType("A", 2))
    pos = {(1, 0), (0, 1), (1, 1)}
    assert sys.roots == pos | {(-a, -b) for a, b in pos}


def test_c2_roots_exact():
    # closure of the simple roots under s1, s2 with Cartan [[2,-1],[-2,2]],
    # worked out by hand: s2(a1) = a1+a2, s1(a2) = 2a1+a2
    sys = build_root_system(RootSystemType("C", 2))
    pos = {(1, 0), (0, 1), (1, 1), (2, 1)}
    assert sys.roots == pos | {(-a, -b) for a, b in pos}
    assert [list(r) for r in sys.cartan] == [[2, -1], [-2, 2]]


def test_g2_roots_exact():
    sys = build_root_system(RootSystemType("G", 2))
    pos = {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}
    assert sys.roots == pos | {(-a, -b) for a, b in pos}
    assert highest_root(sys) == (3, 2)


@pytest.mark.parametrize("family,rank", [("A", 3), ("C", 2), ("G", 2), ("D", 4), ("F", 4)])
def test_reflection_stability(family, rank):
    sys = build_root_system(RootSystemType(family, rank))
    for a in sys.roots:
        for b in sys.roots:
            assert reflect(sys, a, b) in sys.roots


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_cartan_integers_bounded(family, rank):
    sys = build_root_system(RootSystemType(family, rank))
    roots = sorted(sys.roots)
    for a in roots[: min(len(roots), 40)]:
        for b in roots:
            assert cartan_int(sys, a, b) in {-3, -2, -1, 0, 1, 2, 3}


@pytest.mark.parametrize("family,rank", [("A", 2), ("C", 2), ("G", 2), ("B", 3)])
def test_root_strings_unbroken(family, rank):
    sys = build_root_system(RootSystemType(family, rank))
    for a in sys.roots:
        for b in sys.roots:
            if a == b or a == tuple(-x for x in b):
                continue
            ks = [
                k for k in range(-5, 6)
                if tuple(x + k * y for x, y in zip(b, a)) in sys.roots
            ]
            assert ks == list(range(min(ks), max(ks) + 1))
            assert len(ks) <= 4


def root_sum(sys, a, b):
    """a + b through the index's addition table, None if it is not a root."""
    idx = sys.index
    i, j = idx.lookup(np.array([a, b]))
    assert i >= 0 and j >= 0, (a, b)
    s = idx.add[i, j]
    return None if s < 0 else tuple(idx.coords[s].tolist())


def test_root_sum_examples():
    a2 = build_root_system(RootSystemType("A", 2))
    assert root_sum(a2, (1, 0), (0, 1)) == (1, 1)
    assert root_sum(a2, (1, 0), (1, 0)) is None
    c2 = build_root_system(RootSystemType("C", 2))
    assert root_sum(c2, (1, 0), (1, 1)) == (2, 1)
    # in the key digit range but not a root, and outside the digit range
    assert a2.index.lookup(np.array([[5, 5], [7, 0], [0, -7]])).tolist() == [-1, -1, -1]


@settings(max_examples=60)
@given(st.sampled_from([("A", 2), ("C", 2), ("G", 2), ("A", 3)]), st.data())
def test_root_sum_sign_antisymmetric(rtype, data):
    sys = build_root_system(RootSystemType(*rtype))
    roots = sorted(sys.roots)
    a = data.draw(st.sampled_from(roots))
    b = data.draw(st.sampled_from(roots))
    s = root_sum(sys, a, b)
    neg = root_sum(sys, tuple(-x for x in a), tuple(-x for x in b))
    if s is None:
        assert neg is None
    else:
        assert root_sum(sys, b, a) == s
        assert neg == tuple(-x for x in s)


def test_index_tables_match_tuples():
    for family, rank in cli.STANDARD_TYPES:
        sys = build_root_system(RootSystemType(family, rank))
        idx = sys.index
        roots = [tuple(v) for v in idx.coords.tolist()]
        assert roots == sorted(sys.roots)
        assert (np.diff(idx.keys) > 0).all()
        assert idx.lookup(idx.coords).tolist() == list(range(len(roots)))
        for i, a in enumerate(roots):
            assert roots[idx.neg[i]] == tuple(-x for x in a)
            for j, b in enumerate(roots):
                s = tuple(x + y for x, y in zip(a, b))
                assert idx.add[i, j] == (roots.index(s) if s in sys.roots else -1)


def test_index_guards_name_the_system():
    a2 = build_root_system(RootSystemType("A", 2))
    bad = dataclasses.replace(a2, roots=a2.roots | {(7, 0)})
    with pytest.raises(ValueError, match=r"A2: coordinate 7 outside the key digit range"):
        bad.index
    with pytest.raises(ValueError, match=r"wide: base-13 keys of 18 coordinates could pass 2\*\*63"):
        rootsys.VectorIndex("wide", [(0,) * 18], 18, rootsys.COEFF_BOUND)


def test_index_sums_outside_the_digit_range_are_not_members():
    # with bound 1 (base 3), (0, 1) + (0, 1) = (0, 2) leaves the digit range,
    # and its key, read as base-3 digits (1, 3), is the key of (1, -1)
    idx = rootsys.VectorIndex("x", [(0, 1), (1, -1), (0, 1)], 2, 1)
    assert idx.coords.tolist() == [[0, 1], [1, -1]]
    assert idx.add.tolist() == [[-1, -1], [-1, -1]]
    assert idx.neg.tolist() == [-1, -1]
    assert idx.lookup(np.array([[0, 2], [1, -1], [0, 1]])).tolist() == [-1, 1, 0]


def reference_root_system_verdict(sys):
    """check_root_system's verdict from tuples: the count, every reflection
    by `reflect`, and every automorphism moving roots to roots and keeping
    the pairing with the simple roots."""
    stable = all(reflect(sys, a, b) in sys.roots for a in sys.roots for b in sys.roots)
    preserve = all(
        rootsys.perm_on_root(p, a) in sys.roots and all(
            pairing2(sys, rootsys.perm_on_root(p, a), rootsys.perm_on_root(p, b))
            == pairing2(sys, a, b) for b in sys.simple_roots)
        for p in rootsys.diagram_automorphisms(sys) for a in sys.roots)
    return len(sys.roots) == classical_count(sys.rtype.family, sys.rtype.rank) and stable and preserve


@pytest.mark.parametrize("family,rank", cli.STANDARD_TYPES)
def test_check_root_system_matches_reference(family, rank):
    sys = build_root_system(RootSystemType(family, rank))
    ok, witness = rootsys.check_root_system(sys)
    assert ok == reference_root_system_verdict(sys) is True
    assert witness == {"roots": classical_count(family, rank),
                       "automorphisms": len(rootsys.diagram_automorphisms(sys)),
                       "structure_primes": sorted(rootsys.structure_constant_primes(sys))}


def test_check_root_system_fails_without_a_root_pair():
    # A2 without +-(a1 + a2): s_a1(a2) = a1 + a2 leaves the set
    a2 = build_root_system(RootSystemType("A", 2))
    bad = dataclasses.replace(a2, roots=a2.roots - {(1, 1), (-1, -1)})
    ok, witness = rootsys.check_root_system(bad)
    assert ok == reference_root_system_verdict(bad) is False
    assert witness["roots"] == 4


def test_suite_roots_rejects_non_integral_cartan(monkeypatch):
    # 2(a1, a2) = -1 against 2(a2, a2) = 4 makes <a1, a2^vee> = -1/2
    a2 = build_root_system(RootSystemType("A", 2))
    bad = dataclasses.replace(a2, gram2=((2, -1), (-1, 4)))
    monkeypatch.setattr(cli, "STANDARD_TYPES", (("A", 2),))
    monkeypatch.setattr(rootsys, "build_root_system", lambda rtype: bad)
    with pytest.raises(ValueError, match="A2: a Cartan value"):
        cli.suite_roots(cli.Recorder())


def test_structure_constant_primes():
    assert rootsys.structure_constant_primes(build_root_system(RootSystemType("A", 3))) == set()
    assert rootsys.structure_constant_primes(build_root_system(RootSystemType("C", 2))) == {2}
    assert rootsys.structure_constant_primes(build_root_system(RootSystemType("G", 2))) == {2, 3}
    assert rootsys.structure_constant_primes(build_root_system(RootSystemType("B", 4))) == {2}
    assert rootsys.structure_constant_primes(build_root_system(RootSystemType("F", 4))) == {2}


AUTOMORPHISM_ORDERS = [
    ("A", 3, 2), ("D", 4, 6), ("C", 2, 1), ("A", 1, 1), ("E", 6, 2), ("D", 5, 2), ("G", 2, 1),
]


# Every standard type, plus A9, the cover that relroots._unfolded folds to C5;
# the types with a known group order keep their order assertion.
@pytest.mark.parametrize(
    "family,rank,order",
    AUTOMORPHISM_ORDERS + [
        (f, r, None) for f, r in [*cli.STANDARD_TYPES, ("A", 9)]
        if not any((f, r) == known[:2] for known in AUTOMORPHISM_ORDERS)
    ],
)
def test_diagram_automorphism_groups(family, rank, order):
    sys = build_root_system(RootSystemType(family, rank))
    autos = rootsys.diagram_automorphisms(sys)
    # oracle: filter all permutations directly
    C = sys.cartan
    pairs = [(i, j) for i in range(rank) for j in range(rank)]
    brute = [
        p for p in itertools.permutations(range(rank))
        if all(C[p[i]][p[j]] == C[i][j] for i, j in pairs)
    ]
    assert autos == brute  # permutations() runs in sorted order
    if order is not None:
        assert len(autos) == order


def test_diagram_automorphisms_follow_the_cartan_matrix():
    # a hand-built system of type A2 with a non-symmetric Cartan matrix has
    # only the identity, whatever was asked of A2 before it
    a2 = build_root_system(RootSystemType("A", 2))
    assert rootsys.diagram_automorphisms(a2) == [(0, 1), (1, 0)]
    skewed = dataclasses.replace(a2, cartan=((2, -1), (-2, 2)))
    assert rootsys.diagram_automorphisms(skewed) == [(0, 1)]
    assert rootsys.check_root_system(skewed)[1]["automorphisms"] == 1


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4), ("E", 6), ("A", 5), ("D", 5)])
def test_automorphisms_preserve_roots_and_pairing(family, rank):
    sys = build_root_system(RootSystemType(family, rank))
    for p in rootsys.diagram_automorphisms(sys):
        for a in sys.roots:
            pa = rootsys.perm_on_root(p, a)
            assert pa in sys.roots
            for b in sys.simple_roots:
                assert pairing2(sys, pa, rootsys.perm_on_root(p, b)) == pairing2(sys, a, b)


def test_gram_matches_cartan():
    for family, rank in [("B", 3), ("C", 3), ("F", 4), ("G", 2)]:
        sys = build_root_system(RootSystemType(family, rank))
        for i, a in enumerate(sys.simple_roots):
            for j, b in enumerate(sys.simple_roots):
                expected = Fraction(2 * pairing2(sys, a, b), pairing2(sys, b, b))
                assert expected == sys.cartan[i][j]


def test_invalid_types_rejected():
    for family, rank in [("A", 0), ("B", 1), ("D", 2), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("H", 2)]:
        with pytest.raises(ValueError):
            RootSystemType(family, rank)


def test_integer_pairing_is_twice_the_fraction_pairing():
    for family, rank in cli.STANDARD_TYPES:
        sys = build_root_system(RootSystemType(family, rank))
        # reference: the rational Gram (alpha_i, alpha_j) = C_ij (alpha_j, alpha_j) / 2
        cartan, lengths = rootsys._cartan_and_lengths(family, rank)
        gram = [[Fraction(cartan[i][j] * lengths[j], 2) for j in range(rank)]
                for i in range(rank)]
        idx = sys.index
        pair2 = (idx.coords @ idx.gram2 @ idx.coords.T).tolist()
        roots = [tuple(v) for v in idx.coords.tolist()]
        for j, b in enumerate(roots):
            gram_b = [sum(g * x for g, x in zip(row, b)) for row in gram]
            for i, a in enumerate(roots):
                expected = sum(x * g for x, g in zip(a, gram_b))
                assert pair2[i][j] == 2 * expected
