import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevlat import rootsys
from chevlat.rootsys import RootSystemType, build_root_system


ALL_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 8),
    ("B", 2), ("B", 3), ("B", 5), ("C", 2), ("C", 3), ("C", 5),
    ("D", 3), ("D", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8),
    ("F", 4), ("G", 2),
]


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
    assert sys.highest_root() == (3, 2)


@pytest.mark.parametrize("family,rank", [("A", 3), ("C", 2), ("G", 2), ("D", 4), ("F", 4)])
def test_reflection_stability(family, rank):
    sys = build_root_system(RootSystemType(family, rank))
    for a in sys.roots:
        for b in sys.roots:
            assert sys.reflect(a, b) in sys.roots


@pytest.mark.parametrize("family,rank", ALL_TYPES)
def test_cartan_integers_bounded(family, rank):
    sys = build_root_system(RootSystemType(family, rank))
    roots = sorted(sys.roots)
    for a in roots[: min(len(roots), 40)]:
        for b in roots:
            assert sys.cartan_int(a, b) in {-3, -2, -1, 0, 1, 2, 3}


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


def test_root_sum_examples():
    a2 = build_root_system(RootSystemType("A", 2))
    assert rootsys.root_sum(a2, (1, 0), (0, 1)) == (1, 1)
    assert rootsys.root_sum(a2, (1, 0), (1, 0)) is None
    c2 = build_root_system(RootSystemType("C", 2))
    assert rootsys.root_sum(c2, (1, 0), (1, 1)) == (2, 1)
    with pytest.raises(ValueError):
        rootsys.root_sum(a2, (5, 5), (1, 0))


@settings(max_examples=60)
@given(st.sampled_from([("A", 2), ("C", 2), ("G", 2), ("A", 3)]), st.data())
def test_root_sum_sign_antisymmetric(rtype, data):
    sys = build_root_system(RootSystemType(*rtype))
    roots = sorted(sys.roots)
    a = data.draw(st.sampled_from(roots))
    b = data.draw(st.sampled_from(roots))
    s = rootsys.root_sum(sys, a, b)
    neg = rootsys.root_sum(
        sys, tuple(-x for x in a), tuple(-x for x in b)
    )
    if s is None:
        assert neg is None
    else:
        assert rootsys.root_sum(sys, b, a) == s
        assert neg == tuple(-x for x in s)


def test_structure_constant_primes():
    assert rootsys.structure_constant_primes(build_root_system(RootSystemType("A", 3))) == set()
    assert rootsys.structure_constant_primes(build_root_system(RootSystemType("C", 2))) == {2}
    assert rootsys.structure_constant_primes(build_root_system(RootSystemType("G", 2))) == {2, 3}
    assert rootsys.structure_constant_primes(build_root_system(RootSystemType("B", 4))) == {2}
    assert rootsys.structure_constant_primes(build_root_system(RootSystemType("F", 4))) == {2}


@pytest.mark.parametrize(
    "family,rank,order",
    [("A", 3, 2), ("D", 4, 6), ("C", 2, 1), ("A", 1, 1), ("E", 6, 2), ("D", 5, 2), ("G", 2, 1)],
)
def test_diagram_automorphism_groups(family, rank, order):
    sys = build_root_system(RootSystemType(family, rank))
    autos = rootsys.diagram_automorphisms(sys)
    # oracle: filter all permutations directly
    brute = [
        p for p in itertools.permutations(range(rank))
        if all(
            sys.cartan[p[i]][p[j]] == sys.cartan[i][j]
            for i in range(rank) for j in range(rank)
        )
    ]
    assert sorted(autos) == sorted(brute)
    assert len(autos) == order


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4), ("E", 6), ("A", 5), ("D", 5)])
def test_automorphisms_preserve_roots_and_pairing(family, rank):
    sys = build_root_system(RootSystemType(family, rank))
    for p in rootsys.diagram_automorphisms(sys):
        for a in sys.roots:
            pa = rootsys.perm_on_root(p, a)
            assert pa in sys.roots
            for b in sys.simple_roots:
                assert sys.pairing(pa, rootsys.perm_on_root(p, b)) == sys.pairing(a, b)


def test_gram_matches_cartan():
    for family, rank in [("B", 3), ("C", 3), ("F", 4), ("G", 2)]:
        sys = build_root_system(RootSystemType(family, rank))
        for i, a in enumerate(sys.simple_roots):
            for j, b in enumerate(sys.simple_roots):
                expected = Fraction(2) * sys.pairing(a, b) / sys.pairing(b, b)
                assert expected == sys.cartan[i][j]


def test_invalid_types_rejected():
    for family, rank in [("A", 0), ("B", 1), ("D", 2), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("H", 2)]:
        with pytest.raises(ValueError):
            RootSystemType(family, rank)


def test_integer_pairing_is_twice_the_fraction_pairing():
    from chevlat.cli import STANDARD_TYPES

    for family, rank in STANDARD_TYPES:
        sys = build_root_system(RootSystemType(family, rank))
        # reference: the rational Gram (alpha_i, alpha_j) = C_ij (alpha_j, alpha_j) / 2
        cartan, lengths = rootsys._cartan_and_lengths(family, rank)
        gram = [[Fraction(cartan[i][j] * lengths[j], 2) for j in range(rank)]
                for i in range(rank)]
        roots = sorted(sys.roots)
        for b in roots:
            gram_b = [sum(g * x for g, x in zip(row, b)) for row in gram]
            for a in roots:
                expected = sum(x * g for x, g in zip(a, gram_b))
                assert sys.pairing2(a, b) == 2 * expected
            for a in sys.simple_roots:
                assert sys.pairing(a, b) == sum(x * g for x, g in zip(a, gram_b))
