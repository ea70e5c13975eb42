import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevlat.models import GroupModel
from chevlat.rings import (
    adjugate_int, det_int, divisors, draws, jacobson_radical, scalar_inverse,
)

from conftest import ideal_generated_by, mat_inverse_mod


def test_ring_ideals():
    # the ideals of Z/m as their generators, from the unit ideal 1 to the zero ideal m
    assert divisors(2) == [1, 2]
    assert divisors(4) == [1, 2, 4]
    assert divisors(6) == [1, 2, 3, 6]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(7) == [1, 7]


@pytest.mark.parametrize("n", [1, 2, 7, 5616, 2 ** 62 + 3])
@pytest.mark.parametrize("shape", [(0,), (1,), (3, 400), (2, 0, 5)])
def test_draws_lie_in_range_with_the_requested_shape(n, shape):
    got = draws(random.Random(n), n, *shape)
    assert got.shape == shape and got.dtype == np.int64
    assert ((0 <= got) & (got < n)).all()
    assert np.array_equal(got, draws(random.Random(n), n, *shape))  # same seed, same values
    if got.size > 100:
        assert len(np.unique(got)) >= min(n, 100)  # the values spread over the range


def test_draws_read_only_the_rng_they_are_passed():
    np_state, py_state = np.random.get_state(), random.getstate()
    rng, twin = random.Random(3), random.Random(3)
    first = draws(rng, 10, 100)
    assert random.getstate() == py_state  # the module rng is untouched
    assert all(np.array_equal(a, b) for a, b in zip(np.random.get_state(), np_state))
    # rng moved on by its draws and by nothing else: a twin drawing the same
    # sizes is at the same state, and the next draws differ from the first
    assert np.array_equal(first, draws(twin, 10, 100)) and rng.getstate() == twin.getstate()
    assert not np.array_equal(first, draws(rng, 10, 100))


def test_jacobson_radical():
    assert jacobson_radical(2) == 2  # a field: the zero ideal
    assert jacobson_radical(4) == 2
    assert jacobson_radical(6) == 6  # Z/6 is semisimple: zero ideal
    assert jacobson_radical(12) == 6
    assert jacobson_radical(7) == 7


def test_ideal_membership_and_elements():
    # V_alpha(q) for q = (d) has its entries in range(0, m, d); SL3 with
    # blocks (1, 2) has a 2-dimensional V_alpha at alpha = (1,)
    model = GroupModel("SL", 3, 12, (1, 2))
    vs = list(model.v_tuples((1,), 4))
    assert {c for v in vs for c in v} == {0, 4, 8} and len(vs) == 9
    assert list(model.v_tuples((1,), 12)) == [(0, 0)]  # d = m is the zero ideal
    assert len(list(model.v_tuples((1,)))) == 144  # d = 1 is the unit ideal


def test_ideal_generated_by():
    assert ideal_generated_by(12, 8) == 4
    assert ideal_generated_by(12, 0) == 12
    assert ideal_generated_by(12, 5) == 1


def det_by_permutations(mat):
    # independent oracle: Leibniz sum over permutations
    n = len(mat)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= mat[i][perm[i]]
        total += sign * prod
    return total


@settings(max_examples=120)
@given(st.integers(2, 4), st.data())
def test_det_matches_leibniz(n, data):
    mat, other = (
        [[data.draw(st.integers(-5, 5)) for _ in range(n)] for _ in range(n)]
        for _ in range(2)
    )
    assert det_int(mat) == det_by_permutations(mat)
    stacked = det_int([[mat], [other]])  # a (2, 1, n, n) stack
    assert stacked.shape == (2, 1)
    assert stacked[:, 0].tolist() == [det_by_permutations(mat), det_by_permutations(other)]


@settings(max_examples=80)
@given(st.integers(2, 4), st.data())
def test_adjugate_identity(n, data):
    mat = np.array(
        [[data.draw(st.integers(-4, 4)) for _ in range(n)] for _ in range(n)],
        dtype=np.int64,
    )
    adj = adjugate_int(mat)
    assert (mat @ adj == det_int(mat) * np.eye(n, dtype=np.int64)).all()
    stack = np.stack([mat, mat.T, -mat])
    adjs = adjugate_int(stack)
    assert (adjs[0] == adj).all() and (adjs[1] == adj.T).all()
    assert (stack @ adjs == det_int(stack)[:, None, None] * np.eye(n, dtype=np.int64)).all()


@settings(max_examples=60)
@given(st.sampled_from([2, 3, 4, 5, 6]), st.data())
def test_matrix_inverse_mod(m, data):
    mat = np.array(
        [[data.draw(st.integers(0, m - 1)) for _ in range(3)] for _ in range(3)],
        dtype=np.int64,
    )
    inv = mat_inverse_mod(mat, m)
    unit = scalar_inverse(det_int(mat), m) is not None
    stack = np.stack([np.eye(3, dtype=np.int64), mat, mat.T])
    invs = mat_inverse_mod(stack, m)
    if not unit:
        assert inv is None and invs is None
    else:
        assert ((mat @ inv) % m == np.eye(3, dtype=np.int64)).all()
        assert (invs[1] == inv).all() and (invs[2] == inv.T).all()
        assert ((stack @ invs) % m == np.eye(3, dtype=np.int64)).all()


