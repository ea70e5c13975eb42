import ast
import itertools
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chevlat
from chevlat.errors import TableBoundError
from chevlat.models import GroupModel
from chevlat.rings import (
    adjugate_int, det_int, divisors, draws, from_digits, jacobson_radical, mat_mul, residues,
    scalar_inverse, to_digits,
)

from conftest import ideal_generated_by, mat_inverse_mod, v_tuples


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
    vs = list(v_tuples(model, (1,), 4))
    assert {c for v in vs for c in v} == {0, 4, 8} and len(vs) == 9
    assert list(v_tuples(model, (1,), 12)) == [(0, 0)]  # d = m is the zero ideal
    assert len(list(v_tuples(model, (1,)))) == 144  # d = 1 is the unit ideal
    # model.values in base-m order: the values in (d) are its rows with every entry in (d)
    values = model.values((1,))
    assert values.shape == (144, 2) and not values.flags.writeable
    for d in (1, 4, 12):
        assert [tuple(v) for v in values.tolist() if not any(c % d for c in v)] == list(
            v_tuples(model, (1,), d))


@pytest.mark.parametrize("m, width", [(2, 1), (2, 5), (3, 3), (4, 2), (9, 2), (12, 2)])
def test_base_m_digits_are_itertools_product_order(m, width):
    # code c is the c-th tuple of itertools.product: first digit most significant
    digits = to_digits(np.arange(m ** width), m, width)
    assert digits.tolist() == [list(t) for t in itertools.product(range(m), repeat=width)]
    assert np.array_equal(from_digits(digits, m), np.arange(m ** width))
    stack = to_digits(np.arange(m ** width).reshape(-1, m), m, width)  # one more axis, any shape
    assert stack.shape == (m ** (width - 1), m, width)
    assert np.array_equal(from_digits(stack, m), np.arange(m ** width).reshape(-1, m))


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
    one = det_int(mat)  # one matrix: a 0-d int64 array
    assert isinstance(one, np.ndarray) and one.shape == () and one.dtype == np.int64
    assert one == det_by_permutations(mat)
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
    unit = scalar_inverse(int(det_int(mat)), m) is not None
    stack = np.stack([np.eye(3, dtype=np.int64), mat, mat.T])
    invs = mat_inverse_mod(stack, m)
    if not unit:
        assert inv is None and invs is None
    else:
        assert ((mat @ inv) % m == np.eye(3, dtype=np.int64)).all()
        assert (invs[1] == inv).all() and (invs[2] == inv.T).all()
        assert ((stack @ invs) % m == np.eye(3, dtype=np.int64)).all()




# -- the modular product kernel ------------------------------------------------

def exact_chain(mats, m):
    """The product of a chain mod m in exact integers: np.remainder of
    object arrays of Python ints after every product."""
    out = np.remainder(np.asarray(mats[0]).astype(object), m)
    for a in mats[1:]:
        out = np.remainder(out @ np.asarray(a).astype(object), m)
    return out.astype(np.int64)


def extreme_entries(rng, m, shape):
    """Entries drawn from (-m, m), with -(m - 1), 0 and m - 1 in every operand."""
    a = rng.integers(-(m - 1), m, size=shape, dtype=np.int64)
    a.reshape(-1)[:3] = [-(m - 1), 0, m - 1]
    return a


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 9])
@pytest.mark.parametrize("length", range(2, 7))
def test_mat_mul_matches_exact_remainders(m, length):
    rng = np.random.default_rng(10 * m + length)
    for n in (2, 4):
        mats = [extreme_entries(rng, m, (40, n, n)) for _ in range(length)]
        got = mat_mul(*mats, m=m)
        assert got.dtype == np.int64 and np.array_equal(got, exact_chain(mats, m))
        # broadcast stacks, and a chain of rectangular operands (the scan's pairings)
        first, last = mats[0][:, None], mats[-1][None, :5]
        assert np.array_equal(mat_mul(first, last, m=m), exact_chain([first, last], m))
        rows, cols = mats[0][0, :1], mats[1][0, :, :1]
        assert np.array_equal(mat_mul(rows, *mats[2:], cols, m=m),
                              exact_chain([rows, *mats[2:], cols], m))
    assert np.array_equal(mat_mul(mats[0], m=m), np.remainder(mats[0], m))  # one operand


@pytest.mark.parametrize("n", [2, 4])
def test_mat_mul_matches_exact_remainders_near_the_int64_bound(n):
    # the largest m with n (m - 1)**2 below 2**63, the one before it and a
    # power of two below both: each product is reduced before the next
    top = math.isqrt((2**63 - 1) // n) + 1
    rng = np.random.default_rng(n)
    for m in (top, top - 1, 2**30):
        mats = [extreme_entries(rng, m, (8, n, n)) for _ in range(4)]
        assert np.array_equal(mat_mul(*mats, m=m), exact_chain(mats, m))
    eye = np.eye(n, dtype=np.int64)
    with pytest.raises(TableBoundError, match="past the int64 bound"):
        mat_mul(eye, eye, m=top + 1)


def test_mat_mul_guard_names_the_model():
    # two 2x2 operands over Z/2**40 reach 2 (2**40 - 1)**2, past int64: refused
    # before anything is multiplied
    model = GroupModel("SL", 2, 2**40, (1, 1))
    eye = np.eye(2, dtype=np.int64)
    with pytest.raises(TableBoundError, match=re.escape(
            "SL2(Z/1099511627776)[(1, 1)]: a matrix product mod 1099511627776 has entries "
            "up to 2 * (1099511627776 - 1)**2, past the int64 bound 2**63 - 1")) as err:
        model.mul(eye, eye)
    assert (err.value.needed, err.value.cap) == (2 * (2**40 - 1)**2, 2**63 - 1)


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 9, 2**31 - 1, 2**31])
@pytest.mark.parametrize("size", [10, 5000])  # either side of the switch from % to a // m
def test_residues_match_remainder_without_changing_their_input(m, size):
    edges = [-(2**62), -m - 1, -m, -1, 0, 1, m - 1, m, m + 1, 2**62]
    a = np.concatenate([edges, np.random.default_rng(m).integers(-(2**62), 2**62, size - 10)])
    before = a.copy()
    assert np.array_equal(residues(a, m), np.remainder(a, m))
    assert np.array_equal(a, before)


def reduced_products(source: str) -> list[int]:
    """The lines of products taken mod something outside the kernel: a % or
    an np.remainder / np.mod whose operand holds an @."""
    def holds_matmul(node):
        return any(isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.MatMult)
                   for sub in ast.walk(node))

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            hit = holds_matmul(node.left)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", "") in ("remainder", "mod"):
            hit = any(holds_matmul(arg) for arg in node.args)
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_the_source_scan_finds_products_mod_m():
    source = ("a = x @ y % m\nb = (x @ y) % m\nc = x @ y % m @ z % m\n"
              "d = np.remainder(x @ y, m)\ne = f(x @ y)[0] % m\n"
              "keys = x % m @ weights\nf = mat_mul(x, y, m=m)\ng = x @ weights\n")
    assert reduced_products(source) == [1, 2, 3, 3, 4, 5]


def hand_decodes(source: str) -> list[int]:
    """The lines of hand-written base-m decodes, x // m ** np.arange(...) % m."""
    def is_arange_power(node):  # m ** np.arange(...) or m ** arange(...)
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                and isinstance(node.right, ast.Call)
                and "arange" in (getattr(node.right.func, "attr", ""),
                                 getattr(node.right.func, "id", "")))

    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                  and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.FloorDiv)
                  and is_arange_power(node.left.right))


def test_the_source_scan_finds_hand_written_decodes():
    source = ("a = c // m ** np.arange(k) % m\nb = c[:, None] // m ** np.arange(k, -1, -1) % m\n"
              "d = c // 4 ** arange(3) % 4\ne = c // w % m\nf = to_digits(c, m, k)\n"
              "g = m ** np.arange(k) % m\n")
    assert hand_decodes(source) == [1, 2, 3]


def test_base_m_decodes_go_through_the_codec():
    # rings.to_digits is the one base-m decode
    src = Path(chevlat.__file__).parent
    found = {path.name: hand_decodes(path.read_text()) for path in sorted(src.glob("*.py"))
             if path.name != "rings.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_products_mod_m_go_through_the_kernel():
    # rings.mat_mul is the one modular product kernel; table.py's row tables use it too
    src = Path(chevlat.__file__).parent
    found = {path.name: reduced_products(path.read_text()) for path in sorted(src.glob("*.py"))
             if path.name not in ("rings.py", "table.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}
