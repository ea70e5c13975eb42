import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from chevlat import lattice
from chevlat import models as models_mod
from chevlat.cli import DEFAULT_MODELS
from chevlat.errors import SizeCapError, TableBoundError
from chevlat.models import (
    SCAN_BOUND,
    GroupModel,
    SP4_FORM,
    elements_on,
    gauss_cell_factors,
    hypothesis_check,
    order_formula,
    sampled_gauss_roundtrip_check,
    scan_on,
    scheme_center_elements,
)
from chevlat.rings import det_int, draws
from chevlat.table import _SCAN_LIMIT, matrix_keys

from conftest import (
    mat_inverse_mod, not_sums, reference_elements_on, sl_block_pairs, units, v_tuples,
)


def sl(n, m, blocks=None):
    return GroupModel("SL", n, m, blocks or (1,) * n)


def sp(m, blocks="borel"):
    return GroupModel("Sp", 4, m, blocks)


def test_elementary_generator_examples():
    m = sl(3, 4)
    g = m.elementary_generator((0, 1), 1)
    assert g[0, 1] == 1 and (g - np.eye(3, dtype=np.int64))[0, 1] == 1
    assert (m.elementary_generator((0, 1), 0) == np.eye(3, dtype=np.int64)).all()
    with pytest.raises(ValueError):
        m.elementary_generator((1, 1), 1)


def _simple_root_coordinates(model, position):
    """A generator position as a root in simple-root coordinates: e_i - e_j of
    A_{n-1} for SL_n, the C_2 coordinates themselves for Sp_4."""
    if model.kind == "Sp":
        return position
    i, j = position
    sign, lo, hi = (1, i, j) if i < j else (-1, j, i)
    return tuple(sign if lo <= t < hi else 0 for t in range(model.degree - 1))


@pytest.mark.parametrize("model", [sl(2, 5), sl(3, 2), sl(4, 3), sl(5, 2), sp(2), sp(3, "line")],
                         ids=lambda mo: mo.name())
def test_simple_generators_are_the_e_generators_at_the_simple_roots(model):
    rank = model.degree - 1 if model.kind == "SL" else 2
    simple = [p for p in model.generator_positions()
              if sorted(map(abs, _simple_root_coordinates(model, p))) == [0] * (rank - 1) + [1]]
    got = model.simple_generator_mats()
    assert len(got) == len(simple) == 2 * rank
    assert {tuple(_simple_root_coordinates(model, p)) for p in simple} == {
        tuple(s * (t == u) for t in range(rank)) for u in range(rank) for s in (1, -1)}
    want = [model.elementary_generator(p, 1) for p in simple]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    every = model.generator_mats()
    assert all(any(np.array_equal(g, e) for e in every) for g in got)


def _compositions(n):
    """The compositions of n into at least two positive parts."""
    for k in range(1, n):
        for cuts in itertools.combinations(range(1, n), k):
            bounds = (0, *cuts, n)
            yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def _simple_positions(model):
    """The positions of the simple-root generators, listed per kind."""
    if model.kind == "SL":
        return {p for i in range(model.degree - 1) for p in ((i, i + 1), (i + 1, i))}
    return {(1, 0), (0, 1), (-1, 0), (0, -1)}


def _check_simple_roots_and_generators(model):
    assert lattice._simple_rel_roots(model) == not_sums(model.rel_roots)
    want = [model.elementary_generator(p, 1) for p in model.generator_positions()
            if p in _simple_positions(model)]
    got = model.simple_generator_mats()
    assert len(got) == len(want) and all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("blocks", [b for n in range(2, 7) for b in _compositions(n)], ids=str)
def test_sl_relative_roots_match_the_block_pair_formula(blocks):
    model, pairs, k = sl(sum(blocks), 97, blocks), sl_block_pairs(blocks), len(blocks)
    assert set(model.rel_roots) == set(pairs)
    others = [(0,) * (k - 1), (2,) + (0,) * (k - 2), (1,) * k, (-2,) * (k - 1)]
    if k >= 3:  # mixed signs
        others.append((1, -1) + (0,) * (k - 3))
    if k >= 4:  # a gap between two crossed boundaries
        others.append((1,) + (0,) * (k - 3) + (1,))
    assert not any(model.is_rel_root(v) or v in pairs for v in others)
    starts = list(itertools.accumulate(blocks, initial=0))
    for alpha, (i, j) in pairs.items():
        assert model.v_dim(alpha) == blocks[i] * blocks[j]
        v = tuple(range(1, blocks[i] * blocks[j] + 1))
        want = np.eye(sum(blocks), dtype=np.int64)
        want[starts[i]:starts[i + 1], starts[j]:starts[j + 1]] = np.reshape(v, (blocks[i], blocks[j]))
        assert np.array_equal(model.x(alpha, v), want)
    _check_simple_roots_and_generators(model)


@pytest.mark.parametrize("blocks", ["borel", "line", "siegel"])
def test_sp4_simple_roots_and_generators_match_the_listed_ones(blocks):
    _check_simple_roots_and_generators(sp(3, blocks))


@pytest.mark.parametrize("m, count", [(2, 1), (3, 2), (4, 2), (8, 4), (15, 4), (24, 8)])
def test_sp4_center_points_are_the_square_roots_of_one(m, count):
    model = sp(m, "line")
    points = scheme_center_elements(model)
    assert len(points) == count
    assert {int(z[0, 0]) for z in points} == {lam for lam in range(1, m) if lam * lam % m == 1}
    for z in points:
        assert np.array_equal(z, z[0, 0] * np.eye(4, dtype=np.int64)) and model.is_element(z)
        assert all(np.array_equal(model.mul(z, g), model.mul(g, z)) for g in model.generator_mats())


def test_sp4_generators_preserve_form():
    for mod in (2, 3, 5):
        model = sp(mod)
        for g in model.all_elementary_generators():
            lhs = (g.T @ SP4_FORM @ g) % mod
            assert (lhs == SP4_FORM % mod).all()


def test_relative_root_element_sl3():
    m = sl(3, 4)
    g = m.x((1, 1), (2,))  # block pair (1,3)
    expect = np.eye(3, dtype=np.int64)
    expect[0, 2] = 2
    assert (g == expect).all()


def test_relative_root_element_sl4_blocks22():
    m = sl(4, 2, (2, 2))
    v = (1, 0, 0, 1)
    g = m.x((1,), v)
    expect = np.eye(4, dtype=np.int64)
    expect[0:2, 2:4] = np.eye(2, dtype=np.int64)
    assert (g == expect).all()


VALUE_MODELS = [spec.build() for spec in DEFAULT_MODELS] + [sl(4, 2, (2, 1, 1)), sp(4, "line")]


@pytest.mark.parametrize("model", VALUE_MODELS, ids=lambda mo: mo.name())
def test_values_and_root_elements_match_the_tuple_reference(model):
    # every relative root: model.values in the order of itertools.product,
    # cached and read-only, and X_alpha of the whole array, or of any stack of
    # values, the matrices of the values one by one
    for alpha in model.rel_roots:
        values, tuples = model.values(alpha), list(v_tuples(model, alpha))
        assert values is model.values(alpha) and not values.flags.writeable
        assert values.dtype == np.int64 and values.tolist() == [list(v) for v in tuples]
        stack = model.x(alpha, values)
        assert np.array_equal(stack, np.stack([model.x(alpha, v) for v in tuples]))
        assert np.array_equal(model.x(alpha, values[::-1].reshape(1, -1, values.shape[1]))[0],
                              stack[::-1])


def test_sp4_line_sum_formula_has_double_term():
    model = sp(3, "line")
    v, w = (0, 1), (1, 0)
    lhs = (model.x((1,), v) @ model.x((1,), w)) % 3
    rhs = model.x((1,), (1, 1))
    # X_a(v) X_a(w) and X_a(v+w) differ by a (2a)-factor
    assert not (lhs == rhs).all()
    found = None
    for t in range(3):
        if (lhs == (rhs @ model.x((2,), (t,))) % 3).all():
            found = t
    assert found


def test_order_formula_frozen_values():
    assert order_formula(sl(3, 2)) == 168
    assert order_formula(sl(3, 3)) == 5616
    assert order_formula(sl(3, 4)) == 43008
    assert order_formula(sl(4, 2)) == 20160
    assert order_formula(sp(2)) == 720
    assert order_formula(sp(3)) == 51840
    assert order_formula(sp(5)) == 9360000


def test_hypothesis_check():
    h = hypothesis_check(sl(3, 4))
    assert h.main_ok and h.perfect_ok and h.isotropic_rank == 2
    h2 = hypothesis_check(sp(2))
    assert not h2.main_ok and not h2.perfect_ok
    assert h2.structure_primes == (2,)
    h3 = hypothesis_check(sp(3))
    assert h3.main_ok and h3.perfect_ok
    h4 = hypothesis_check(sl(2, 5, (1, 1)))
    assert not h4.main_ok and h4.isotropic_rank == 1
    h5 = hypothesis_check(sp(4))
    assert not h5.main_ok  # 2 not invertible mod 4


def one_cell_factor(model, g):
    """gauss_cell_factors of the one-matrix stack g[None]: (u, l, v), or None
    when g is outside the main cell."""
    member, u, l, v = gauss_cell_factors(model, np.asarray(g)[None])
    return (u[0], l[0], v[0]) if member[0] else None


def is_0d_bool(result):
    return isinstance(result, np.ndarray) and result.shape == () and result.dtype == bool


def test_gauss_cell_identity_and_weyl():
    m = sl(3, 4)
    w = np.array([[0, 0, 1], [0, 3, 0], [1, 0, 0]], dtype=np.int64)
    assert det_int(w) % 4 == 1
    assert gauss_cell_factors(m, np.stack([m.identity(), w]))[0].tolist() == [True, False]


def test_gauss_cell_lower_unipotent():
    m = sl(3, 5)
    g = np.eye(3, dtype=np.int64)
    g[1, 0] = 1
    u, l, v = one_cell_factor(m, g)
    assert (u == np.eye(3, dtype=np.int64)).all()
    assert (l == np.eye(3, dtype=np.int64)).all()
    assert (v == g).all()


def test_gauss_cell_roundtrip_random():
    rng = np.random.default_rng(11)
    for model in (sl(3, 4), sl(4, 2, (1, 1, 2)), sp(3, "line")):
        mats = [model.elementary_generator(p, 1) for p in model.generator_positions()]
        for _ in range(50):
            g = model.identity()
            for _k in range(5):
                g = (g @ mats[rng.integers(len(mats))]) % model.m
            fac = one_cell_factor(model, g)
            if fac is not None:
                u, l, v = fac
                assert ((u @ l @ v) % model.m == g).all()
                assert model.in_levi(l)
                assert model.in_parabolic(u) and model.in_parabolic(v, negative=True)


def test_gauss_cell_factors_of_a_stack_match_one_by_one():
    rng = np.random.default_rng(12)
    for model in (sl(3, 4), sl(4, 2, (1, 1, 2)), sp(3, "line")):
        pool = np.stack(model.all_elementary_generators())
        # products of a few generators; transposed positions mix in non-members
        stack = pool[rng.integers(len(pool), size=(40, 3))]
        stack = (stack[:, 0] @ stack[:, 1] @ stack[:, 2]) % model.m
        member, u, l, v = gauss_cell_factors(model, stack)
        assert member.any() and not member.all()
        for i, g in enumerate(stack):
            fac = one_cell_factor(model, g)
            assert member[i] == (fac is not None)
            if fac is not None:
                assert all((a == b).all() for a, b in zip(fac, (u[i], l[i], v[i])))


def test_levi_elements_borel_torus():
    m = sl(3, 5)
    levis = m.levi_elements()
    # oracle: diagonal (a, b, c) with abc = 1, a,b,c units mod 5
    count = sum(
        1
        for a in range(1, 5)
        for b in range(1, 5)
        for c in range(1, 5)
        if (a * b * c) % 5 == 1
    )
    assert len(levis) == count
    sp_levis = sp(3).levi_elements()
    assert len(sp_levis) == 4  # units^2 for the symplectic diagonal torus


def reference_levi_elements(model):
    """The Levi subgroup as block products: for SL_n one GL enumeration per
    block and the determinant condition on the product, for Sp_4 the torus,
    GL_1 x SL_2 and GL_2 written out per parabolic."""
    m = model.m
    if model.kind == "SL":
        per_block = []
        for size in model.block_sizes:
            gls = []
            for entries in itertools.product(range(m), repeat=size * size):
                b = np.array(entries, dtype=np.int64).reshape(size, size)
                d = det_int(b) % m
                if math.gcd(d, m) == 1:
                    gls.append((b, d))
            per_block.append(gls)
        out = []
        for combo in itertools.product(*per_block):
            if math.prod(d for _, d in combo) % m != 1:
                continue
            g = np.zeros((model.degree, model.degree), dtype=np.int64)
            for i, (b, _) in enumerate(combo):
                r = model.block_range(i)
                g[r.start:r.stop, r.start:r.stop] = b
            out.append(g)
        return out
    unit_group = units(m)
    out = []
    if model.blocks == "borel":
        for t, u in itertools.product(unit_group, repeat=2):
            out.append(np.diag([t, u, pow(u, -1, m), pow(t, -1, m)]).astype(np.int64))
    elif model.blocks == "line":
        for t in unit_group:
            for entries in itertools.product(range(m), repeat=4):
                sl2 = np.array(entries, dtype=np.int64).reshape(2, 2)
                if det_int(sl2) % m != 1:
                    continue
                g = np.zeros((4, 4), dtype=np.int64)
                g[0, 0], g[1:3, 1:3], g[3, 3] = t, sl2, pow(t, -1, m)
                out.append(g)
    else:  # siegel
        K = np.array([[0, 1], [1, 0]], dtype=np.int64)
        for entries in itertools.product(range(m), repeat=4):
            a = np.array(entries, dtype=np.int64).reshape(2, 2)
            ainv = mat_inverse_mod(a, m)
            if ainv is None:
                continue
            g = np.zeros((4, 4), dtype=np.int64)
            g[0:2, 0:2], g[2:4, 2:4] = a, (K @ ainv.T @ K) % m
            out.append(g)
    return out


LEVI_CASES = (
    [sl(2, m) for m in range(2, 7)]
    + [sl(3, m, b) for m in range(2, 7) for b in ((1, 1, 1), (1, 2), (2, 1))]
    + [sl(4, m, b) for m in (2, 3)
       for b in ((1, 1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2), (1, 3), (3, 1))]
    + [sp(m, p) for m in range(2, 6) for p in ("borel", "line", "siegel")]
)


@pytest.mark.parametrize("model", LEVI_CASES, ids=lambda model: model.name())
def test_levi_elements_match_block_products_in_order(model):
    levis = model.levi_elements()
    ref = reference_levi_elements(model)
    assert len(levis) == len(ref)
    assert all(np.array_equal(a, b) for a, b in zip(levis, ref))


def loop_in_parabolic(model, g, negative=False):
    """Per-entry reference: a group element whose entries vanish in every
    block below (above, when negative) the diagonal blocks."""
    block = [b for b, size in enumerate(model.block_sizes) for _ in range(size)]
    return bool(model.is_element(g)) and not any(
        (block[r] < block[c] if negative else block[r] > block[c]) and g[r, c] % model.m
        for r in range(model.degree) for c in range(model.degree)
    )


@pytest.mark.parametrize("model", [sl(3, 4), sl(4, 2, (1, 1, 2)), sl(4, 3, (2, 2)), sp(2),
                                   sp(3, "line"), sp(3, "siegel")], ids=lambda m: m.name())
def test_stacked_parabolic_tests_match_the_entry_loop(model):
    rng = np.random.default_rng(13)
    pool = np.stack(model.all_elementary_generators())
    words = pool[rng.integers(len(pool), size=(200, 2))]
    products = (words[:, 0] @ words[:, 1]) % model.m
    member, u, l, v = gauss_cell_factors(model, products)
    others = rng.integers(0, model.m, size=(100, model.degree, model.degree))
    stack = np.concatenate([products, u[member], l[member], v[member], others])
    for negative in (False, True):
        got = model.in_parabolic(stack, negative=negative)
        assert got.tolist() == [loop_in_parabolic(model, g, negative) for g in stack]
        assert got.any() and not got.all()
    levi = model.in_levi(stack)
    assert levi.tolist() == [loop_in_parabolic(model, g) and loop_in_parabolic(model, g, True)
                             for g in stack]
    assert levi.any() and not levi.all()
    assert is_0d_bool(model.in_parabolic(stack[0])) and is_0d_bool(model.in_levi(stack[0]))


def loop_gauss_roundtrip(model, samples, rng):
    """Sample-by-sample reference of sampled_gauss_roundtrip_check on the
    values it draws from rng: the generators' positions, then their
    parameters."""
    m = model.m
    positions = model.generator_positions()
    at, params = draws(rng, len(positions), samples, 4), draws(rng, m, samples, 4)
    ok = one_cell_factor(model, model.identity()) is not None
    for k in range(samples):
        g = model.identity()
        for step in range(4):
            g = g @ model.elementary_generator(positions[at[k, step]], params[k, step]) % m
        fac = one_cell_factor(model, g)
        if fac is not None:
            u, l, v = fac
            ok &= bool((u @ l % m @ v % m == g).all())
    return ok


@pytest.mark.parametrize("model", [sl(3, 2), sl(3, 4), sl(4, 2), sl(4, 3, (1, 3)), sp(2),
                                   sp(3, "line"), sp(5, "siegel")], ids=lambda m: m.name())
def test_gauss_roundtrip_draws_like_the_sample_loop(model):
    for samples in (0, 40):
        verdict = sampled_gauss_roundtrip_check(model, samples, random.Random(7))
        assert verdict is loop_gauss_roundtrip(model, samples, random.Random(7)) is True


def test_elements_on_everything_is_the_table(sl3_2, sp4_2):
    for ctx in (sl3_2, sp4_2):
        n, t = ctx.model.degree, ctx.table
        scanned = elements_on(ctx.model, np.ones((n, n), dtype=bool))
        assert np.array_equal(np.sort(matrix_keys(scanned, t.m)),
                              np.sort(matrix_keys(t.mat(np.arange(t.N)), t.m)))
        flat = scanned.reshape(len(scanned), -1).tolist()
        assert flat == sorted(flat)  # lexicographic, row by row


SCANNED_DEFAULTS = [spec.build() for spec in DEFAULT_MODELS
                    if spec.modulus ** (spec.degree ** 2) <= _SCAN_LIMIT]


def levi_support(model):
    b = model._block_index
    return b[:, None] == b[None, :]


def assert_scan_matches_reference(model, support):
    got, want = elements_on(model, support), reference_elements_on(model, support)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)  # the same elements in the same order


@pytest.mark.parametrize("model", SCANNED_DEFAULTS + [sl(2, 3)], ids=lambda m: m.name())
def test_elements_on_full_support_matches_the_reference_scan(model):
    assert_scan_matches_reference(model, np.ones((model.degree, model.degree), dtype=bool))


def test_scanned_defaults_are_the_table_cross_checked_models():
    assert [m.name() for m in SCANNED_DEFAULTS] == [
        "SL3(Z/2)[(1, 1, 1)]", "SL3(Z/3)[(1, 1, 1)]", "SL3(Z/4)[(1, 1, 1)]",
        "SL4(Z/2)[(1, 1, 1, 1)]", "Sp4(Z/2)[borel]"]


@pytest.mark.parametrize("model", LEVI_CASES, ids=lambda model: model.name())
def test_elements_on_levi_support_matches_the_reference_scan(model):
    assert_scan_matches_reference(model, levi_support(model))


EMPTY_FIRST_MODELS = [sl(3, 3), sl(4, 2, (2, 2)), sp(3), sp(3, "siegel")]


def supports_without_the_first_row_or_column(model):
    """The full and the Levi support with the first row (SL) or column (Sp) emptied."""
    for support in (np.ones((model.degree, model.degree), dtype=bool), levi_support(model)):
        support = support.copy()
        if model.kind == "SL":
            support[0] = False
        else:
            support[:, 0] = False
        yield support


@pytest.mark.parametrize("model", EMPTY_FIRST_MODELS, ids=lambda m: m.name())
def test_elements_on_with_nothing_in_the_first_row_or_column(model):
    # no filling of the first row (SL) or first column (Sp) is left to share:
    # every matrix is singular, so the scan is empty
    for support in supports_without_the_first_row_or_column(model):
        if model.m ** support.sum() <= 10**5:
            assert_scan_matches_reference(model, support)
        assert elements_on(model, support).shape == (0, model.degree, model.degree)


def parabolic_support(model):
    b = model._block_index
    return b[:, None] <= b[None, :]


# every support the reference scan is compared on above, and the parabolics
# of a few models: supports that are not symmetric, where the keys of the
# transposes would differ
REFERENCE_SCAN_CASES = (
    [(model, np.ones((model.degree, model.degree), dtype=bool), "full")
     for model in SCANNED_DEFAULTS + [sl(2, 3)]]
    + [(model, levi_support(model), "levi") for model in LEVI_CASES]
    + [(model, support, f"first-emptied-{i}") for model in EMPTY_FIRST_MODELS
       for i, support in enumerate(supports_without_the_first_row_or_column(model))
       if model.m ** support.sum() <= 10**5]
    + [(model, parabolic_support(model), "parabolic")
       for model in (sl(3, 3), sl(4, 2, (1, 2, 1)), sp(2, "line"), sp(3, "borel"))])


@pytest.mark.parametrize("model, support, name", REFERENCE_SCAN_CASES,
                         ids=[f"{m.name()}-{name}" for m, _, name in REFERENCE_SCAN_CASES])
def test_scan_keys_are_the_keys_of_the_reference_scan(model, support, name):
    keys = scan_on(model, support)
    assert keys.dtype == np.int64 and keys.ndim == 1
    want = matrix_keys(reference_elements_on(model, support), model.m)
    assert np.array_equal(np.sort(keys), np.sort(want))


def test_elements_on_refuses_too_many_fillings_up_front():
    model = sl(2, 2**16)
    with pytest.raises(SizeCapError, match="scan has 18446744073709551616 fillings") as info:
        elements_on(model, np.ones((2, 2), dtype=bool))
    assert info.value.cap == SCAN_BOUND and info.value.needed == 2**64
    # exactly SCAN_BOUND fillings pass: the diagonal of SL2(Z/2048), a d = 1
    assert SCAN_BOUND == 2048**2
    assert len(elements_on(sl(2, 2048), np.eye(2, dtype=bool))) == 1024


def test_scan_refuses_too_many_fillings_before_any_work(monkeypatch):
    monkeypatch.setattr(models_mod, "_sl_scan", lambda *args: pytest.fail("the scan started"))
    with pytest.raises(SizeCapError, match="scan has 18446744073709551616 fillings"):
        scan_on(sl(2, 2**16), np.ones((2, 2), dtype=bool))


@pytest.mark.parametrize("model", [sl(2, 4), sl(3, 4), sl(4, 2)], ids=lambda m: m.name())
def test_scan_with_no_class_admitting_a_first_row_is_empty(model):
    # with the last row 0 every first-row cofactor is 0, so no class of
    # cofactors has a first row of det 1
    support = np.ones((model.degree, model.degree), dtype=bool)
    support[-1] = False
    keys = scan_on(model, support)
    assert keys.dtype == np.int64 and keys.shape == (0,)


def test_scan_of_the_sl2_2048_diagonal_stays_within_its_blocks():
    # 2048 classes of cofactors against 2048 first rows, decided in blocks of
    # at most _BLOCK int64 determinants (8 MiB): a traced peak of 9.1 MiB,
    # where a table of every value of det took 128 MiB
    tracemalloc.start()
    try:
        keys = scan_on(sl(2, 2048), np.eye(2, dtype=bool))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(keys) == 1024 and peak <= 10 * 2**20


def test_scan_refuses_keys_past_int64_up_front(monkeypatch):
    # the diagonal of SL3(Z/130) has 130**3 fillings, under SCAN_BOUND, but the
    # int64 keys of 3x3 matrices over Z/130 would reach 130**9 > 2**63 - 1
    monkeypatch.setattr(models_mod, "_sl_scan", lambda *args: pytest.fail("the scan started"))
    with pytest.raises(TableBoundError, match=r"SL3\(Z/130\).*130\*\*9, past the int64 bound"):
        scan_on(sl(3, 130), np.eye(3, dtype=bool))


def test_scheme_center():
    assert len(scheme_center_elements(sl(3, 4))) == 1
    # cube roots of 1 mod 7 are {1, 2, 4}
    assert len(scheme_center_elements(sl(3, 7))) == 3
    assert len(scheme_center_elements(sp(3))) == 2
    assert len(scheme_center_elements(sp(2))) == 1
    assert len(scheme_center_elements(sl(2, 7, (1, 1)))) == 2


def test_modulus_one_rejected():
    # the modulus is outside input (--mod, [model] mod), checked before anything else
    for m in (0, 1):
        for args in (("SL", 3, m, (1, 1, 1)), ("Sp", 6, m, "weird")):
            with pytest.raises(ValueError, match="^modulus must be at least 2$"):
                GroupModel(*args)


def test_block_validation():
    with pytest.raises(ValueError):
        GroupModel("SL", 3, 4, (3,))  # no proper parabolic
    with pytest.raises(ValueError):
        GroupModel("SL", 3, 4, (2, 2))
    with pytest.raises(ValueError):
        GroupModel("Sp", 4, 3, "weird")
    with pytest.raises(ValueError):
        GroupModel("Sp", 6, 3, "borel")


def test_rel_roots_match_block_picture():
    m = sl(4, 2, (1, 2, 1))
    # oracle: interval vectors for all ordered block pairs
    expected = set()
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            lo, hi = min(i, j), max(i, j)
            sign = 1 if i < j else -1
            expected.add(tuple(sign if lo <= t < hi else 0 for t in range(2)))
    assert set(m.rel_roots) == expected
    assert m.v_dim((1, 0)) == 2  # blocks 1 x 2
    assert m.v_dim((1, 1)) == 1


@pytest.mark.parametrize(
    "n,blocks",
    [(3, (1, 1, 1)), (3, (1, 2)), (4, (1, 1, 1, 1)), (4, (2, 2)), (4, (1, 2, 1)), (4, (1, 3))],
)
def test_block_roots_against_abstract_projection(n, blocks):
    """The block-derived relative data must agree with the projection of
    A_{n-1} that kills the interior simple roots of the Levi."""
    from chevlat import relroots, rootsys

    model = sl(n, 2, blocks)
    base = rootsys.build_root_system(rootsys.RootSystemType("A", n - 1))
    cuts = set()
    s = 0
    for b in blocks[:-1]:
        s += b
        cuts.add(s - 1)  # 0-based simple root at each block boundary
    rel = relroots.build_relative(relroots.RelativeDatum(base, frozenset(cuts), ()))
    assert set(model.rel_roots) == rel.rel_roots
    for alpha in model.rel_roots:
        assert model.v_dim(alpha) == len(rel.fiber(alpha))


def test_sp4_rel_roots_by_parabolic():
    assert set(sp(3, "borel").rel_roots) == {
        (1, 0), (0, 1), (1, 1), (2, 1), (-1, 0), (0, -1), (-1, -1), (-2, -1)
    }
    assert set(sp(3, "line").rel_roots) == {(1,), (2,), (-1,), (-2,)}
    assert set(sp(3, "siegel").rel_roots) == {(1,), (-1,)}
    assert sp(3, "line").v_dim((1,)) == 2
    assert sp(3, "line").v_dim((2,)) == 1
    assert sp(3, "siegel").v_dim((1,)) == 3


def test_inverse_and_membership_on_stacks(sl3_4, sp4_3):
    rng = np.random.default_rng(11)
    for ctx in (sl3_4, sp4_3):
        model, t = ctx.model, ctx.table
        elements = t.mat(rng.integers(0, t.N, size=24))
        others = rng.integers(0, model.m, size=(24, model.degree, model.degree))
        stack = np.stack([elements, others])  # a (2, 24, n, n) stack
        member = model.is_element(stack)
        assert member.shape == (2, 24) and member[0].all()
        assert member.tolist() == [[bool(model.is_element(g)) for g in row] for row in stack]
        assert all(is_0d_bool(model.is_element(g)) for g in others)
        inv = model.inverse(elements)
        for g, gi in zip(elements, inv):
            assert (gi == model.inverse(g)).all()
            assert ((g @ gi) % model.m == np.eye(model.degree, dtype=np.int64)).all()
        assert (model.inverse(stack[None])[0, 0] == inv).all()
