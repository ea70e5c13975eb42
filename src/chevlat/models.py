"""Matrix models of SL_n and Sp_4 over Z/m with block-parabolic data.

Relative roots are integer vectors, for both kinds the projection
(`relroots`) of the absolute type killing the simple roots inside the
blocks.  For SL_n with a block composition (n_1, ..., n_K) the relative root
of block pair (i, j), i < j, is the 0/1 vector supported on the crossed
block boundaries i..j-1, and -1 on them for (j, i).

The parabolic P is its block composition alone, as one block number per row
and column: P, its opposite P^- and the Levi subgroup L_P are the elements
vanishing below, above and off the block diagonal, tested as masks.  The
one scan of the elements on a support is `scan_on`, of their keys (sorted
and decoded by `elements_on`, for L_P); it decides every filling of the
support by the defining equation, factored so that fillings share work: the
first-row cofactors of det for SL_n, a pairing table per column pair for Sp_4.

The values v of V_alpha are the rows of `values(alpha)`, in base-m order;
`x` maps any (..., d) array of them to the stack of the X_alpha(v): v fills
alpha's block for SL_n, and for Sp_4 X_alpha(v) is the product, in a fixed
order, of the one-parameter root elements of the fiber of alpha.  Membership
tests take stacks and return bool arrays, 0-d for one matrix.  Polynomial
corrections in products and commutators are read off numerically.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import relroots, rootsys
from .errors import SizeCapError, TableBoundError
from .rings import (
    adjugate_int, det_int, draws, factorize, first_row_cofactors, from_digits, identity_mat,
    mat_mul, to_digits, unit_inverses,
)

Vec = tuple[int, ...]

SP4_FORM = np.array(
    [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]], dtype=np.int64
)


def _unit(r: int, c: int) -> np.ndarray:
    z = np.zeros((4, 4), dtype=np.int64)
    z[r, c] = 1
    return z


# One-parameter subgroups of Sp_4, keyed by C_2 root coordinates
# (alpha_1 short, alpha_2 long); negatives are the transposes.
_SP4_POSITIVE = {
    (1, 0): _unit(0, 1) - _unit(2, 3),
    (0, 1): _unit(1, 2),
    (1, 1): _unit(0, 2) + _unit(1, 3),
    (2, 1): _unit(0, 3),
}
SP4_ROOT_MATS = dict(_SP4_POSITIVE)
for _k, _v in _SP4_POSITIVE.items():
    SP4_ROOT_MATS[(-_k[0], -_k[1])] = _v.T.copy()

SP4_PARABOLICS = {
    "borel": {"J": frozenset({0, 1}), "sizes": (1, 1, 1, 1)},
    "line": {"J": frozenset({0}), "sizes": (1, 2, 1)},
    "siegel": {"J": frozenset({1}), "sizes": (2, 2)},
}


@lru_cache(maxsize=None)
def _relative_system(rtype: rootsys.RootSystemType, J: frozenset) -> relroots.RelativeRootSystem:
    return relroots.build_relative(relroots.RelativeDatum(rootsys.build_root_system(rtype), J, ()))


def _block_pair(alpha: Vec) -> tuple[int, int]:
    """The block pair (i, j) of an SL_n relative root alpha: alpha is 1 on the
    block boundaries i..j-1 when i < j, -1 on j..i-1 when i > j."""
    lo = next(t for t, c in enumerate(alpha) if c)
    hi = lo + sum(map(abs, alpha))
    return (lo, hi) if alpha[lo] > 0 else (hi, lo)


def _fiber_order(fiber, positive: bool) -> list[Vec]:
    """Height-then-lex on a positive fiber; negatives mirror the positives."""
    if positive:
        return sorted(fiber, key=lambda v: (sum(v), v))
    pos = sorted((tuple(-c for c in v) for v in fiber), key=lambda v: (sum(v), v))
    return [tuple(-c for c in v) for v in pos]


@dataclass(frozen=True)
class GroupModel:
    """SL_n or Sp_4 over Z/m with a parabolic; an ideal of Z/m is its generator d | m."""

    kind: str  # "SL" or "Sp"
    degree: int
    m: int
    blocks: tuple  # composition of degree for SL; parabolic name for Sp

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("modulus must be at least 2")
        if self.kind == "SL":
            if self.degree < 2:
                raise ValueError("SL needs degree >= 2")
            if not isinstance(self.blocks, tuple) or sum(self.blocks) != self.degree:
                raise ValueError(f"blocks {self.blocks} must compose {self.degree}")
            if len(self.blocks) < 2 or any(b < 1 for b in self.blocks):
                raise ValueError("need a proper parabolic: at least two positive blocks")
        elif self.kind == "Sp":
            if self.degree != 4:
                raise ValueError("only Sp_4 is modeled")
            if self.blocks not in SP4_PARABOLICS:
                raise ValueError(f"Sp_4 parabolic must be one of {sorted(SP4_PARABOLICS)}")
        else:
            raise ValueError(f"unknown kind {self.kind!r}")

    def name(self) -> str:
        return f"{self.kind}{self.degree}(Z/{self.m})[{self.blocks}]"

    def with_blocks(self, blocks) -> "GroupModel":
        return GroupModel(self.kind, self.degree, self.m, blocks)

    # -- absolute and relative root data ------------------------------------

    @property
    def absolute_type(self) -> rootsys.RootSystemType:
        if self.kind == "SL":
            return rootsys.RootSystemType("A", self.degree - 1)
        return rootsys.RootSystemType("C", 2)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        if self.kind == "SL":
            return self.blocks
        return SP4_PARABOLICS[self.blocks]["sizes"]

    @cached_property
    def _block_starts(self) -> tuple[int, ...]:
        return tuple(itertools.accumulate(self.block_sizes[:-1], initial=0))

    def block_range(self, i: int) -> range:
        s = self._block_starts[i]
        return range(s, s + self.block_sizes[i])

    @cached_property
    def _relative(self) -> relroots.RelativeRootSystem:
        """The projection of the absolute type killing the simple roots inside the blocks."""
        if self.kind == "SL":
            J = frozenset(s - 1 for s in self._block_starts[1:])
        else:
            J = SP4_PARABOLICS[self.blocks]["J"]
        return _relative_system(self.absolute_type, J)

    @property
    def rel_roots(self) -> list[Vec]:
        return sorted(self._relative.rel_roots, key=lambda v: (sum(v), v))

    @property
    def positive_rel_roots(self) -> list[Vec]:
        return [a for a in self.rel_roots if rootsys.is_positive(a)]

    def is_rel_root(self, v: Vec) -> bool:
        return v in self._relative.rel_roots

    def v_dim(self, alpha: Vec) -> int:
        return len(self._relative.fiber(alpha))

    @lru_cache(maxsize=None)
    def values(self, alpha: Vec) -> np.ndarray:
        """Every v of V_alpha, an (m**d, d) array in base-m order: code 0 is v = 0; read-only."""
        vs = to_digits(np.arange(self.m ** self.v_dim(alpha)), self.m, self.v_dim(alpha))
        vs.flags.writeable = False
        return vs

    # -- matrices ------------------------------------------------------------

    def identity(self) -> np.ndarray:
        return identity_mat(self.degree)

    def x(self, alpha: Vec, v) -> np.ndarray:
        """Relative root elements X_alpha(v) of a (..., d) array of values, a (..., n, n) stack."""
        if not self.is_rel_root(alpha):
            raise ValueError(f"{alpha} is not a relative root of {self.name()}")
        v, n = np.asarray(v, dtype=np.int64) % self.m, self.degree
        if self.kind == "SL":
            (ri, rj), lead = map(self.block_range, _block_pair(alpha)), v.shape[:-1]
            g = np.broadcast_to(self.identity(), (*lead, n, n)).copy()
            g[..., ri.start:ri.stop, rj.start:rj.stop] = v.reshape(*lead, len(ri), len(rj))
            return g
        fiber = _fiber_order(self._relative.fiber(alpha), rootsys.is_positive(alpha))
        return self.mul(*(self.identity() + v[..., t, None, None] * SP4_ROOT_MATS[delta]
                          for t, delta in enumerate(fiber)))

    def mul(self, *mats) -> np.ndarray:
        """The product mod m of a chain of matrices or stacks (rings.mat_mul)."""
        return mat_mul(*mats, m=self.m, what=f"{self.name()}: a matrix product")

    def elementary_generator(self, position, t: int) -> np.ndarray:
        """A single one-parameter generator: e + t*e_ij for SL_n, the root
        element of an absolute C_2 root for Sp_4."""
        if self.kind == "SL":
            i, j = position
            if i == j:
                raise ValueError("off-diagonal position required")
            g = self.identity()
            g[i, j] = t % self.m
            return g
        if position not in SP4_ROOT_MATS:
            raise ValueError(f"{position} is not a C_2 root")
        return (self.identity() + (t % self.m) * SP4_ROOT_MATS[position]) % self.m

    def generator_positions(self) -> list:
        if self.kind == "SL":
            return [(i, j) for i in range(self.degree) for j in range(self.degree) if i != j]
        return sorted(SP4_ROOT_MATS, key=lambda v: (sum(v), v))

    def generator_mats(self) -> list[np.ndarray]:
        """One generator per position with parameter 1; these generate the
        same subgroup as the full one-parameter families."""
        return [self.elementary_generator(p, 1) for p in self.generator_positions()]

    def simple_generator_mats(self) -> list[np.ndarray]:
        """The generators of generator_mats at the simple roots and their
        negatives, 2 * rank of them: (i, i + 1) and (i + 1, i) for SL_n, (+-1, 0)
        and (0, +-1) for Sp_4.  They generate the same subgroup E(R): w_alpha(1)
        lies in <x_{+-alpha}(1)> and moves them onto every root, and x_alpha(t)
        = x_alpha(1)**t over Z/m (Steinberg, Lectures on Chevalley Groups,
        1968, §3)."""
        rank = self.absolute_type.rank
        simple = {tuple(s * (t == u) for t in range(rank)) for u in range(rank) for s in (1, -1)}
        if self.kind == "SL":  # e_i - e_j at position (i, j): a block pair of 1 x 1 blocks
            simple = set(map(_block_pair, simple))
        return [self.elementary_generator(p, 1) for p in self.generator_positions() if p in simple]

    @cached_property
    def generator_stack(self) -> np.ndarray:
        """[i, t]: elementary_generator(p, t), p the i-th position; shared, so read-only."""
        stack = np.array([[self.elementary_generator(p, t) for t in range(self.m)]
                          for p in self.generator_positions()])
        stack.flags.writeable = False
        return stack

    def all_elementary_generators(self) -> np.ndarray:
        """The generators with t != 0, position by position, as one stack."""
        return self.generator_stack[:, 1:].reshape(-1, self.degree, self.degree)

    def inverse(self, g: np.ndarray) -> np.ndarray:
        """Inverse of one group element or of a (..., n, n) stack of them."""
        g = np.asarray(g, dtype=np.int64)
        if self.kind == "SL":
            return adjugate_int(g) % self.m  # det = 1
        return self.mul(-SP4_FORM, g.swapaxes(-1, -2), SP4_FORM)

    # -- membership ----------------------------------------------------------

    def is_element(self, g: np.ndarray) -> np.ndarray:
        """Membership of a (..., n, n) stack, a bool (...) array (0-d for one matrix)."""
        g = np.asarray(g, dtype=np.int64)
        if self.kind == "SL":
            return np.asarray(det_int(g) % self.m == 1)
        ok = self.mul(g.swapaxes(-1, -2), SP4_FORM, g) == SP4_FORM % self.m
        return np.asarray(ok.all(axis=(-2, -1)))

    @cached_property
    def _block_index(self) -> np.ndarray:
        """Block number of each row and column index."""
        return np.repeat(np.arange(len(self.block_sizes)), self.block_sizes)

    def in_parabolic(self, g: np.ndarray, negative: bool = False) -> np.ndarray:
        """Membership of P (of the opposite P^- when negative) of a (..., n, n)
        stack, a bool (...) array: group elements with no nonzero entry below
        (above) the block diagonal."""
        g, b = np.asarray(g, dtype=np.int64), self._block_index
        outside = b[:, None] < b if negative else b[:, None] > b
        return np.asarray(self.is_element(g) & ~(g % self.m * outside).any(axis=(-2, -1)))

    def in_levi(self, g: np.ndarray) -> np.ndarray:
        return np.asarray(self.in_parabolic(g) & self.in_parabolic(g, negative=True))

    def levi_elements(self) -> np.ndarray:
        """Full enumeration of the Levi subgroup: the group elements on the
        block diagonal, as one stack."""
        return elements_on(self, self._block_index[:, None] == self._block_index)


SCAN_BOUND = 1 << 22  # fillings scan_on decides; a larger scan is refused up front
_CHUNK = 8192  # fillings of rows 1..n-1 per cofactor stack in scan_on
_BLOCK = 1 << 20  # fillings decided per block of scan_on, bounding its arrays


def check_key_bound(model: GroupModel):
    """TableBoundError when base-m keys of n x n matrices could pass 2**63 - 1."""
    m, n = model.m, model.degree
    if m ** (n * n) > 2**63 - 1:
        raise TableBoundError(m ** (n * n), 2**63 - 1, f"{model.name()}: base-{m} keys of {n}x{n} "
                              f"matrices reach {m}**{n * n}, past the int64 bound 2**63 - 1")


def scan_on(model: GroupModel, support: np.ndarray) -> np.ndarray:
    """The int64 keys (`table.matrix_keys`) of the group elements that are 0
    off an (n, n) bool support, in scan order.  All m**s fillings of the s
    supported entries are decided exactly, in blocks that bound memory: SL_n
    by det g = sum_j g_0j C_0j, the C_0j once per filling of rows 1..n-1, the
    first rows of det 1 once per class of C_0j that occurs (O(m**(n(n-1)) + N)
    in all), a key the first row's plus the other rows'; Sp_4 by (g^T J g)_ab
    = c_a^T J c_b, a table of column fillings per pair a < b (c^T J c = 0 =
    J_aa), a key the sum of its columns'.  Refused up front: more than SCAN_BOUND
    fillings (SizeCapError), then keys past int64 (TableBoundError)."""
    m, n = model.m, model.degree
    pos = np.flatnonzero(support)
    if m ** len(pos) > SCAN_BOUND:
        raise SizeCapError(m ** len(pos), SCAN_BOUND, f"{model.name()} predicate scan", "fillings")
    check_key_bound(model)
    return np.concatenate(list(_sl_scan(m, n, pos) if model.kind == "SL" else _sp_scan(m, support)))


def elements_on(model: GroupModel, support: np.ndarray) -> np.ndarray:
    """scan_on's keys decoded, in lexicographic order of the supported entries, row by row."""
    m, n, pos = model.m, model.degree, np.flatnonzero(support)
    mats = to_digits(scan_on(model, support), m, n * n)[:, ::-1]  # a key's entry 0 is least
    return mats[np.argsort(from_digits(mats[:, pos], m))].reshape(-1, n, n)


def _fill(codes: np.ndarray, pos: np.ndarray, m: int, size: int) -> np.ndarray:
    """The (k, size) arrays holding the base-m digits of codes at the
    positions pos, first position most significant, and 0 elsewhere."""
    out = np.zeros((len(codes), size), dtype=np.int64)
    out[:, pos] = to_digits(codes, m, len(pos))
    return out


def _sl_scan(m: int, n: int, pos: np.ndarray):
    """Blocks of the keys of the fillings of pos with det = 1: a stack of
    fillings of rows 1..n-1 sorted by their first-row cofactors C, the tops of
    det 1 found per C, each (C, top) pair taking its C's run by segment arithmetic."""
    first, rest = pos[pos < n], pos[pos >= n]
    n_first, n_rest = m ** len(first), m ** len(rest)
    digit = m ** np.arange(n * n, dtype=np.int64)  # entry weights in a key, row by row
    chunk = max(1, min(_CHUNK, _BLOCK // n_first))  # a stack's pairs stay within _BLOCK
    for lo in range(0, n_rest, chunk):
        lower = _fill(np.arange(lo, min(lo + chunk, n_rest)), rest, m, n * n)
        cof = first_row_cofactors(lower.reshape(-1, n, n)) % m  # row 0 is 0 and is not read
        codes = cof @ digit[:n]  # C read as a number
        order = np.argsort(codes)
        _, start, count = np.unique(codes[order], return_index=True, return_counts=True)
        classes, lower_keys = cof[order[start]], (lower @ digit)[order]
        step = max(1, _BLOCK // len(classes))
        for f_lo in range(0, n_first, step):
            top = _fill(np.arange(f_lo, min(f_lo + step, n_first)), first, m, n)
            det = classes @ top.T
            det %= m
            c, i = np.divmod(np.flatnonzero(det == 1), len(top))
            del det  # before the next block's
            reps = count[c]  # pair (c, i) takes lower_keys[start[c]:][:count[c]]
            at = np.repeat(start[c] - np.cumsum(reps) + reps, reps) + np.arange(reps.sum())
            yield np.repeat(top[i] @ digit[:n], reps) + lower_keys[at]


def _sp_scan(m: int, support: np.ndarray):
    """Blocks of the keys of the fillings of the support with g^T J g = J."""
    n = len(support)
    cols = [_fill(np.arange(m ** support[:, a].sum()), np.flatnonzero(support[:, a]), m, n)
            for a in range(n)]  # every filling of each column
    pairs = [(a, b, mat_mul(cols[a], SP4_FORM, cols[b].T, m=m) == SP4_FORM[a, b] % m)
             for a, b in itertools.combinations(range(n), 2)]
    # entry (r, a) weighs m**(r n + a): the key of each filling of column a
    col_keys = [c @ m ** (np.arange(n, dtype=np.int64) * n + a) for a, c in enumerate(cols)]
    sizes = [len(c) for c in cols]
    step = max(1, _BLOCK // math.prod(sizes[1:]))
    for lo in range(0, sizes[0], step):
        alive = np.ones((min(step, sizes[0] - lo), *sizes[1:]), dtype=bool)
        for a, b, ok in pairs:
            ok = ok[lo:lo + len(alive)] if a == 0 else ok
            shape = [1] * n
            shape[a], shape[b] = ok.shape
            alive &= ok.reshape(shape)
        idx = np.nonzero(alive)
        yield col_keys[0][lo + idx[0]] + sum(col_keys[a][idx[a]] for a in range(1, n))


def gauss_cell_factors(model: GroupModel, mats: np.ndarray):
    """Main-cell factorization g = u * l * v over U_P L_P U_{P^-} of a
    (k, n, n) stack: (member, u, l, v), where member[i] says whether g[i]
    lies in the cell and u[i], l[i], v[i] are its factors when it does
    (and meaningless when it does not).

    Membership is decided by invertibility of the trailing block pivots
    (equivalently of the trailing principal minors); the factorization is
    the block Schur elimination anchored at the bottom-right corner.
    """
    m, sizes, starts, b = model.m, model.block_sizes, model._block_starts, model._block_index
    g = np.asarray(mats, dtype=np.int64) % m
    S = g.copy()
    u = np.broadcast_to(identity_mat(model.degree), g.shape).copy()
    v = u.copy()
    member = np.ones(len(g), dtype=bool)
    for t in range(len(sizes) - 1, 0, -1):
        s, e = starts[t], starts[t] + sizes[t]
        D = S[:, s:e, s:e]
        dinv = unit_inverses(m)[det_int(D) % m]  # 0 marks a non-unit
        member &= dinv != 0
        Dinv = (adjugate_int(D) * dinv[:, None, None]) % m
        BD, DC = model.mul(S[:, 0:s, s:e], Dinv), model.mul(Dinv, S[:, s:e, 0:s])
        # u U and V v, U and V the identity with BD and DC in their blocks
        u[:, :, s:e] = (u[:, :, s:e] + model.mul(u[:, :, 0:s], BD)) % m
        v[:, s:e] = (v[:, s:e] + model.mul(DC, v[:, 0:s])) % m
        S[:, 0:s, 0:s] = (S[:, 0:s, 0:s] - model.mul(BD, S[:, s:e, 0:s])) % m
    l = S * (b[:, None] == b)  # the pivots D and the last Schur complement, block by block
    cell = u[member], l[member], v[member]
    assert (model.mul(*cell) == g[member]).all()
    if model.kind == "Sp":
        # the GL-level factors of a symplectic point must land in the group
        for f in cell:
            if not model.is_element(f).all():
                raise RuntimeError("Gauss factors left the symplectic group")
    return member, u, l, v


def sampled_gauss_roundtrip_check(model: GroupModel, samples: int, rng) -> bool:
    """Whether the identity lies in the main cell.  Every sampled product of
    four random elementary generators is factored as one stack, and the
    round trip u*l*v = g on each that lies in the cell is the assert of
    gauss_cell_factors, which ends the run where it fails.  The generators'
    positions and their parameters are two draws from rng."""
    m, stack = model.m, model.generator_stack
    ok = bool(gauss_cell_factors(model, model.identity()[None])[0][0])
    gens = stack[draws(rng, len(stack), samples, 4), draws(rng, m, samples, 4)]
    gauss_cell_factors(model, model.mul(*gens.swapaxes(0, 1)))
    return ok


@dataclass(frozen=True)
class HypothesisReport:
    model: str
    absolute_type: str
    irreducible: bool
    structure_primes: tuple[int, ...]
    primes_invertible: bool
    isotropic_rank: int
    rank_ok: bool
    perfect_ok: bool

    @property
    def main_ok(self) -> bool:
        return self.irreducible and self.primes_invertible and self.rank_ok

    def as_dict(self) -> dict:
        return {**vars(self), "structure_primes": list(self.structure_primes),
                "main_ok": self.main_ok}


def hypothesis_check(model: GroupModel) -> HypothesisReport:
    sys = rootsys.build_root_system(model.absolute_type)
    primes = sorted(rootsys.structure_constant_primes(sys))
    invertible = all(math.gcd(p, model.m) == 1 for p in primes)
    rank = model.absolute_type.rank
    # the residue fields of Z/m are F_p for p | m; F_2 is fatal for C_2/G_2
    residue_two = model.m % 2 == 0
    perfect_ok = rank >= 2 and not (model.absolute_type.family in "CG" and residue_two)
    return HypothesisReport(
        model=model.name(),
        absolute_type=str(model.absolute_type),
        irreducible=True,
        structure_primes=tuple(primes),
        primes_invertible=invertible,
        isotropic_rank=rank,
        rank_ok=rank >= 2,
        perfect_ok=perfect_ok,
    )


def order_formula(model: GroupModel, m: int | None = None) -> int:
    """Exact order of the model's group over Z/m (by default the model's m;
    1 for m = 1), multiplicative over the prime powers of m."""
    return math.prod(_prime_power_order(model, p, k)
                     for p, k in factorize(model.m if m is None else m).items())


def _prime_power_order(model: GroupModel, p: int, k: int) -> int:
    n = model.degree
    if model.kind == "SL":
        base = p ** (n * (n - 1) // 2)
        for i in range(2, n + 1):
            base *= p**i - 1
        return base * p ** ((k - 1) * (n * n - 1))
    base = p**4 * (p**2 - 1) * (p**4 - 1)
    return base * p ** ((k - 1) * 10)


def scheme_center_elements(model: GroupModel) -> np.ndarray:
    """Points of the center subscheme, as one stack: the scalars lambda * 1 in the
    group, lambda**n = 1 for SL_n and lambda**2 = 1 for Sp_4, in increasing lambda."""
    scalars = np.arange(1, model.m)[:, None, None] * identity_mat(model.degree)
    return scalars[model.is_element(scalars)]
