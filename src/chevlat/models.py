"""Matrix models of SL_n and Sp_4 over Z/m with block-parabolic data.

Relative roots are integer vectors.  For SL_n with a block composition
(n_1, ..., n_K) the relative root of block pair (i, j), i < j, is the 0/1
vector supported on the crossed block boundaries i..j-1, which matches the
projection of A_{n-1} killing the interior simple roots.  For Sp_4 the
relative data is taken from the abstract projection of C_2.

A relative root element X_alpha(v) is the product, in a fixed order, of the
one-parameter root elements of the fiber of alpha; any polynomial
corrections appearing in products and commutators are read off numerically
from the matrices rather than carried symbolically.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import relroots, rootsys
from .rings import (
    ZmIdeal, ZmRing, adjugate_int, det_int, identity_mat, mat_inverse_mod, mat_mul, unit_inverses,
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
def _c2_relative(j: frozenset) -> relroots.RelativeRootSystem:
    c2 = rootsys.build_root_system(rootsys.RootSystemType("C", 2))
    return relroots.build_relative(relroots.RelativeDatum(c2, j, ((0, 1),)))


def _fiber_order(fiber, positive: bool) -> list[Vec]:
    """Height-then-lex on a positive fiber; negatives mirror the positives."""
    if positive:
        return sorted(fiber, key=lambda v: (sum(v), v))
    pos = sorted((tuple(-c for c in v) for v in fiber), key=lambda v: (sum(v), v))
    return [tuple(-c for c in v) for v in pos]


@dataclass(frozen=True)
class GroupModel:
    kind: str  # "SL" or "Sp"
    degree: int
    ring: ZmRing
    blocks: tuple  # composition of degree for SL; parabolic name for Sp

    def __post_init__(self):
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

    @property
    def m(self) -> int:
        return self.ring.modulus

    @property
    def n(self) -> int:
        return self.degree

    def name(self) -> str:
        return f"{self.kind}{self.degree}(Z/{self.m})[{self.blocks}]"

    def with_blocks(self, blocks) -> "GroupModel":
        return GroupModel(self.kind, self.degree, self.ring, blocks)

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
        starts, s = [], 0
        for b in self.block_sizes:
            starts.append(s)
            s += b
        return tuple(starts)

    def block_range(self, i: int) -> range:
        s = self._block_starts[i]
        return range(s, s + self.block_sizes[i])

    @cached_property
    def _sl_pairs(self) -> dict[Vec, tuple[int, int]]:
        k = len(self.blocks)
        out = {}
        for i in range(k):
            for j in range(k):
                if i == j:
                    continue
                if i < j:
                    vec = tuple(1 if i <= t < j else 0 for t in range(k - 1))
                else:
                    vec = tuple(-1 if j <= t < i else 0 for t in range(k - 1))
                out[vec] = (i, j)
        return out

    @cached_property
    def _sp_relative(self) -> relroots.RelativeRootSystem:
        return _c2_relative(SP4_PARABOLICS[self.blocks]["J"])

    @property
    def rel_roots(self) -> list[Vec]:
        if self.kind == "SL":
            return sorted(self._sl_pairs, key=lambda v: (sum(v), v))
        return sorted(self._sp_relative.rel_roots, key=lambda v: (sum(v), v))

    @property
    def positive_rel_roots(self) -> list[Vec]:
        return [a for a in self.rel_roots if rootsys.is_positive(a)]

    def is_rel_root(self, v: Vec) -> bool:
        if self.kind == "SL":
            return v in self._sl_pairs
        return v in self._sp_relative.rel_roots

    def v_dim(self, alpha: Vec) -> int:
        if self.kind == "SL":
            i, j = self._sl_pairs[alpha]
            return self.blocks[i] * self.blocks[j]
        return len(self._sp_relative.fiber(alpha))

    def v_tuples(self, alpha: Vec, ideal: ZmIdeal | None = None):
        vals = ideal.elements() if ideal is not None else range(self.m)
        return itertools.product(vals, repeat=self.v_dim(alpha))

    def v_basis(self, alpha: Vec) -> list[Vec]:
        d = self.v_dim(alpha)
        return [tuple(1 if t == s else 0 for t in range(d)) for s in range(d)]

    # -- matrices ------------------------------------------------------------

    def identity(self) -> np.ndarray:
        return identity_mat(self.degree)

    def x(self, alpha: Vec, v: Vec) -> np.ndarray:
        """Relative root element X_alpha(v)."""
        if not self.is_rel_root(alpha):
            raise ValueError(f"{alpha} is not a relative root of {self.name()}")
        if self.kind == "SL":
            i, j = self._sl_pairs[alpha]
            g = self.identity()
            ri, rj = self.block_range(i), self.block_range(j)
            block = np.array(v, dtype=np.int64).reshape(len(ri), len(rj))
            g[ri.start:ri.stop, rj.start:rj.stop] = block % self.m
            return g
        fiber = _fiber_order(self._sp_relative.fiber(alpha), rootsys.is_positive(alpha))
        g = self.identity()
        for t, delta in enumerate(fiber):
            g = mat_mul(g, self.identity() + (v[t] % self.m) * SP4_ROOT_MATS[delta], self.m)
        return g

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

    def all_elementary_generators(self) -> list[np.ndarray]:
        return [
            self.elementary_generator(p, t)
            for p in self.generator_positions()
            for t in range(1, self.m)
        ]

    def inverse(self, g: np.ndarray) -> np.ndarray:
        """Inverse of one group element or of a (..., n, n) stack of them."""
        g = np.asarray(g, dtype=np.int64)
        if self.kind == "SL":
            return adjugate_int(g) % self.m  # det = 1
        return (-SP4_FORM @ g.swapaxes(-1, -2) @ SP4_FORM) % self.m

    # -- membership ----------------------------------------------------------

    def is_element(self, g: np.ndarray):
        """Membership of one matrix (a bool) or of a (..., n, n) stack (a
        bool array)."""
        g = np.asarray(g, dtype=np.int64)
        if self.kind == "SL":
            ok = det_int(g) % self.m == 1
        else:
            lhs = (g.swapaxes(-1, -2) @ SP4_FORM @ g) % self.m
            ok = (lhs == SP4_FORM % self.m).all(axis=(-2, -1))
        return bool(ok) if g.ndim == 2 else ok

    def _block_of(self, idx: int) -> int:
        for b, r in enumerate(self.block_sizes):
            if idx < self._block_starts[b] + r:
                return b
        raise IndexError(idx)

    def in_parabolic(self, g: np.ndarray, negative: bool = False) -> bool:
        if not self.is_element(g):
            return False
        n = self.degree
        for r in range(n):
            for c in range(n):
                br, bc = self._block_of(r), self._block_of(c)
                if (br > bc if not negative else br < bc) and g[r, c] % self.m:
                    return False
        return True

    def in_levi(self, g: np.ndarray) -> bool:
        return self.in_parabolic(g) and self.in_parabolic(g, negative=True)

    def levi_elements(self) -> list[np.ndarray]:
        """Full enumeration of the Levi subgroup."""
        m = self.m
        if self.kind == "SL":
            per_block = []
            for size in self.block_sizes:
                gls = []
                for entries in itertools.product(range(m), repeat=size * size):
                    b = np.array(entries, dtype=np.int64).reshape(size, size)
                    d = det_int(b) % m
                    if math.gcd(d, m) == 1:
                        gls.append((b, d))
                per_block.append(gls)
            out = []
            for combo in itertools.product(*per_block):
                d = 1
                for _, dd in combo:
                    d = d * dd % m
                if d != 1:
                    continue
                g = np.zeros((self.degree, self.degree), dtype=np.int64)
                for (b, _), i in zip(combo, range(len(self.block_sizes))):
                    r = self.block_range(i)
                    g[r.start:r.stop, r.start:r.stop] = b
                out.append(g)
            return out
        units = self.ring.units()
        out = []
        if self.blocks == "borel":
            for t, u in itertools.product(units, repeat=2):
                out.append(np.diag([t, u, pow(u, -1, m), pow(t, -1, m)]).astype(np.int64))
        elif self.blocks == "line":
            for t in units:
                for entries in itertools.product(range(m), repeat=4):
                    sl2 = np.array(entries, dtype=np.int64).reshape(2, 2)
                    if det_int(sl2) % m != 1:
                        continue
                    g = np.zeros((4, 4), dtype=np.int64)
                    g[0, 0] = t
                    g[1:3, 1:3] = sl2
                    g[3, 3] = pow(t, -1, m)
                    out.append(g)
        else:  # siegel
            K = np.array([[0, 1], [1, 0]], dtype=np.int64)
            for entries in itertools.product(range(m), repeat=4):
                a = np.array(entries, dtype=np.int64).reshape(2, 2)
                ainv = mat_inverse_mod(a, m)
                if ainv is None:
                    continue
                g = np.zeros((4, 4), dtype=np.int64)
                g[0:2, 0:2] = a
                g[2:4, 2:4] = (K @ ainv.T @ K) % m
                out.append(g)
        assert all(self.in_levi(g) for g in out)
        return out


def gauss_cell_factors(model: GroupModel, mats: np.ndarray):
    """Main-cell factorization g = u * l * v over U_P L_P U_{P^-} of a
    (k, n, n) stack: (member, u, l, v), where member[i] says whether g[i]
    lies in the cell and u[i], l[i], v[i] are its factors when it does
    (and meaningless when it does not).

    Membership is decided by invertibility of the trailing block pivots
    (equivalently of the trailing principal minors); the factorization is
    the block Schur elimination anchored at the bottom-right corner.
    """
    m = model.m
    n = model.degree
    sizes = model.block_sizes
    starts = model._block_starts
    g = np.asarray(mats, dtype=np.int64) % m
    S = g.copy()
    u = np.broadcast_to(identity_mat(n), g.shape).copy()
    v = u.copy()
    member = np.ones(len(g), dtype=bool)
    l = np.zeros_like(g)
    for t in range(len(sizes) - 1, 0, -1):
        s, e = starts[t], starts[t] + sizes[t]
        D = S[:, s:e, s:e]
        dinv = unit_inverses(m)[det_int(D) % m]  # 0 marks a non-unit
        member &= dinv != 0
        Dinv = (adjugate_int(D) * dinv[:, None, None]) % m
        B = S[:, 0:s, s:e]
        C = S[:, s:e, 0:s]
        U = np.broadcast_to(identity_mat(n), g.shape).copy()
        U[:, 0:s, s:e] = (B @ Dinv) % m
        V = np.broadcast_to(identity_mat(n), g.shape).copy()
        V[:, s:e, 0:s] = (Dinv @ C) % m
        u = mat_mul(u, U, m)
        v = mat_mul(V, v, m)
        l[:, s:e, s:e] = D
        S[:, 0:s, 0:s] = (S[:, 0:s, 0:s] - B @ Dinv @ C) % m
    l[:, 0:starts[1], 0:starts[1]] = S[:, 0:starts[1], 0:starts[1]]
    cell = u[member], l[member], v[member]
    assert (mat_mul(mat_mul(cell[0], cell[1], m), cell[2], m) == g[member]).all()
    if model.kind == "Sp":
        # the GL-level factors of a symplectic point must land in the group
        for f in cell:
            if not model.is_element(f).all():
                raise RuntimeError("Gauss factors left the symplectic group")
    return member, u, l, v


def gauss_cell_membership(model: GroupModel, g: np.ndarray):
    """Factor one matrix g = u * l * v over the main cell U_P L_P U_{P^-}, or
    None when g is outside it; see gauss_cell_factors."""
    member, u, l, v = gauss_cell_factors(model, np.asarray(g)[None, :, :])
    return (u[0], l[0], v[0]) if member[0] else None


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
        d = {
            "model": self.model,
            "absolute_type": self.absolute_type,
            "irreducible": self.irreducible,
            "structure_primes": list(self.structure_primes),
            "primes_invertible": self.primes_invertible,
            "isotropic_rank": self.isotropic_rank,
            "rank_ok": self.rank_ok,
            "perfect_ok": self.perfect_ok,
            "main_ok": self.main_ok,
        }
        return d


def hypothesis_check(model: GroupModel) -> HypothesisReport:
    sys = rootsys.build_root_system(model.absolute_type)
    primes = sorted(rootsys.structure_constant_primes(sys))
    invertible = all(math.gcd(p, model.m) == 1 for p in primes)
    rank = model.degree - 1 if model.kind == "SL" else 2
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


def order_formula(model: GroupModel) -> int:
    """Exact group order, multiplicative over the prime powers of m."""
    order = 1
    m = model.m
    d = 2
    while d * d <= m:
        if m % d == 0:
            k = 0
            while m % d == 0:
                m //= d
                k += 1
            order *= _prime_power_order(model, d, k)
        d += 1
    if m > 1:
        order *= _prime_power_order(model, m, 1)
    return order


def _prime_power_order(model: GroupModel, p: int, k: int) -> int:
    n = model.degree
    if model.kind == "SL":
        base = p ** (n * (n - 1) // 2)
        for i in range(2, n + 1):
            base *= p**i - 1
        return base * p ** ((k - 1) * (n * n - 1))
    base = p**4 * (p**2 - 1) * (p**4 - 1)
    return base * p ** ((k - 1) * 10)


def scheme_center_elements(model: GroupModel) -> list[np.ndarray]:
    """Points of the center subscheme: scalars with det 1 for SL_n, +-1 for Sp_4."""
    m = model.m
    if model.kind == "SL":
        return [
            (lam * identity_mat(model.degree)) % m
            for lam in range(1, m)
            if math.gcd(lam, m) == 1 and pow(lam, model.degree, m) == 1
        ]
    out = [identity_mat(4)]
    if (-1) % m != 1:
        out.append((-identity_mat(4)) % m)
    return out
