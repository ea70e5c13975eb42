"""The rings Z/m, their ideal lattice, and exact modular matrix arithmetic."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def _divisors(m: int) -> list[int]:
    return sorted(d for d in range(1, m + 1) if m % d == 0)


def factorize(m: int) -> dict[int, int]:
    """The prime factorization of m, as {p: k} with p increasing."""
    out, d = {}, 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = 1
    return out


@dataclass(frozen=True)
class ZmRing:
    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be at least 2")

    def __str__(self):
        return f"Z/{self.modulus}"


@dataclass(frozen=True)
class ZmIdeal:
    """The ideal (d) of Z/m; d = m encodes the zero ideal, d = 1 the unit ideal."""

    ring: ZmRing
    d: int

    def __post_init__(self):
        if self.ring.modulus % self.d != 0 or not 1 <= self.d <= self.ring.modulus:
            raise ValueError(f"{self.d} does not divide {self.ring.modulus}")

    def elements(self) -> list[int]:
        return list(range(0, self.ring.modulus, self.d))

    def __add__(self, other: "ZmIdeal") -> "ZmIdeal":
        return ZmIdeal(self.ring, math.gcd(self.d, other.d))

    def issubset(self, other: "ZmIdeal") -> bool:
        return self.d % other.d == 0

    def __str__(self):
        return f"({self.d})"


def ring_ideals(ring: ZmRing) -> list[ZmIdeal]:
    return [ZmIdeal(ring, d) for d in _divisors(ring.modulus)]


def jacobson_radical(ring: ZmRing) -> ZmIdeal:
    """Generated by the product of the distinct primes dividing the modulus."""
    return ZmIdeal(ring, math.prod(factorize(ring.modulus)))


# -- exact matrix arithmetic mod m ------------------------------------------

def identity_mat(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def mat_mul(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    return (a.astype(np.int64) @ b.astype(np.int64)) % m


@lru_cache(maxsize=None)
def _minor_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices and cofactor signs of the n x n minors: a[..., rows, cols] is
    the (..., n, n, n-1, n-1) stack of every minor M_ij of a."""
    keep = np.array([[k for k in range(n) if k != i] for i in range(n)], dtype=np.intp)
    signs = (-1) ** np.add.outer(np.arange(n), np.arange(n))
    return keep[:, None, :, None], keep[None, :, None, :], signs


def _det(a: np.ndarray) -> np.ndarray:
    n = a.shape[-1]
    if n == 0:
        return np.ones(a.shape[:-2], dtype=np.int64)  # empty minor of a 1x1 matrix
    if n == 2:
        return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    return (a[..., 0, :] * first_row_cofactors(a)).sum(axis=-1)


def first_row_cofactors(a: np.ndarray) -> np.ndarray:
    """Cofactors C_0j of the first row of an (..., n, n) stack, an (..., n)
    array; they read rows 1..n-1 only, and det = sum_j a_0j C_0j."""
    rows, cols, signs = _minor_index(a.shape[-1])
    return signs[0] * _det(a[..., rows[0], cols[0]])


def det_int(mat):
    """Exact integer determinant of one matrix (an int) or of a (..., n, n)
    stack (an int64 array), by Laplace expansion along the first row."""
    d = _det(np.asarray(mat, dtype=np.int64))
    return int(d) if d.ndim == 0 else d


def adjugate_int(mat) -> np.ndarray:
    """Exact integer adjugate of one matrix or of a (..., n, n) stack."""
    a = np.asarray(mat, dtype=np.int64)
    rows, cols, signs = _minor_index(a.shape[-1])
    return (signs * _det(a[..., rows, cols])).swapaxes(-1, -2)


def scalar_inverse(a: int, m: int) -> int | None:
    try:
        return pow(a % m, -1, m)
    except ValueError:
        return None


@lru_cache(maxsize=None)
def unit_inverses(m: int) -> np.ndarray:
    """Read-only table x -> x^-1 mod m, with 0 where x is not a unit."""
    table = np.array([scalar_inverse(x, m) or 0 for x in range(m)], dtype=np.int64)
    table.flags.writeable = False
    return table
