"""The rings Z/m, their ideal lattice, and exact modular matrix arithmetic."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def _divisors(m: int) -> list[int]:
    return sorted(d for d in range(1, m + 1) if m % d == 0)


def _prime_factors(m: int) -> list[int]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


@dataclass(frozen=True)
class ZmRing:
    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be at least 2")

    def elements(self) -> range:
        return range(self.modulus)

    def units(self) -> list[int]:
        return [a for a in range(1, self.modulus) if math.gcd(a, self.modulus) == 1]

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

    @classmethod
    def generated_by(cls, ring: ZmRing, x: int) -> "ZmIdeal":
        g = math.gcd(x % ring.modulus, ring.modulus)
        return cls(ring, g if g else ring.modulus)

    def contains(self, x: int) -> bool:
        return (x % self.ring.modulus) % self.d == 0

    def elements(self) -> list[int]:
        return list(range(0, self.ring.modulus, self.d))

    def is_zero(self) -> bool:
        return self.d == self.ring.modulus

    def is_unit(self) -> bool:
        return self.d == 1

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
    prod = 1
    for p in _prime_factors(ring.modulus):
        prod *= p
    return ZmIdeal(ring, prod)


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
    rows, cols, signs = _minor_index(n)
    return (signs[0] * a[..., 0, :] * _det(a[..., rows[0], cols[0]])).sum(axis=-1)


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


def mat_inverse_mod(mat, m: int) -> np.ndarray | None:
    """Inverse mod m of one matrix or of a (..., n, n) stack, via the
    adjugate; None when a determinant is not a unit."""
    a = np.asarray(mat, dtype=np.int64)
    dinv = unit_inverses(m)[_det(a) % m]  # 0 marks a non-unit
    if not dinv.all():
        return None
    return (adjugate_int(a) * dinv[..., None, None]) % m
