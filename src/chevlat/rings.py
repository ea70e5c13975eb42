"""The rings Z/m, their ideals, and exact modular matrix arithmetic.  Every
ideal of Z/m is (d) for exactly one d | m and is written as that generator
d: 1 is the unit ideal, m the zero ideal, and (d) holds range(0, m, d)."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import TableBoundError


def divisors(m: int) -> list[int]:
    """The ideals of Z/m as their generators d | m, increasing."""
    return [d for d in range(1, m + 1) if m % d == 0]


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


def jacobson_radical(m: int) -> int:
    """The Jacobson radical of Z/m, generated by the product of the distinct
    primes dividing m."""
    return math.prod(factorize(m))


def draws(rng, n: int, *shape: int) -> np.ndarray:
    """An int64 array of the given shape with values in range(n), 0 < n <
    2**63, drawn in bulk from rng (a random.Random) and from nothing else:
    one 64-bit word per value, reduced mod n, a bias below n / 2**64."""
    words = np.frombuffer(rng.randbytes(8 * math.prod(shape)), dtype="<u8")
    return (words % n).astype(np.int64).reshape(shape)


def to_digits(codes, m: int, width: int) -> np.ndarray:
    """The base-m digits of codes along one more trailing axis, first most significant."""
    return np.asarray(codes, dtype=np.int64)[..., None] // m ** np.arange(
        width - 1, -1, -1, dtype=np.int64) % m


def from_digits(digits, m: int) -> np.ndarray:
    """The base-m numbers of int64 digits along the last axis, first most significant."""
    return digits @ m ** np.arange(digits.shape[-1] - 1, -1, -1, dtype=np.int64)


# -- exact matrix arithmetic mod m ------------------------------------------

def identity_mat(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def residues(a: np.ndarray, m: int) -> np.ndarray:
    """a mod m as a new int64 array: a & (m - 1) for a power of two, else %, or on 1,024
    entries or more a - a // m * m, which costs two calls more but half as much per entry."""
    if m & (m - 1) == 0:
        return a & (m - 1)
    if a.size < 1024:
        return a % m
    q = a // m
    q *= m
    return np.subtract(a, q, out=q)


def mat_mul(p, *rest, m: int, what: str = "a matrix product") -> np.ndarray:
    """The one modular product kernel: a chain of matrices or stacks with entries in (-m, m),
    read as int64 without a copy, multiplied in runs whose entries stay below 2**63, each run
    reduced once (`residues`); a TableBoundError naming `what` if n (m - 1)**2 > 2**63 - 1."""
    p, top = np.asarray(p, dtype=np.int64), m - 1
    n = max([p.shape[-1]] + [np.shape(a)[-1] for a in rest[:-1]])
    if n * top * top > 2**63 - 1:
        raise TableBoundError(n * top * top, 2**63 - 1, f"{what} mod {m} has entries up to "
                              f"{n} * ({m} - 1)**2, past the int64 bound 2**63 - 1")
    bound = top
    for a in rest:
        if bound * n * top > 2**63 - 1:
            p, bound = residues(p, m), top
        p, bound = p @ np.asarray(a, dtype=np.int64), bound * n * top
    return residues(p, m)


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


def det_int(mat) -> np.ndarray:
    """Exact integer determinants of a (..., n, n) stack, an int64 (...) array
    (0-d for one matrix), by Laplace expansion along the first row."""
    return np.asarray(_det(np.asarray(mat, dtype=np.int64)))


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
