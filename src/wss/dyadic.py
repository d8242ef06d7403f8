"""Exact arithmetic on the dyadic group sampled at resolution 2**bits.

A point x of [0, 1) is stored as a grid index ``idx`` with x = idx * 2**-bits.
The binary digits of x (most significant first) are the expansion coefficients
x_0, x_1, ..., so digit k of x is bit (bits-1-k) of ``idx``.  Dyadic addition
is XOR on indices and Walsh functions (Paley order) are popcount parities.
Everything in this module is integer-exact.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

import numpy as np

from .errors import UsageError

MAX_BITS_1D = 24
MAX_BITS_2D = 12
MAX_MATRIX_BITS = 13  # a 2^13 square float64 Walsh matrix is 512 MiB


def validate_bits(bits: int, *, dims: int = 1) -> int:
    """Check a resolution parameter; returns it as a plain int."""
    if isinstance(bits, bool) or not isinstance(bits, (int, np.integer)):
        raise UsageError(f"bit depth must be an integer, got {bits!r}")
    limit = MAX_BITS_1D if dims == 1 else MAX_BITS_2D
    if not 1 <= bits <= limit:
        raise UsageError(f"bit depth {bits} outside [1, {limit}] for {dims}D grids")
    return int(bits)


def bit_reverse_int(idx: int, bits: int) -> int:
    """Reverse the low `bits` bits of a nonnegative integer."""
    out = 0
    for _ in range(bits):
        out = (out << 1) | (idx & 1)
        idx >>= 1
    return out


@lru_cache(maxsize=32)
def bit_reverse_permutation(bits: int) -> np.ndarray:
    """Permutation array p with p[i] = bit_reverse_int(i, bits)."""
    idx = np.arange(1 << bits, dtype=np.int64)
    out = np.zeros_like(idx)
    for _ in range(bits):
        out = (out << 1) | (idx & 1)
        idx = idx >> 1
    out.setflags(write=False)
    return out


class DyadicPoint(namedtuple("DyadicPoint", "idx bits")):
    """Grid point x = idx * 2**-bits of the unit interval, an immutable pair."""

    __slots__ = ()

    def __new__(cls, idx: int, bits: int):
        validate_bits(bits)
        if not 0 <= idx < (1 << bits):
            raise UsageError(f"index {idx} outside [0, 2^{bits})")
        return super().__new__(cls, idx, bits)


def walsh(k: int, x: DyadicPoint) -> int:
    """Walsh function w_k(x) in Paley order: w_0 = 1 and w_k = prod r_n over the
    set bits n of k, r_n(x) = 1 - 2 x_n, the parity of popcount(k & reversed_index)."""
    if not 0 <= k < (1 << x.bits):
        raise UsageError(f"walsh index {k} outside [0, 2^{x.bits})")
    masked = k & bit_reverse_int(x.idx, x.bits)
    return -1 if masked.bit_count() & 1 else 1


def walsh_row(k: int, bits: int) -> np.ndarray:
    """Values of w_k at every grid point, as an int8 array of +-1."""
    validate_bits(bits)
    if not 0 <= k < (1 << bits):
        raise UsageError(f"walsh index {k} outside [0, 2^{bits})")
    rev = bit_reverse_permutation(bits)
    parity = (np.bitwise_count(np.int64(k) & rev) & 1).astype(np.int8)
    return (1 - 2 * parity).astype(np.int8)


@lru_cache(maxsize=8)
def walsh_matrix(bits: int) -> np.ndarray:
    """Paley-ordered Walsh matrix W[k, i] = w_k(i 2^-bits), int8, cached."""
    validate_bits(bits)
    if bits > MAX_MATRIX_BITS:
        raise UsageError(f"refusing to materialize a 2^{bits} square Walsh matrix")
    rev = bit_reverse_permutation(bits).astype(np.uint16)  # indices below 2^13 fit 16 bits
    ks = np.arange(1 << bits, dtype=np.uint16)
    parity = (np.bitwise_count(ks[:, None] & rev) & 1).view(np.int8)
    w = 1 - 2 * parity
    w.setflags(write=False)
    return w


@lru_cache(maxsize=6)
def walsh_matrix_f64(bits: int) -> np.ndarray:
    """Float64 view of walsh_matrix, cached separately for hot loops."""
    w = walsh_matrix(bits).astype(np.float64)
    w.setflags(write=False)
    return w

