"""Brute-force reference implementations.

These deliberately follow the defining formulas with plain loops (or one
definitional reduction) and stay independent of the fast paths they check.
They back both the test suite and `wss selftest`.
"""
from __future__ import annotations

import math

import numpy as np

from .dyadic import walsh_matrix_f64
from .errors import UsageError
from .means import integer_dyadic_intervals
from .sums import DiagonalSumField, all_partial_sums_1d, partial_sum_1d, rectangular_partial_sum
from .transform import DyadicGrid1D, DyadicGrid2D, naive_wht_2d


def cell_averages_1d(f: DyadicGrid1D, level: int) -> np.ndarray:
    """Grid of level-`level` dyadic cell averages (conditional expectation)."""
    if not 0 <= level <= f.bits:
        raise UsageError(f"level {level} outside [0, {f.bits}]")
    width = 1 << (f.bits - level)
    means = f.samples.reshape(1 << level, width).mean(axis=1)
    return np.repeat(means, width)


def cell_averages_2d(f: DyadicGrid2D, xlevel: int, ylevel: int) -> np.ndarray:
    """Averages over I_xlevel(x) x I_ylevel(y) cells, expanded to the grid."""
    if not (0 <= xlevel <= f.bits and 0 <= ylevel <= f.bits):
        raise UsageError(f"levels ({xlevel}, {ylevel}) outside [0, {f.bits}]")
    wx = 1 << (f.bits - xlevel)
    wy = 1 << (f.bits - ylevel)
    blocks = f.samples.reshape(1 << xlevel, wx, 1 << ylevel, wy)
    means = blocks.mean(axis=(1, 3))
    return np.repeat(np.repeat(means, wx, axis=0), wy, axis=1)


def bmo_sequence_brute(values) -> float:
    """Literal enumeration of every integer dyadic interval J in [0, L)."""
    x = [float(v) for v in np.asarray(values).ravel()]
    length = len(x)
    best = 0.0
    for interval in integer_dyadic_intervals(length):
        count = len(interval)
        total = 0.0
        for k in range(interval.start, interval.stop):
            total += x[k]
        mean = total / count
        dev = 0.0
        for k in range(interval.start, interval.stop):
            dev += (x[k] - mean) ** 2
        best = max(best, math.sqrt(dev / count))
    return best


def bmo_function_brute(f: DyadicGrid1D) -> float:
    """Dyadic-BMO norm by direct interval enumeration."""
    best = 0.0
    for level in range(f.bits + 1):
        width = 1 << (f.bits - level)
        for j in range(1 << level):
            block = f.samples[j * width : (j + 1) * width]
            mean = block.mean()
            best = max(best, float(((block - mean) ** 2).mean()))
    return math.sqrt(best) + abs(float(f.samples.mean()))


def rectangular_sum_brute(f: DyadicGrid2D, m: int, n: int) -> np.ndarray:
    """Definitional synthesis from naive coefficients."""
    c = naive_wht_2d(f).samples
    w = walsh_matrix_f64(f.bits)
    return np.einsum("mn,mx,ny->xy", c[:m, :n], w[:m], w[:n], optimize=False)


def diagonal_sums_brute(f: DyadicGrid2D) -> np.ndarray:
    """Per-n truncate-and-synthesize oracle for the quadratic sums."""
    out = np.empty((f.size + 1, f.size, f.size))
    for n in range(f.size + 1):
        out[n] = rectangular_partial_sum(f, n, n).samples
    return out


def materialize(field: DiagonalSumField) -> np.ndarray:
    """The (N+1, N, N) cube values[n] = S_nn, stacked from the field's blocks."""
    out = np.empty((field.length, field.size, field.size))
    for sl, block in field.iter_sequence_blocks():
        out[:, sl, :] = np.moveaxis(block, -1, 0)
    return out


def dyadic_square_sums_brute(f: DyadicGrid1D) -> np.ndarray:
    """Q_k = sum_{l<2^k} (S_l f)^2 on the grid, row k for k = 0..bits, read off
    the cumulative squares of the full partial-sum table."""
    csum = np.cumsum(all_partial_sums_1d(f)[: f.size] ** 2, axis=0)
    return csum[(1 << np.arange(f.bits + 1)) - 1]


def rodin_means_brute(f: DyadicGrid1D, phi, ms) -> np.ndarray:
    """Row i: (1/m) sum_{k=1..m} Phi(|S_k f - f|) on the grid at m = ms[i],
    read off the cumulative Phi terms of the full partial-sum table."""
    terms = phi(np.abs(all_partial_sums_1d(f)[1:] - f.samples))
    ms = np.asarray(ms)
    return np.cumsum(terms, axis=0)[ms - 1] / ms[:, None]


def marginal_maximal_2_brute(f: DyadicGrid2D) -> np.ndarray:
    """Exhaustive sup over m of |S_m^(2) f| via per-m synthesis."""
    from .sums import marginal_sum_2

    best = np.abs(marginal_sum_2(f, 1).samples)
    for m in range(2, f.size + 1):
        np.maximum(best, np.abs(marginal_sum_2(f, m).samples), out=best)
    return best


def dyadic_maximal_brute(f: DyadicGrid2D) -> np.ndarray:
    """Pointwise sup over n of square-cell averages, by explicit slicing."""
    size = f.size
    a = np.abs(f.samples)
    out = np.zeros((size, size))
    for n in range(f.bits + 1):
        width = 1 << (f.bits - n)
        for bx in range(1 << n):
            for by in range(1 << n):
                block = a[bx * width : (bx + 1) * width, by * width : (by + 1) * width]
                avg = block.mean()
                patch = out[bx * width : (bx + 1) * width, by * width : (by + 1) * width]
                np.maximum(patch, avg, out=patch)
    return out


def schipp_v_brute(f: DyadicGrid1D, n: int) -> np.ndarray:
    """V_n by direct summation over every t grid point."""
    if not 1 <= n <= f.bits:
        raise UsageError(f"operator order {n} outside [1, {f.bits}]")
    size = f.size
    g = partial_sum_1d(f, 1 << n).samples
    idx = np.arange(size)
    shifts = [1 << (f.bits - 1 - j) for j in range(n)]
    acc = np.zeros(size)
    for t in range(size):
        inner = np.zeros(size)
        for j in range(n):
            if t < (1 << (f.bits - j)):  # t in I_j = [0, 2^-j)
                inner += 2.0 ** (j - 1) * g[(idx ^ t) ^ shifts[j]]
        acc += inner * inner
    return np.sqrt(acc * 2.0 ** (-n) / size)
