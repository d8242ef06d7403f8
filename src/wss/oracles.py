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
from .means import _max_mean_square_oscillation
from .sums import DiagonalSumField, all_partial_sums_1d, partial_sum_1d
from .transform import DyadicGrid1D, DyadicGrid2D, _synthesis, naive_wht_2d, wht_2d


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
    """Literal enumeration of every integer dyadic interval J = [j w, (j+1) w)
    in [0, L), L a power of two: widths w = 1, 2, 4, ..., starts 0, w, 2w, ..."""
    x = [float(v) for v in np.asarray(values).ravel()]
    length = len(x)
    if length < 1 or length & (length - 1):
        raise UsageError(f"length {length} is not a power of two")
    best = 0.0
    width = 1
    while width <= length:
        for start in range(0, length, width):
            total = 0.0
            for k in range(start, start + width):
                total += x[k]
            mean = total / width
            dev = 0.0
            for k in range(start, start + width):
                dev += (x[k] - mean) ** 2
            best = max(best, math.sqrt(dev / width))
        width *= 2
    return best


def diagonal_sums_brute(f: DyadicGrid2D) -> np.ndarray:
    """Per-n definitional quadratic sums, no butterfly: S_nn = W_n^T C_nn W_n,
    C from `naive_wht_2d` and W_n the first n rows of the Walsh matrix."""
    c, w = naive_wht_2d(f).samples, walsh_matrix_f64(f.bits)
    return np.stack([w[:n].T @ c[:n, :n] @ w[:n] for n in range(f.size + 1)])


def materialize(field: DiagonalSumField) -> np.ndarray:
    """The (N+1, N, N) cube values[n] = S_nn, stacked from the field's blocks."""
    out = np.empty((field.size + 1, field.size, field.size))
    for sl, block in field.iter_sequence_blocks():
        out[:, sl, :] = np.moveaxis(block.reshape(len(block), field.size, -1), -1, 0)
    return out


def full_profile_field(f: DyadicGrid2D) -> DiagonalSumField:
    """The diagonal-sum field on (N, N) profile tables, synthesized from the
    whole triangles of `wht_2d`'s table: band N, with no cut at f's own band."""
    coeffs = wht_2d(f).samples
    rows = _synthesis(np.tril(coeffs), f.bits, (None, f.size))
    return DiagonalSumField(f.bits, rows, _synthesis(np.triu(coeffs, 1).T, f.bits, (None, f.size)))


def bmo_of_all_diagonal_orders(field: DiagonalSumField) -> np.ndarray:
    """The BMO pyramid over every order n = 0..N-1 of the materialized field,
    with no stop at the field's band."""
    cube = materialize(field)[: field.size]
    return np.sqrt(_max_mean_square_oscillation(np.moveaxis(cube, 0, -1)))


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


def entropy_brute(f, alpha: float) -> float:
    """Mean of |v| (log+ |v|)^alpha over the samples, summed exactly by math.fsum."""
    terms = [abs(v) * math.log(max(abs(v), 1.0)) ** alpha for v in f.samples.ravel().tolist()]
    return math.fsum(terms) / f.samples.size


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


def pcg64_raw_numpy(seed: int, count: int) -> np.ndarray:
    """numpy's own PCG64 stream, the reference `generators.pcg64_raw` is held to; imported
    here, as numpy.random costs every run that loads it 10-12 ms and about 6 MB."""
    import numpy.random
    return numpy.random.PCG64(seed).random_raw(count)
