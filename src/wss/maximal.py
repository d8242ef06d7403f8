"""Dyadic and hybrid maximal functions and the Schipp V-operators.

All suprema over scales truncate at the grid level: beyond it every cell
average equals the sample value, so the truncation is exact for grid-resolved
step functions.  The t-integral inside V_n is an exact finite sum, because the
integrand is itself a dyadic step function at the grid resolution.  M, M1
and M2 are one dyadic pyramid, `_dyadic_maximal`, over both axes or one.  No
operator here takes a transform: V_n reads S_{2^n} f as level-n cell averages
and runs on the 2^n coarse cells, batched along the last axis, so V costs
O(N B) on N = 2^B samples and the hybrids V1, V2 are single batched calls.
Operators return their input's grid class.  Both pyramids run on
`_pow2_scaled` inputs, so no sum or square overflows at extreme amplitudes.
"""
from __future__ import annotations

import itertools

import numpy as np

from .errors import UsageError
from .transform import DyadicGrid, _pow2_scaled


def _dyadic_maximal(a: np.ndarray, bits: int, axes: tuple[int, ...]) -> np.ndarray:
    """Running max of the averages of |a| over dyadic cells of the given axes.

    The averages are built bottom-up, summing the children in
    `itertools.product` order; the max then runs top-down, each level
    folding its coarser parent into its children in place, so no level is
    expanded to the full grid.  O(size of a).
    """

    def children(level):
        for offsets in itertools.product((0, 1), repeat=len(axes)):
            index = [slice(None)] * level.ndim
            for axis, offset in zip(axes, offsets):
                index[axis] = slice(offset, None, 2)
            yield level[tuple(index)]

    exponent, (scaled,) = _pow2_scaled(a)
    levels = [np.abs(scaled)]
    for _ in range(bits):
        first, *rest = children(levels[-1])
        levels.append(0.5 ** len(axes) * sum(rest, first))
    best = levels.pop()
    while levels:
        finer = levels.pop()
        for child in children(finer):
            np.maximum(child, best, out=child)
        best = finer
    return np.ldexp(best, exponent, out=best)


def dyadic_maximal_1d(f: DyadicGrid) -> DyadicGrid:
    """1D dyadic maximal function: sup_n of the |f|-average over I_n(x)."""
    return type(f)(f.bits, _dyadic_maximal(f.samples, f.bits, (0,)))


def dyadic_maximal(f: DyadicGrid) -> DyadicGrid:
    """Dyadic maximal function over squares I_n(x) x I_n(y)."""
    return type(f)(f.bits, _dyadic_maximal(f.samples, f.bits, (0, 1)))


def hybrid_maximal_1(f: DyadicGrid) -> DyadicGrid:
    """M_1: the 1D dyadic maximal in x for each fixed y."""
    return type(f)(f.bits, _dyadic_maximal(f.samples, f.bits, (0,)))


def hybrid_maximal_2(f: DyadicGrid) -> DyadicGrid:
    """M_2: the 1D dyadic maximal in y for each fixed x."""
    return type(f)(f.bits, _dyadic_maximal(f.samples, f.bits, (1,)))


def _schipp_v_values(samples: np.ndarray, bits: int, orders) -> np.ndarray:
    """max over n in `orders` of V_n along the last axis of `samples`, for
    any leading axes.

    V_n(x)^2 = 2^-n int_0^1 ( sum_{j<n} 2^(j-1) 1_{I_j}(t) g(x+t+e_j) )^2 dt
    with g = S_{2^n} f and + the dyadic sum.  For t in the shell
    [2^-(k+1), 2^-k) only the terms j <= min(k, n-1) are active, and
    {x + t : t in shell k} is exactly the sibling of x's dyadic block of size
    2^-(k+1), so each shell contributes one block sum of the squared running
    profile c_k(u) = sum_{j<=k} 2^(j-1) g(u + e_j).  By the martingale
    identity g is the level-n cell average, and the shifts e_j, j < n, permute
    level-n cells, so c and q = c^2 are constant on them: the sum runs on the
    2^n coarse cells, and the shells k >= n together with x's own grid cell
    fill x's level-n cell, adding the final q times its measure.  O(N + n 2^n)
    per order.

    V_n is 1-homogeneous, so it runs on `_pow2_scaled` samples and the
    result is scaled back: c * c neither overflows nor underflows at extreme
    amplitudes, and in-range results keep every bit.
    """
    exponent, (scaled,) = _pow2_scaled(samples)
    best = np.zeros(samples.shape)  # V_n >= 0
    for n in orders:
        g = scaled
        for _ in range(bits - n):
            g = 0.5 * (g[..., 0::2] + g[..., 1::2])
        idx = np.arange(1 << n)
        c = acc = 0.0
        for k in range(n):
            c = c + 2.0 ** (k - 1) * g[..., idx ^ (1 << (n - 1 - k))]
            q = block_sums = c * c
            for _ in range(n - 1 - k):  # a fixed pairwise tree: a row's sums ignore the batch
                block_sums = block_sums[..., 0::2] + block_sums[..., 1::2]
            acc = acc + block_sums[..., (idx >> (n - 1 - k)) ^ 1]
        np.maximum(best, np.repeat(np.sqrt(acc + q) * 2.0**-n, 1 << (bits - n), axis=-1), out=best)
    return np.ldexp(best, exponent)


def schipp_v(f: DyadicGrid, n: int) -> DyadicGrid:
    """Schipp operator V_n: quadratic average of shifted smooth partial sums.

    The 2^(j-1) weights are taken literally (the j = 0 term carries 1/2) and
    the shift points are e_j = 2^-(j+1).
    """
    if not 1 <= n <= f.bits:
        raise UsageError(f"operator order {n} outside [1, {f.bits}]")
    return type(f)(f.bits, _schipp_v_values(f.samples, f.bits, (n,)))


def schipp_v_max(f: DyadicGrid) -> DyadicGrid:
    """V f = sup over n = 1..bits of V_n f along the last axis of the samples:
    the 1D operator on a 1D grid, V in y for every fixed x on a 2D grid."""
    return type(f)(f.bits, _schipp_v_values(f.samples, f.bits, range(1, f.bits + 1)))


def hybrid_v_1(f: DyadicGrid) -> DyadicGrid:
    """V_1: the 1D operator V applied in x to each slice f(., y)."""
    transposed = type(f)(f.bits, np.ascontiguousarray(f.samples.T))
    return type(f)(f.bits, schipp_v_max(transposed).samples.T)


def hybrid_v_2(f: DyadicGrid) -> DyadicGrid:
    """V_2: the 1D operator V applied in y to each slice f(x, .)."""
    return schipp_v_max(f)


def superlevel_measure(field, lam: float) -> float:
    """Normalized counting measure of {field > lam}, lam > 0, for a grid or an array."""
    if not lam > 0:
        raise UsageError(f"superlevel threshold must be positive, got {lam}")
    values = field.samples if isinstance(field, DyadicGrid) else np.asarray(field, dtype=np.float64)
    return float((values > lam).mean())
