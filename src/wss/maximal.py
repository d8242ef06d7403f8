"""Dyadic and hybrid maximal functions and the Schipp V-operators.

All suprema over scales truncate at the grid level: beyond it every cell
average equals the sample value, so the truncation is exact for grid-resolved
step functions.  The t-integral inside V_n is an exact finite sum, because the
integrand is itself a dyadic step function at the grid resolution.  M, M1
and M2 are one dyadic pyramid, `_dyadic_maximal`, over both axes or one, run
on the input's cells (`DyadicGrid.cells`): O(4^L) on a level-L step function
whatever B is.  No operator here takes a transform: V_n reads S_{2^n} f as
level-n cell averages and runs on the input's 2^min(n, L) coarse cells,
batched along the last axis: O(n 2^min(n, L)), and V1, V2 are single batched
calls.  Operators return a new grid of their input's class and never write
their input; M, M1 and M2 hold one private copy of its cells, which becomes
the result's.  Both pyramids run on `_pow2_scaled` inputs, so no sum or
square overflows at extreme amplitudes.
"""
from __future__ import annotations

import itertools

import numpy as np

from .errors import UsageError
from .transform import BLOCK_BYTES, DyadicGrid, _pow2_scaled


def _dyadic_maximal(a: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Running max of the averages of |a| over dyadic cells of the given axes,
    for a square array of side 2^L: every level from the cells to the whole.

    On a grid's cells at level L < bits this is the full grid's pyramid, bit
    for bit, repeated on each cell: the full pyramid's first bits - L levels
    average equal children, and (v + v) / 2 and (((v + v) + v) + v) / 4 are
    v exactly.  For v = m 2^k, m an integer below 2^53, 3m rounds by d, with
    |d| at most half the spacing of 4m; 4m + d rounds back to 4m, a tie
    included, since 4m is then the even neighbour (|d| = 2 needs m even).
    So the later levels are the cells' pyramid, and the max over the finer,
    equal levels changes nothing.

    The result starts as |a| 2^-e scaled in place (== |a 2^-e|), one exponent
    for the whole grid.  A one-axis pyramid (M1, M2) never crosses the other
    axis, so it runs in slabs of it within BLOCK_BYTES; otherwise the grid is
    one slab.  In a slab the averages are built bottom-up, each level's
    children summed into one array in `itertools.product` order; the max runs
    top-down, each level folding its coarser parent into its children in
    place.  O(size of a) time; memory: the result and one slab's coarser
    levels (M1, M2: one array and one block; M: 4/3 of the array).
    """

    def children(level):
        for offsets in itertools.product((0, 1), repeat=len(axes)):
            index = [slice(None)] * level.ndim
            for axis, offset in zip(axes, offsets):
                index[axis] = slice(offset, None, 2)
            yield level[tuple(index)]

    result = np.abs(a)
    exponent, _ = _pow2_scaled(result, inplace=True)
    free = [axis for axis in range(a.ndim) if axis not in axes]
    pieces = -(-result.nbytes // BLOCK_BYTES)
    for slab in np.array_split(result, pieces, axis=free[0]) if free else [result]:
        levels = [slab]
        for _ in range(len(a).bit_length() - 1):
            first, second, *rest = children(levels[-1])
            total = first + second
            for child in rest:
                total += child
            levels.append(np.multiply(total, 0.5 ** len(axes), out=total))
        best = levels.pop()
        while levels:
            finer = levels.pop()
            for child in children(finer):
                np.maximum(child, best, out=child)
            best = finer
    return np.ldexp(result, exponent, out=result)


def dyadic_maximal(f: DyadicGrid) -> DyadicGrid:
    """Dyadic maximal function over squares I_n(x) x I_n(y), on f's cells."""
    return type(f).from_cells(f.bits, _dyadic_maximal(f.cells, (0, 1)))


def hybrid_maximal_1(f: DyadicGrid) -> DyadicGrid:
    """M_1: the 1D dyadic maximal in x for each fixed y; on a 1D grid, the
    1D dyadic maximal function."""
    return type(f).from_cells(f.bits, _dyadic_maximal(f.cells, (0,)))


def hybrid_maximal_2(f: DyadicGrid) -> DyadicGrid:
    """M_2: the 1D dyadic maximal in y for each fixed x."""
    return type(f).from_cells(f.bits, _dyadic_maximal(f.cells, (1,)))


def _schipp_v_values(cells: np.ndarray, orders) -> np.ndarray:
    """max over n in `orders` of V_n along the last axis of `cells`, for any
    leading axes: a grid's values on the 2^L cells of one dyadic level.

    V_n(x)^2 = 2^-n int_0^1 ( sum_{j<n} 2^(j-1) 1_{I_j}(t) g(x+t+e_j) )^2 dt
    with g = S_{2^n} f and + the dyadic sum.  For t in the shell
    [2^-(k+1), 2^-k) only the terms j <= min(k, n-1) are active, and
    {x + t : t in shell k} is exactly the sibling of x's dyadic block of size
    2^-(k+1), so each shell contributes one block sum of the squared running
    profile c_k(u) = sum_{j<=k} 2^(j-1) g(u + e_j).  By the martingale
    identity g is the level-n cell average, and the shifts e_j, j < n, permute
    level-n cells, so c and q = c^2 are constant on them: the sum runs on the
    2^n coarse cells, and the shells k >= n together with x's own grid cell
    fill x's level-n cell, adding the final q times its measure.

    For n > L take m = L: a shift e_j, j >= m, stays inside x's level-L cell,
    where g is constant, so c_k and q are constant on the level-m cells.  The
    shells k < m run there, each level-m block sum standing for 2^(n-m) equal
    level-n sums (a power-of-two scale commutes with every rounding), and each
    shell k >= m adds q 2^(n-1-k).  O(n 2^min(n, L)) per order.

    V_n is 1-homogeneous, so it runs on `_pow2_scaled` cells and the result
    is scaled back: c * c neither overflows nor underflows at extreme
    amplitudes, and in-range results keep every bit.  Orders run downward,
    so each g is one halving of the last.
    """
    exponent, (g,) = _pow2_scaled(cells)
    best = np.zeros(cells.shape)  # V_n >= 0
    for n in sorted(orders, reverse=True):
        m = min(n, cells.shape[-1].bit_length() - 1)
        while g.shape[-1] > 1 << m:
            g = 0.5 * (g[..., 0::2] + g[..., 1::2])
        c, acc, q = np.zeros(g.shape), np.zeros(g.shape[:-1] + (1,)), np.empty(g.shape)
        for k in range(m):
            pairs = g.shape[:-1] + (-1, 2, 1 << (m - 1 - k))  # [..., ::-1, :] reads u ^ 2^(m-1-k)
            np.multiply(g.reshape(pairs)[..., ::-1, :], 2.0 ** (k - 1), out=q.reshape(pairs))
            c += q
            block_sums = np.multiply(c, c, out=q)
            for _ in range(m - 1 - k):  # a fixed pairwise tree: a row's sums ignore the batch
                block_sums = block_sums[..., 0::2] + block_sums[..., 1::2]
            acc = np.repeat(acc, 2, axis=-1)  # the shells so far, on the 2^(k+1) blocks of shell k
            shells = acc.reshape(pairs[:-1])
            shells += block_sums.reshape(pairs[:-1])[..., ::-1]
        if n > m:
            acc *= 2.0 ** (n - m)
            for k in range(m, n):
                c += g * 2.0 ** (k - 1)
                acc += np.multiply(c, c, out=q) * 2.0 ** (n - 1 - k)
        np.sqrt(np.add(acc, q, out=acc), out=acc)
        level_m = best.reshape(best.shape[:-1] + (1 << m, -1))  # x's level-m cell
        np.maximum(level_m, np.multiply(acc, 2.0**-n, out=acc)[..., None], out=level_m)
    return np.ldexp(best, exponent, out=best)


def schipp_v_max(f: DyadicGrid) -> DyadicGrid:
    """V f = sup over n = 1..bits of V_n f along the last axis of the cells:
    the 1D operator on a 1D grid, V in y for every fixed x on a 2D grid."""
    return type(f).from_cells(f.bits, _schipp_v_values(f.cells, range(1, f.bits + 1)))


def hybrid_v_1(f: DyadicGrid) -> DyadicGrid:
    """V_1: the 1D operator V applied in x to each slice f(., y), on transposed views."""
    return type(f).from_cells(f.bits, schipp_v_max(type(f).from_cells(f.bits, f.cells.T)).cells.T)


def hybrid_v_2(f: DyadicGrid) -> DyadicGrid:
    """V_2: the 1D operator V applied in y to each slice f(x, .)."""
    return schipp_v_max(f)


def superlevel_measure(field: DyadicGrid, lam: float) -> float:
    """Normalized counting measure of {field > lam}, lam > 0, on the grid's
    cells: count / 4^L is count 4^(bits-L) / 4^bits exactly."""
    if not lam > 0:
        raise UsageError(f"superlevel threshold must be positive, got {lam}")
    return np.count_nonzero(field.cells > lam) / field.cells.size  # exact count, as the bool mean
