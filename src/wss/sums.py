"""Rectangular, quadratic and marginal partial sums of Walsh-Fourier series.

The diagonal (quadratic) sums S_nn are produced incrementally: moving from
S_nn to S_{n+1,n+1} adds spectral row n (k <= n) and spectral column n
(m < n).  With the two helper tables

    u[v, y] = sum_{k<=v} c[v, k] w_k(y)    (row profiles)
    v[v, x] = sum_{m<v}  c[m, v] w_m(x)    (column profiles)

each step is the rank-two update w_v(x) u[v, y] + v[v, x] w_v(y), so the full
field costs O(2^{3B}) and a single point's sequence costs O(2^B).  Only the
O(2^{2B}) profiles are stored: the field streams (x, y, n) blocks of whole
per-point sequences, each built in place by one cumulative sum along n and
sized to a fixed byte budget, and never holds the (2^B + 1) x 2^B x 2^B cube.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .dyadic import bit_reverse_permutation, walsh_matrix_f64
from .errors import UsageError
from .transform import (
    DyadicGrid1D,
    DyadicGrid2D,
    Spectrum1D,
    Spectrum2D,
    _fwht,
    inverse_wht_1d,
    inverse_wht_2d,
    wht_1d,
    wht_2d,
)

BLOCK_BYTES = 2 << 20  # one streamed sequence block: about an L2 cache


def partial_sum_1d(f: DyadicGrid1D, n: int) -> DyadicGrid1D:
    """Partial sum S_n f = sum_{k<n} f_hat(k) w_k; S_0 is identically 0."""
    if not 0 <= n <= f.size:
        raise UsageError(f"partial-sum order {n} outside [0, 2^{f.bits}]")
    c = wht_1d(f).coeffs.copy()
    c[n:] = 0.0
    return inverse_wht_1d(Spectrum1D(f.bits, c))


def all_partial_sums_1d(f: DyadicGrid1D) -> np.ndarray:
    """Array of shape (2^bits + 1, 2^bits): row l holds S_l f on the grid."""
    w = walsh_matrix_f64(f.bits)
    c = wht_1d(f).coeffs
    terms = c[:, None] * w
    out = np.zeros((f.size + 1, f.size))
    np.cumsum(terms, axis=0, out=out[1:])
    return out


def _split_by_digit(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cells of the next level: a + b where the new digit is 0, a - b where it is 1."""
    return np.stack((a + b, a - b), axis=-1).reshape(a.shape[0], -1)


def dyadic_square_sums(f: DyadicGrid1D) -> list[np.ndarray]:
    """Q_k = sum_{l<2^k} (S_l f)^2 for k = 0..bits, each on its level-k cells.

    Entry k has length 2^k: Q_k is constant on the level-k cells, because
    every S_l with l < 2^k is.  The sequence l -> S_l f(x) is scanned
    (Blelloch, "Prefix sums and their applications", 1990) over coefficient
    blocks [j 2^s, (j+1) 2^s), merged level by level like the butterfly.
    Relative to its first index a block's Walsh functions w_i, i < 2^s, live
    on level-s cells, and the Paley split w_{(2j+1) 2^s + i} =
    w_{j 2^(s+1)} r_s w_i joins two blocks through the Rademacher digit
    rho = r_s(x).  Each block carries, per level-s cell, its total T, the
    sum SP of its 2^s prefixes (the empty one included) and the sum SP2 of
    their squares; a merge is

        T   = T_L + rho T_R
        SP  = SP_L + 2^s T_L + rho SP_R
        SP2 = SP2_L + 2^s T_L^2 + 2 rho T_L SP_R + SP2_R

    and Q_k is SP2 of block 0 at level k.  O(N log N) time, O(N) memory.
    """
    total = wht_1d(f).coeffs[:, None]
    psum = np.zeros_like(total)
    psq = np.zeros_like(total)
    out = [psq[0].copy()]  # copies, so no level's full array stays alive
    for s in range(f.bits):
        tl, tr = total[0::2], total[1::2]
        pl, pr = psum[0::2], psum[1::2]
        width = float(1 << s)
        psq = _split_by_digit(psq[0::2] + width * tl * tl + psq[1::2], 2.0 * tl * pr)
        psum = _split_by_digit(pl + width * tl, pr)
        total = _split_by_digit(tl, tr)
        out.append(psq[0].copy())
    return out


def rectangular_partial_sum(f: DyadicGrid2D, m: int, n: int) -> DyadicGrid2D:
    """S_{M,N} f: synthesis of coefficients with row < M and column < N."""
    if not (0 <= m <= f.size and 0 <= n <= f.size):
        raise UsageError(f"orders ({m}, {n}) outside [0, 2^{f.bits}]")
    c = wht_2d(f).coeffs.copy()
    c[m:, :] = 0.0
    c[:, n:] = 0.0
    return inverse_wht_2d(Spectrum2D(f.bits, c))


def marginal_sum_1(f: DyadicGrid2D, n: int) -> DyadicGrid2D:
    """S_n^(1): the order-n 1D partial sum applied in x for each fixed y."""
    if not 0 <= n <= f.size:
        raise UsageError(f"order {n} outside [0, 2^{f.bits}]")
    rev = bit_reverse_permutation(f.bits)
    a = _fwht(f.samples, 0)[rev, :] * 2.0 ** -f.bits
    a[n:, :] = 0.0
    return DyadicGrid2D(f.bits, _fwht(a[rev, :], 0))


def marginal_sum_2(f: DyadicGrid2D, m: int) -> DyadicGrid2D:
    """S_m^(2): the order-m 1D partial sum applied in y for each fixed x."""
    if not 0 <= m <= f.size:
        raise UsageError(f"order {m} outside [0, 2^{f.bits}]")
    rev = bit_reverse_permutation(f.bits)
    a = _fwht(f.samples, 1)[:, rev] * 2.0 ** -f.bits
    a[:, m:] = 0.0
    return DyadicGrid2D(f.bits, _fwht(a[:, rev], 1))


def marginal_maximal_2(f: DyadicGrid2D) -> DyadicGrid2D:
    """Pointwise sup over m = 1..2^bits of |S_m^(2) f|."""
    rev = bit_reverse_permutation(f.bits)
    coeffs = _fwht(f.samples, 1)[:, rev] * 2.0 ** -f.bits
    w = walsh_matrix_f64(f.bits)
    out = np.empty_like(f.samples)
    for i in range(f.size):
        running = np.cumsum(coeffs[i][:, None] * w, axis=0)
        out[i] = np.abs(running).max(axis=0)
    return DyadicGrid2D(f.bits, out)


@dataclass
class DiagonalSumField:
    """All quadratic partial sums S_nn(x, y; f), n = 0..2^bits, kept as the
    O(N^2) row and column profiles and streamed on demand.

    `iter_sequence_blocks` yields blocks of x-rows in (x, y, n) order, so each
    grid point's whole sequence n -> S_nn(x, y) is contiguous; `slice_at` and
    `sequence_at` give one n or one point.
    """

    bits: int
    row_profiles: np.ndarray = field(repr=False)
    col_profiles: np.ndarray = field(repr=False)

    # The cube is never materialized; perfbench's tracer still reads both names.
    values = None
    streaming = True

    @property
    def size(self) -> int:
        return 1 << self.bits

    @property
    def length(self) -> int:
        """Number of diagonal indices produced (n = 0..2^bits inclusive)."""
        return self.size + 1

    def slice_at(self, n: int) -> np.ndarray:
        """S_nn on the full grid, shape (N, N)."""
        if not 0 <= n <= self.size:
            raise UsageError(f"diagonal index {n} outside [0, 2^{self.bits}]")
        w = walsh_matrix_f64(self.bits)
        acc = np.zeros((self.size, self.size))
        for v in range(n):
            acc += np.multiply.outer(w[v], self.row_profiles[v])
            acc += np.multiply.outer(self.col_profiles[v], w[v])
        return acc

    def sequence_at(self, ix: int, iy: int) -> np.ndarray:
        """The sequence n -> S_nn(x, y) at one grid point, length 2^bits + 1."""
        if not (0 <= ix < self.size and 0 <= iy < self.size):
            raise UsageError(f"grid point ({ix}, {iy}) outside the {self.bits}-bit grid")
        w = walsh_matrix_f64(self.bits)
        steps = w[:, ix] * self.row_profiles[:, iy] + self.col_profiles[:, ix] * w[:, iy]
        seq = np.zeros(self.size + 1)
        np.cumsum(steps, out=seq[1:])
        return seq

    def iter_sequence_blocks(self, max_rows: int | None = None) -> Iterator[tuple[slice, np.ndarray]]:
        """Yield (x-slice, block) with block[xi, y, n] = S_nn(x, y), n = 0..2^bits.

        Blocks cover the grid in row order.  By default each holds as many
        x-rows as fit in BLOCK_BYTES (at least one): a block that stays in
        cache beats a larger one.  The rank-two steps are formed from
        transposed Walsh and profile tables directly in (x, y, n) order and
        summed along n into the block, so no transpose or copy follows.
        """
        n = self.size
        if max_rows is None:
            max_rows = max(1, BLOCK_BYTES // (8 * n * (n + 1)))
        if max_rows < 1:
            raise UsageError("max_rows must be >= 1")
        max_rows = min(max_rows, n)
        w_t = np.ascontiguousarray(walsh_matrix_f64(self.bits).T)
        u_t = np.ascontiguousarray(self.row_profiles.T)
        v_t = np.ascontiguousarray(self.col_profiles.T)
        steps = np.empty((max_rows, n, n))  # scratch reused by every block
        cross = np.empty_like(steps)
        for x0 in range(0, n, max_rows):
            sl = slice(x0, min(x0 + max_rows, n))
            rows = sl.stop - sl.start
            block = np.empty((rows, n, n + 1))
            block[..., 0] = 0.0
            np.multiply(w_t[sl, None, :], u_t, out=steps[:rows])
            np.multiply(v_t[sl, None, :], w_t, out=cross[:rows])
            steps[:rows] += cross[:rows]
            np.cumsum(steps[:rows], axis=-1, out=block[..., 1:])
            yield sl, block


def quadratic_sums(f: DyadicGrid2D, mode: str = "auto") -> DiagonalSumField:
    """Build the streamed diagonal-sum field of f from its row and column
    profiles, O(N^2 log N).

    `mode` ("auto", "full" or "streaming") is accepted for callers written
    when the cube could be materialized; every value builds the same field.
    """
    if mode not in ("auto", "full", "streaming"):
        raise UsageError(f"unknown mode {mode!r}")
    coeffs = wht_2d(f).coeffs
    rev = bit_reverse_permutation(f.bits)
    # Row profiles synthesize the lower triangle (k <= v) of each spectral row
    # along y; column profiles synthesize the strict upper triangle along x.
    row_profiles = _fwht(np.tril(coeffs)[:, rev], 1)
    col_profiles = _fwht(np.triu(coeffs, 1).T[:, rev], 1)
    return DiagonalSumField(f.bits, row_profiles, col_profiles)
