"""Rectangular and quadratic partial sums of Walsh-Fourier series.

The diagonal (quadratic) sums S_nn are produced incrementally: moving from
S_nn to S_{n+1,n+1} adds spectral row n (k <= n) and spectral column n
(m < n).  With the two helper tables

    u[v, y] = sum_{k<=v} c[v, k] w_k(y)    (row profiles)
    v[v, x] = sum_{m<v}  c[m, v] w_m(x)    (column profiles)

each step is the rank-two update w_v(x) u[v, y] + v[v, x] w_v(y), so the full
field costs O(2^{3B}) and a single point's sequence costs O(2^B).  f_hat lives
on the K x K band `_analysis` returns, so every step from n = K is 0 and
S_nn = S_KK.  Only the (K, 2^l) profiles on the level-l cells are stored,
2^l = max(2, K); the field streams (x, y, n) blocks of whole per-point
sequences, one (2^l, 2^B + 1) slab per x-cell, never the 2^B x 2^B cube.
Every partial sum and profile is one truncated synthesis,
`wss.transform._synthesis`; the sums of (S_l f)^2 over the dyadic blocks
of orders at every point come from one Paley prefix scan, `_paley_scan`.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np

from .dyadic import walsh_matrix, walsh_matrix_f64, walsh_row
from .errors import DataError, UsageError
from .transform import DyadicGrid1D, DyadicGrid2D, _analysis, _pow2_scaled, _synthesis, _zero_padded


def partial_sum_1d(f: DyadicGrid1D, n: int) -> DyadicGrid1D:
    """Partial sum S_n f = sum_{k<n} f_hat(k) w_k; S_0 is identically 0."""
    return type(f)(f.bits, _synthesis(_analysis(f.cells, f.bits, (0,)), f.bits, (n,)))


def all_partial_sums_1d(f: DyadicGrid1D) -> np.ndarray:
    """Array of shape (2^bits + 1, 2^bits): row l holds S_l f on the grid."""
    c = _zero_padded(_analysis(f.cells, f.bits, (0,)), f.size)
    out = np.zeros((f.size + 1, f.size))
    np.cumsum(c[:, None] * walsh_matrix(f.bits), axis=0, out=out[1:])  # c * (+-1) is exact in float64
    return out


def _paley_scan(leaves: tuple[np.ndarray, ...], bits: int, merge) -> Iterator[tuple[np.ndarray, ...]]:
    """Blelloch's prefix scan ("Prefix sums and their applications", 1990) of
    the coefficients on the second-to-last axis, laid on the butterfly.

    Yields, for s = 1..bits, summaries of shape (..., blocks, cells): one per
    coefficient block [j 2^s, (j+1) 2^s) and level-s cell of x, on which a
    block's w_i, i < 2^s, live relative to its first index.  The Paley split
    w_{(2j+1) 2^s + i} = w_{j 2^(s+1)} r_s w_i joins blocks 2j and 2j+1
    through the digit r_s(x): `merge(left, right, 2^s)` gives, per summary,
    the pair (where r_s = +1, where r_s = -1).  Past the coefficients, block
    0 merges with an all-zero block, unchanged by r_s: it keeps its cells and
    the r_s = +1 branch, bit for bit the scan of the zero-padded coefficients.
    """
    state = leaves
    for s in range(bits):
        if state[0].shape[-2] == 1:
            state = tuple(plus for plus, _ in merge(state, (0.0,) * len(state), float(1 << s)))
        else:
            halves = [tuple(a[..., digit::2, :] for a in state) for digit in (0, 1)]
            state = tuple(np.stack(pair, axis=-1).reshape(pair[0].shape[:-1] + (-1,))
                          for pair in merge(*halves, float(1 << s)))
        yield state


def _square_merge(left, right, width):
    """(T, SP, SP2): total, sum of the prefixes (the empty one in, the full one
    out) and sum of their squares; the right block enters times r_s = +-1."""
    (tl, pl, ql), (tr, pr, qr) = left, right
    even = ql + width * tl * tl + qr
    cross = 2.0 * tl * pr
    psum = pl + width * tl
    return (tl + tr, tl - tr), (psum + pr, psum - pr), (even + cross, even - cross)


def dyadic_square_sums(f: DyadicGrid1D) -> list[np.ndarray]:
    """Q_k = sum_{l<2^k} (S_l f)^2, k = 0..bits, on its level-min(k, L) cells.

    f is constant on the level-L cells, every S_l with l < 2^k on the
    level-k cells, and S_l = f from l = 2^L.  It is `_paley_scan` with
    `_square_merge` on the band [0, 2^L) from `_analysis`, and Q_k is SP2 of
    block 0 at level k: O(2^L bits) time and memory.  The scan runs on
    `_pow2_scaled` coefficients c 2^-e, so no square overflows or
    underflows, and each Q_k is scaled back by 2^(2e): in-range sums keep
    every bit, and a Q_k beyond float64 raises DataError.
    """
    exponent, (total,) = _pow2_scaled(_analysis(f.cells, f.bits, (0,))[:, None], inplace=True)
    zero = np.zeros_like(total)
    states = _paley_scan((total, zero, zero), f.bits, _square_merge)
    sums = [zero[0].copy()] + [psq[0].copy() for _, _, psq in states]  # copies free each level
    for k, q in enumerate(sums):
        with np.errstate(over="ignore"):
            np.ldexp(q, 2 * exponent, out=q)
        if not np.isfinite(q.max()):
            raise DataError(f"dyadic square sum Q_{k} overflows float64: the samples are too large")
    return sums


def rectangular_partial_sum(f: DyadicGrid2D, m: int, n: int) -> DyadicGrid2D:
    """S_{M,N} f: synthesis of coefficients with row < M and column < N."""
    return type(f)(f.bits, _synthesis(_analysis(f.cells, f.bits, (0, 1)), f.bits, (m, n)))


class DiagonalSumField:
    """All quadratic partial sums S_nn(x, y; f), n = 0..2^bits, kept as the
    (K, 2^l) row and column profiles on the level-l cells, 2^l = max(2, K),
    K the band: S_nn = S_KK for n >= K, and every w_m, m < K, is constant on
    those cells.  `iter_sequence_blocks` yields one block per x-cell, each
    point's sequence contiguous; `sequence_at` gives one point.
    """

    def __init__(self, bits: int, row_profiles: np.ndarray, col_profiles: np.ndarray):
        self.bits, self.row_profiles, self.col_profiles = bits, row_profiles, col_profiles

    # The cube is never materialized; perfbench's tracer still reads both names.
    values = None
    streaming = True

    @property
    def size(self) -> int:
        return 1 << self.bits

    def sequence_at(self, ix: int, iy: int) -> np.ndarray:
        """The sequence n -> S_nn(x, y) at one grid point, length 2^bits + 1."""
        if not (0 <= ix < self.size and 0 <= iy < self.size):
            raise UsageError(f"grid point ({ix}, {iy}) outside the {self.bits}-bit grid")
        k, cells = self.row_profiles.shape  # the Walsh matrix is symmetric: row x holds w_m(x)
        wx, wy = walsh_row(ix, self.bits)[:k], walsh_row(iy, self.bits)[:k]
        u, v = self.row_profiles[:, iy * cells >> self.bits], self.col_profiles[:, ix * cells >> self.bits]
        seq = np.zeros(self.size + 1)
        np.cumsum(wx * u + v * wy, out=seq[1:k + 1])
        seq[k + 1:] = seq[k]
        return seq

    def iter_sequence_blocks(self) -> Iterator[tuple[slice, np.ndarray]]:
        """Yield (x-slice, block) with block[xi, j, yi, n] = S_nn(x, y) at
        y = j c + yi, n = 0..2^bits: one block per level-l x-cell of c = N >> l
        rows, in row order.  The cell's rank-two steps are formed once on the
        2^l y-cells, summed along n into one (2^l, N + 1) slab and from n = K
        on continued as S_KK; the block is that slab broadcast over the c rows
        of the x- and y-cells, read-only, and valid until the next block.
        """
        n, (k, cells) = self.size, self.row_profiles.shape
        rows = n // cells
        # row i of the symmetric Walsh matrix holds w_m on cell i, m < K <= 2^l
        w = walsh_matrix_f64(cells.bit_length() - 1)[:, :k]
        u, v = self.row_profiles.T, self.col_profiles.T
        steps, cross = np.empty(w.shape), np.empty(w.shape)  # scratch reused by every cell
        slab = np.zeros((cells, n + 1))  # column 0 stays 0
        for i in range(cells):
            np.multiply(w[i], u, out=steps)
            np.multiply(v[i], w, out=cross)
            steps += cross
            np.cumsum(steps, axis=-1, out=slab[:, 1:k + 1])
            slab[:, k + 1:] = slab[:, k, None]
            yield slice(i * rows, (i + 1) * rows), np.broadcast_to(slab[:, None], (rows, cells, rows, n + 1))


def quadratic_sums(f: DyadicGrid2D, mode: str = "auto") -> DiagonalSumField:
    """Build the streamed diagonal-sum field of f from its row and column
    profiles: the O(N^2) level scan, the band's analysis zero-padded to
    K x K (K its larger side), then O(K 2^l l) synthesis on the level-l cells.

    `mode` ("auto", "full" or "streaming") is accepted for callers written
    when the cube could be materialized; every value builds the same field.
    """
    if mode not in ("auto", "full", "streaming"):
        raise UsageError(f"unknown mode {mode!r}")
    band = _analysis(f.cells, f.bits, (0, 1))
    corner = _zero_padded(band, max(band.shape))
    # Row profiles synthesize the lower triangle (k <= v) of each spectral row
    # along y; column profiles synthesize the strict upper triangle along x.
    level = max(1, (len(corner) - 1).bit_length())
    row_profiles = _synthesis(np.tril(corner), level, (None, 1 << level))
    col_profiles = _synthesis(np.triu(corner, 1).T, level, (None, 1 << level))
    return DiagonalSumField(f.bits, row_profiles, col_profiles)
