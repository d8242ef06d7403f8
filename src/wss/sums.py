"""Rectangular and quadratic partial sums of Walsh-Fourier series.

The diagonal (quadratic) sums S_nn are produced incrementally: moving from
S_nn to S_{n+1,n+1} adds spectral row n (k <= n) and spectral column n
(m < n).  With the two helper tables

    u[v, y] = sum_{k<=v} c[v, k] w_k(y)    (row profiles)
    v[v, x] = sum_{m<v}  c[m, v] w_m(x)    (column profiles)

each step is the rank-two update w_v(x) u[v, y] + v[v, x] w_v(y), so the full
field costs O(2^{3B}) and a single point's sequence costs O(2^B).  f_hat lives
on the K x K band `_analysis` returns, so every step from n = K is 0 and
S_nn = S_KK.  Only the (K, 2^B) profiles are stored; the field streams
(x, y, n) blocks of whole per-point sequences, each one cumulative sum of the
steps below K in a fixed byte budget, never the (2^B + 1) x 2^B x 2^B cube.
Every partial sum and profile is one truncated synthesis,
`wss.transform._synthesis`; the sums of (S_l f)^2 over the dyadic blocks
of orders at every point come from one Paley prefix scan, `_paley_scan`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .dyadic import walsh_matrix, walsh_matrix_f64, walsh_row
from .errors import DataError, UsageError
from .transform import (BLOCK_BYTES, DyadicGrid1D, DyadicGrid2D, _analysis, _pow2_scaled, _synthesis,
                        _zero_padded)


def partial_sum_1d(f: DyadicGrid1D, n: int) -> DyadicGrid1D:
    """Partial sum S_n f = sum_{k<n} f_hat(k) w_k; S_0 is identically 0."""
    return type(f)(f.bits, _synthesis(_analysis(f.cells, f.bits, (0,)), f.bits, (n,)))


def all_partial_sums_1d(f: DyadicGrid1D) -> np.ndarray:
    """Array of shape (2^bits + 1, 2^bits): row l holds S_l f on the grid."""
    return _prefix_sums(_zero_padded(_analysis(f.cells, f.bits, (0,)), f.size), f.bits)


def _prefix_sums(c: np.ndarray, bits: int) -> np.ndarray:
    """Rows l = 0..2^bits of sum_{i<l} c[i] w_i on the level-`bits` cells."""
    terms = c[:, None] * walsh_matrix(bits)  # c * (+-1) is exact in float64
    out = np.zeros((terms.shape[0] + 1, terms.shape[1]))
    np.cumsum(terms, axis=0, out=out[1:])
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


@dataclass
class DiagonalSumField:
    """All quadratic partial sums S_nn(x, y; f), n = 0..2^bits, kept as the
    (K, N) row and column profiles, K the band: S_nn = S_KK for n >= K.

    `iter_sequence_blocks` yields blocks of x-rows in (x, y, n) order, so each
    grid point's whole sequence n -> S_nn(x, y) is contiguous; `sequence_at`
    gives one point.
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

    def sequence_at(self, ix: int, iy: int) -> np.ndarray:
        """The sequence n -> S_nn(x, y) at one grid point, length 2^bits + 1."""
        if not (0 <= ix < self.size and 0 <= iy < self.size):
            raise UsageError(f"grid point ({ix}, {iy}) outside the {self.bits}-bit grid")
        k = len(self.row_profiles)  # the Walsh matrix is symmetric: row x holds w_m(x)
        wx, wy = walsh_row(ix, self.bits)[:k], walsh_row(iy, self.bits)[:k]
        seq = np.zeros(self.size + 1)
        np.cumsum(wx * self.row_profiles[:, iy] + self.col_profiles[:, ix] * wy, out=seq[1:k + 1])
        seq[k + 1:] = seq[k]
        return seq

    def iter_sequence_blocks(self) -> Iterator[tuple[slice, np.ndarray]]:
        """Yield (x-slice, block) with block[xi, y, n] = S_nn(x, y), n = 0..2^bits.

        Blocks cover the grid in row order.  Each holds as many x-rows as fit
        in BLOCK_BYTES (at least one, at most N): a block that stays in
        cache beats a larger one.  The rank-two steps below the band K are
        formed from the band's Walsh matrix, repeated down the x-rows, and the
        transposed profile tables directly in (x, y, n) order and summed along
        n into the block, with no copy after; from n = K on every step is 0, so
        the rest of each sequence is S_KK, copied.  Every block is a view of one
        buffer: it is valid only until the next block is yielded; never write it.
        """
        n, k = self.size, len(self.row_profiles)
        per_block = min(n, max(1, BLOCK_BYTES // (8 * n * (n + 1))))
        # row x of the symmetric Walsh matrix holds w_m(x): for m < K <= 2^level, row x >> (bits - level)
        level = max(1, (k - 1).bit_length())
        w_t = np.repeat(walsh_matrix_f64(level)[:, :k], n >> level, axis=0)
        u_t = np.ascontiguousarray(self.row_profiles.T)
        v_t = np.ascontiguousarray(self.col_profiles.T)
        steps = np.empty((per_block, n, k))  # scratch reused by every block
        cross = np.empty_like(steps)
        buf = np.zeros((per_block, n, n + 1))  # column 0 stays 0; fresh blocks would fault pages in
        for x0 in range(0, n, per_block):
            sl = slice(x0, min(x0 + per_block, n))
            rows = sl.stop - sl.start
            block = buf[:rows]
            np.multiply(w_t[sl, None, :], u_t, out=steps[:rows])
            np.multiply(v_t[sl, None, :], w_t, out=cross[:rows])
            steps[:rows] += cross[:rows]
            np.cumsum(steps[:rows], axis=-1, out=block[..., 1:k + 1])
            block[..., k + 1:] = block[..., k, None]
            yield sl, block


def quadratic_sums(f: DyadicGrid2D, mode: str = "auto") -> DiagonalSumField:
    """Build the streamed diagonal-sum field of f from its row and column
    profiles: the O(N^2) level scan, the band's analysis zero-padded to
    K x K (K its larger side), then O(K N log N) synthesis.

    `mode` ("auto", "full" or "streaming") is accepted for callers written
    when the cube could be materialized; every value builds the same field.
    """
    if mode not in ("auto", "full", "streaming"):
        raise UsageError(f"unknown mode {mode!r}")
    band = _analysis(f.cells, f.bits, (0, 1))
    corner = _zero_padded(band, max(band.shape))
    # Row profiles synthesize the lower triangle (k <= v) of each spectral row
    # along y; column profiles synthesize the strict upper triangle along x.
    row_profiles = _synthesis(np.tril(corner), f.bits, (None, f.size))
    col_profiles = _synthesis(np.triu(corner, 1).T, f.bits, (None, f.size))
    return DiagonalSumField(f.bits, row_profiles, col_profiles)
