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
Every partial sum and profile is one truncated synthesis,
`wss.transform._synthesis`; statistics of all partial sums at every point
come from one Paley prefix scan, `_paley_scan`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .dyadic import walsh_matrix, walsh_matrix_f64
from .errors import UsageError
from .transform import DyadicGrid1D, DyadicGrid2D, _analysis, _synthesis

BLOCK_BYTES = 2 << 20  # one streamed sequence block: about an L2 cache


def partial_sum_1d(f: DyadicGrid1D, n: int) -> DyadicGrid1D:
    """Partial sum S_n f = sum_{k<n} f_hat(k) w_k; S_0 is identically 0."""
    return type(f)(f.bits, _synthesis(_analysis(f.samples, f.bits, (0,)), f.bits, (n,)))


def all_partial_sums_1d(f: DyadicGrid1D) -> np.ndarray:
    """Array of shape (2^bits + 1, 2^bits): row l holds S_l f on the grid."""
    return _prefix_sums(_analysis(f.samples, f.bits, (0,)), f.bits)


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
    the pair (where r_s = +1, where r_s = -1).
    """
    state = leaves
    for s in range(bits):
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
    """Q_k = sum_{l<2^k} (S_l f)^2 for k = 0..bits, each on its level-k cells.

    Entry k has length 2^k: Q_k is constant on the level-k cells, because
    every S_l with l < 2^k is.  It is `_paley_scan` with `_square_merge`, and
    Q_k is SP2 of block 0 at level k.  O(N log N) time, O(N) memory.
    """
    total = _analysis(f.samples, f.bits, (0,))[:, None]
    zero = np.zeros_like(total)
    states = _paley_scan((total, zero, zero), f.bits, _square_merge)
    return [zero[0].copy()] + [psq[0].copy() for _, _, psq in states]  # copies free each level


def rectangular_partial_sum(f: DyadicGrid2D, m: int, n: int) -> DyadicGrid2D:
    """S_{M,N} f: synthesis of coefficients with row < M and column < N."""
    return type(f)(f.bits, _synthesis(_analysis(f.samples, f.bits, (0, 1)), f.bits, (m, n)))


def marginal_sum_1(f: DyadicGrid2D, n: int) -> DyadicGrid2D:
    """S_n^(1): the order-n 1D partial sum applied in x for each fixed y."""
    return type(f)(f.bits, _synthesis(_analysis(f.samples, f.bits, (0,)), f.bits, (n, None)))


def marginal_sum_2(f: DyadicGrid2D, m: int) -> DyadicGrid2D:
    """S_m^(2): the order-m 1D partial sum applied in y for each fixed x."""
    return type(f)(f.bits, _synthesis(_analysis(f.samples, f.bits, (1,)), f.bits, (None, m)))


def _range_merge(left, right, width):
    """(T, max, min) over the nonempty prefixes of a block."""
    (tl, hl, ll), (tr, hr, lr) = left, right
    high = np.maximum(hl, tl + hr), np.maximum(hl, tl - lr)
    low = np.minimum(ll, tl + lr), np.minimum(ll, tl - hr)
    return (tl + tr, tl - tr), high, low


def marginal_maximal_2(f: DyadicGrid2D) -> DyadicGrid2D:
    """Pointwise sup over m = 1..2^bits of |S_m^(2) f|: `_paley_scan` along y
    with a (total, max prefix, min prefix) merge, O(N^2 log N)."""
    c = _analysis(f.samples, f.bits, (1,))[..., None]
    for _, high, low in _paley_scan((c, c, c), f.bits, _range_merge):
        pass  # only the last level, one block of N cells per x, is needed
    return type(f)(f.bits, np.maximum(high, -low)[:, 0, :])


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
        rows = _synthesis(self.row_profiles, self.bits, (n, None))
        return rows + _synthesis(self.col_profiles, self.bits, (n, None)).T

    def sequence_at(self, ix: int, iy: int) -> np.ndarray:
        """The sequence n -> S_nn(x, y) at one grid point, length 2^bits + 1."""
        if not (0 <= ix < self.size and 0 <= iy < self.size):
            raise UsageError(f"grid point ({ix}, {iy}) outside the {self.bits}-bit grid")
        w = walsh_matrix_f64(self.bits)  # symmetric: W[k, i] = W[i, k]
        steps = w[ix] * self.row_profiles[:, iy] + self.col_profiles[:, ix] * w[iy]
        seq = np.zeros(self.size + 1)
        np.cumsum(steps, out=seq[1:])
        return seq

    def iter_sequence_blocks(self, max_rows: int | None = None) -> Iterator[tuple[slice, np.ndarray]]:
        """Yield (x-slice, block) with block[xi, y, n] = S_nn(x, y), n = 0..2^bits.

        Blocks cover the grid in row order.  By default each holds as many
        x-rows as fit in BLOCK_BYTES (at least one): a block that stays in
        cache beats a larger one.  The rank-two steps are formed from the
        (symmetric) Walsh matrix and transposed profile tables directly in
        (x, y, n) order and summed along n into the block, with no copy after.
        """
        n = self.size
        if max_rows is None:
            max_rows = max(1, BLOCK_BYTES // (8 * n * (n + 1)))
        if max_rows < 1:
            raise UsageError("max_rows must be >= 1")
        max_rows = min(max_rows, n)
        w = walsh_matrix_f64(self.bits)
        u_t = np.ascontiguousarray(self.row_profiles.T)
        v_t = np.ascontiguousarray(self.col_profiles.T)
        steps = np.empty((max_rows, n, n))  # scratch reused by every block
        cross = np.empty_like(steps)
        for x0 in range(0, n, max_rows):
            sl = slice(x0, min(x0 + max_rows, n))
            rows = sl.stop - sl.start
            block = np.empty((rows, n, n + 1))
            block[..., 0] = 0.0
            np.multiply(w[sl, None, :], u_t, out=steps[:rows])
            np.multiply(v_t[sl, None, :], w, out=cross[:rows])
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
    coeffs = _analysis(f.samples, f.bits, (0, 1))
    # Row profiles synthesize the lower triangle (k <= v) of each spectral row
    # along y; column profiles synthesize the strict upper triangle along x.
    row_profiles = _synthesis(np.tril(coeffs), f.bits, (None, f.size))
    col_profiles = _synthesis(np.triu(coeffs, 1).T, f.bits, (None, f.size))
    return DiagonalSumField(f.bits, row_profiles, col_profiles)
