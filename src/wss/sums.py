"""Rectangular, quadratic and marginal partial sums of Walsh-Fourier series.

The diagonal (quadratic) sums S_nn are produced incrementally: moving from
S_nn to S_{n+1,n+1} adds spectral row n (k <= n) and spectral column n
(m < n).  With the two helper tables

    u[v, y] = sum_{k<=v} c[v, k] w_k(y)    (row profiles)
    v[v, x] = sum_{m<v}  c[m, v] w_m(x)    (column profiles)

each step is the rank-two update w_v(x) u[v, y] + v[v, x] w_v(y), so the full
field costs O(2^{3B}) and a single point's sequence costs O(2^B).  The field
can be materialized (guarded by bits <= WSS_MAX_B, default 8) or streamed in
blocks of x-rows.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .dyadic import bit_reverse_permutation, walsh_matrix_f64
from .errors import ResourceLimitError, UsageError
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

DEFAULT_MAX_FULL_BITS = 8


def max_full_bits() -> int:
    """Materialization guard; override with the WSS_MAX_B environment variable."""
    raw = os.environ.get("WSS_MAX_B")
    if raw is None:
        return DEFAULT_MAX_FULL_BITS
    try:
        return int(raw)
    except ValueError as exc:
        raise UsageError(f"WSS_MAX_B must be an integer, got {raw!r}") from exc


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
    """All quadratic partial sums S_nn(x, y; f), n = 0..2^bits.

    ``values`` (when materialized) has shape (2^bits + 1, N, N) with
    values[n] = S_nn on the grid.  In streaming mode only the O(N^2) row and
    column profiles are kept and sequences are produced on demand, in blocks
    of x-rows, without materializing the (N+1, N, N) cube.
    """

    bits: int
    row_profiles: np.ndarray = field(repr=False)
    col_profiles: np.ndarray = field(repr=False)
    values: np.ndarray | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return 1 << self.bits

    @property
    def length(self) -> int:
        """Number of diagonal indices produced (n = 0..2^bits inclusive)."""
        return self.size + 1

    @property
    def streaming(self) -> bool:
        return self.values is None

    def slice_at(self, n: int) -> np.ndarray:
        """S_nn on the full grid, shape (N, N)."""
        if not 0 <= n <= self.size:
            raise UsageError(f"diagonal index {n} outside [0, 2^{self.bits}]")
        if self.values is not None:
            return self.values[n]
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
        if self.values is not None:
            return self.values[:, ix, iy].copy()
        w = walsh_matrix_f64(self.bits)
        steps = w[:, ix] * self.row_profiles[:, iy] + self.col_profiles[:, ix] * w[:, iy]
        seq = np.zeros(self.size + 1)
        np.cumsum(steps, out=seq[1:])
        return seq

    def iter_sequence_blocks(self, max_rows: int = 16) -> Iterator[tuple[slice, np.ndarray]]:
        """Yield (x-slice, block) with block[xi, y, n] = S_nn(x, y).

        Blocks cover the grid in row order; each block holds max_rows rows of
        full per-point diagonal sequences (n = 0..2^bits).
        """
        if max_rows < 1:
            raise UsageError("max_rows must be >= 1")
        n = self.size
        w = walsh_matrix_f64(self.bits) if self.values is None else None
        for x0 in range(0, n, max_rows):
            sl = slice(x0, min(x0 + max_rows, n))
            if self.values is not None:
                yield sl, np.ascontiguousarray(self.values[:, sl, :].transpose(1, 2, 0))
                continue
            steps = (
                w[:, sl, None] * self.row_profiles[:, None, :]
                + self.col_profiles[:, sl, None] * w[:, None, :]
            )
            seqs = np.zeros((n + 1, sl.stop - sl.start, n))
            np.cumsum(steps, axis=0, out=seqs[1:])
            yield sl, np.ascontiguousarray(seqs.transpose(1, 2, 0))


def quadratic_sums(f: DyadicGrid2D, mode: str = "auto") -> DiagonalSumField:
    """Build the diagonal-sum field for f.

    mode "full" materializes all (2^bits + 1) slices (refused above the
    WSS_MAX_B guard), "streaming" keeps only the O(N^2) profiles, "auto"
    materializes when within the guard.
    """
    if mode not in ("auto", "full", "streaming"):
        raise UsageError(f"unknown mode {mode!r}")
    limit = max_full_bits()
    if mode == "auto":
        mode = "full" if f.bits <= limit else "streaming"
    if mode == "full" and f.bits > limit:
        raise ResourceLimitError(
            f"materializing 2^{3 * f.bits} diagonal sums exceeds the guard "
            f"(bits {f.bits} > {limit}); use streaming mode or raise WSS_MAX_B"
        )

    n = f.size
    coeffs = wht_2d(f).coeffs
    rev = bit_reverse_permutation(f.bits)
    # Row profiles synthesize the lower triangle (k <= v) of each spectral row
    # along y; column profiles synthesize the strict upper triangle along x.
    row_profiles = _fwht(np.tril(coeffs)[:, rev], 1)
    col_profiles = _fwht(np.triu(coeffs, 1).T[:, rev], 1)

    values = None
    if mode == "full":
        w = walsh_matrix_f64(f.bits)
        values = np.empty((n + 1, n, n))
        values[0] = 0.0
        for v in range(n):
            delta = np.multiply.outer(w[v], row_profiles[v]) + np.multiply.outer(
                col_profiles[v], w[v]
            )
            values[v + 1] = values[v] + delta
    return DiagonalSumField(f.bits, row_profiles, col_profiles, values)
