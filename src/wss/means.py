"""Sequence-BMO norms, the BMO of the diagonal sums, Phi-means and the
entropy gauge.

A Phi-mean of a diagonal sequence averages Phi(|S_nn - f|) over n = 1..m, the
exponential-summability normalization of Theorem 2; report rows label it
window B.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DataError, UsageError
from .sums import DiagonalSumField
from .transform import BLOCK_BYTES, DyadicGrid, DyadicGrid2D, _pow2_scaled


def _max_mean_square_oscillation(a: np.ndarray, tail: np.ndarray | None = None,
                                 length: int = 0) -> np.ndarray:
    """Largest mean square deviation from the block mean over the integer dyadic
    blocks of the last axis of `a`, for every leading index.

    A pairwise pyramid with the merge of Chan, Golub and LeVeque ("Updating
    formulae and a pairwise algorithm for computing sample variances", 1979):
    a block carries its sum s and P, twice its sum of squared deviations, and
    sibling blocks of length h merge as

        s = s_L + s_R,    P = P_L + P_R + (s_L - s_R)^2 / h,

    the merged block's mean square deviation being P / 4h.  Single terms
    (deviation 0) are skipped.  There is no centring pass: the relative
    rounding error is about eps max|a| over the result, so rows should start
    near 0.  Every scale is a power of two: dyadic rationals stay exact.

    With `tail` (one value per leading index) the sequence goes on as `tail`
    up to `length` terms, a power of two.  A tail block of length h has P = 0
    and s = h * tail, both exact, so each level above a's length is one merge
    of the root block, with the same operations as on the whole sequence.
    """
    if a.shape[-1] == 1:
        total, spread, best, h = a[..., 0], 0.0, np.zeros(a.shape[:-1]), 1
    else:
        left, right = a[..., 0::2], a[..., 1::2]
        total = left + right
        spread = left - right
        spread *= spread
        best = spread.max(axis=-1) * 0.25
        h = 2
        while total.shape[-1] > 1:
            left, right = total[..., 0::2], total[..., 1::2]
            gap = left - right
            gap *= gap
            gap *= 1.0 / h
            spread = spread[..., 0::2] + spread[..., 1::2]
            spread += gap
            total = left + right
            best = np.maximum(best, spread.max(axis=-1) * (0.25 / h))
            h *= 2
        total, spread = total[..., 0], spread[..., 0]
    while h < length:
        right = h * tail
        gap = total - right
        gap *= gap
        gap *= 1.0 / h
        spread = spread + gap
        total = total + right
        best = np.maximum(best, spread * (0.25 / h))
        h *= 2
    return best


def bmo_sequence_norm(xi) -> float:
    """BMO norm of a sequence: sup over integer dyadic intervals J of the
    root-mean-square deviation from the interval mean, in O(L) by the
    pairwise pyramid `_max_mean_square_oscillation`, on the sequence less its
    first term (a shift leaves every oscillation unchanged).  The sequence
    must be 1D, finite and of power-of-two length (DataError otherwise)."""
    x = np.asarray(xi, dtype=np.float64)
    if x.ndim != 1:
        raise DataError(f"sequence must be 1D, got shape {x.shape}")
    n = len(x)
    if n < 1 or n & (n - 1):
        raise DataError(f"sequence length {n} is not a power of two")
    if not np.isfinite(x).all():
        raise DataError("sequence contains non-finite values")
    return math.sqrt(float(_max_mean_square_oscillation(x - x[0])))


def bmo_of_diagonal_sums(field: DiagonalSumField) -> DyadicGrid2D:
    """At each grid point, the BMO norm of the sequence n -> S_nn(x, y),
    n = 0..2^bits - 1, on the field's level-l cells, 2^l = max(2, K).

    Every S_nn is constant on those cells, so one batched oscillation pyramid
    with the Chan-Golub-LeVeque merge, `_max_mean_square_oscillation`,
    reduces the 2^l sequences of each x-cell's slab.  S_nn = S_KK for n >= K,
    so the pyramid reads each sequence up to n = K and continues it as S_KK
    up to N: O(4^l (K + log N)) arithmetic (K = N: about 2 N^3 (interval,
    point) pairs), one slab and the 4^l results in memory.  The norm is
    1-homogeneous, so it runs on `_pow2_scaled` profiles and the result is
    scaled back: squares of huge or tiny amplitudes neither overflow nor
    underflow, and in-range results keep every bit.
    """
    if field.size < 2:
        raise UsageError("diagonal field must cover at least 2 indices")
    n, (k, cells) = field.size, field.row_profiles.shape
    exponent, profiles = _pow2_scaled(field.row_profiles, field.col_profiles)
    scaled = DiagonalSumField(field.bits, *profiles)
    out = np.empty((cells, cells))
    for i, (_, block) in enumerate(scaled.iter_sequence_blocks()):
        out[i] = _max_mean_square_oscillation(block[0, :, 0, :k], block[0, :, 0, k], n)
    return DyadicGrid2D.from_cells(field.bits, np.ldexp(np.sqrt(out, out=out), exponent, out=out))


class PhiFunction(NamedTuple):
    """Increasing continuous gauge with Phi(0) = 0, used for Phi-means:
    power(p) for t^p or exp_minus_one(a) for exp(a t) - 1."""

    tag: str
    param: float

    @classmethod
    def power(cls, p: float) -> "PhiFunction":
        if p <= 0:
            raise UsageError(f"power exponent must be positive, got {p}")
        return cls("power", float(p))

    @classmethod
    def exp_minus_one(cls, a: float) -> "PhiFunction":
        if a <= 0:
            raise UsageError(f"exponential rate must be positive, got {a}")
        return cls("exp_minus_one", float(a))

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        with np.errstate(over="ignore"):
            if self.tag == "power":
                return t**self.param
            return np.expm1(self.param * t)

    def describe(self) -> str:
        return f"{self.tag}:{self.param:g}"


def phi_mean_sequence(seq: np.ndarray, f_value: float, m: int, phi: PhiFunction) -> float:
    """Phi-mean (1/m) sum_{n=1}^{m} Phi(|seq[n] - f_value|) of a single
    per-point diagonal sequence (length >= m + 1)."""
    if m < 1 or m + 1 > seq.shape[0]:
        raise UsageError(f"mean order {m} outside the sequence range")
    dev = np.abs(np.asarray(seq, dtype=np.float64)[1:m + 1] - f_value)
    return float(phi(dev).mean())


def entropy_functional(f: DyadicGrid, alpha: float) -> float:
    """Zygmund-class gauge: the mean of |f| (log+ |f|)^alpha over the grid,
    taken over its cells (each has the same measure).

    alpha = 0 gives the L1 norm.  log+ u = log(max(u, 1)).  The terms are
    formed and `_pow2_scaled` in place in one private copy of |f| on the
    cells, each piece of BLOCK_BYTES beside its own log+ block (the cells and
    one block in memory); their scaled mean cannot overflow, and terms beyond
    float64 raise DataError.
    """
    if alpha < 0:
        raise UsageError(f"entropy exponent must be >= 0, got {alpha}")
    terms = np.abs(f.cells)
    if alpha:
        for piece in np.array_split(terms, -(-terms.nbytes // BLOCK_BYTES)):
            logs = np.maximum(piece, 1.0)
            np.log(logs, out=logs)
            with np.errstate(over="ignore"):
                if alpha != 1:  # u ** 1 == u
                    logs **= alpha
                piece *= logs
            del logs  # before the next piece allocates its own
    exponent, (scaled,) = _pow2_scaled(terms, inplace=True)
    mean = float(np.ldexp(scaled.mean(), exponent))
    if mean == np.inf:  # only an infinite term makes the mean of scaled terms infinite
        raise DataError(f"entropy gauge at alpha={alpha:g} overflows float64")
    return mean
