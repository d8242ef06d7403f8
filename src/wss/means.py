"""Marcinkiewicz means, strong p-means, Phi-means, and BMO norms.

Window conventions for averages over diagonal sums: convention "A" averages
indices k = 0..n-1 (the strong-mean normalization over a dyadic block),
convention "B" averages k = 1..n (the exponential-summability normalization).
Strong means default to A, Phi-means to B; every report row produced by the
experiment harness records which window was used.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import DataError, UsageError
from .sums import DiagonalSumField
from .transform import DyadicGrid, DyadicGrid1D, DyadicGrid2D, _pow2_scaled


@dataclass(frozen=True)
class IndexInterval:
    """Integer dyadic interval J = [j 2^m, (j+1) 2^m) of natural numbers."""

    j: int
    m: int

    def __post_init__(self):
        if self.j < 0 or self.m < 0:
            raise UsageError(f"interval parameters ({self.j}, {self.m}) must be >= 0")

    @property
    def start(self) -> int:
        return self.j << self.m

    @property
    def stop(self) -> int:
        return (self.j + 1) << self.m

    def __len__(self) -> int:
        return 1 << self.m


def integer_dyadic_intervals(length: int) -> Iterator[IndexInterval]:
    """All integer dyadic intervals contained in [0, length), length = 2^M."""
    if length < 1 or length & (length - 1):
        raise UsageError(f"length {length} is not a power of two")
    levels = length.bit_length() - 1
    for m in range(levels + 1):
        for j in range(length >> m):
            yield IndexInterval(j, m)


@dataclass
class SummandSequence:
    """A finite real sequence of power-of-two length (e.g. n -> S_nn at a point)."""

    values: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.values, dtype=np.float64)
        if a.ndim != 1:
            raise DataError(f"sequence must be 1D, got shape {a.shape}")
        n = a.shape[0]
        if n < 1 or n & (n - 1):
            raise DataError(f"sequence length {n} is not a power of two")
        if not np.isfinite(a).all():
            raise DataError("sequence contains non-finite values")
        self.values = a

    def __len__(self) -> int:
        return len(self.values)


def _sequence_values(xi) -> np.ndarray:
    if isinstance(xi, SummandSequence):
        return xi.values
    return SummandSequence(np.asarray(xi)).values


def _max_mean_square_oscillation(a: np.ndarray) -> np.ndarray:
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
    """
    if a.shape[-1] == 1:
        return np.zeros(a.shape[:-1])
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
    return best


def bmo_sequence_norm(xi) -> float:
    """BMO norm of a sequence: sup over integer dyadic intervals J of the
    root-mean-square deviation from the interval mean, in O(L) by the
    pairwise pyramid `_max_mean_square_oscillation`, on the sequence less its
    first term (a shift leaves every oscillation unchanged)."""
    x = _sequence_values(xi)
    return math.sqrt(float(_max_mean_square_oscillation(x - x[0])))


def bmo_sequence_norm_function_form(xi) -> float:
    """Sequence-BMO via step functions: sup over n of the function-BMO norm
    of the step function carrying the first 2^n terms on level-n cells.

    Unlike bmo_sequence_norm this inherits the |integral| term of the
    function norm, so the two displays need not coincide; tests report
    their ratio rather than asserting equality.
    """
    x = _sequence_values(xi)
    levels = len(x).bit_length() - 1
    best = abs(float(x[0]))  # n = 0: the constant step function xi_0
    for n in range(1, levels + 1):
        best = max(best, bmo_function_norm(DyadicGrid1D(n, x[: 1 << n])))
    return best


def bmo_function_norm(f: DyadicGrid1D) -> float:
    """Dyadic-BMO norm of a step function: sup over dyadic intervals of the
    L2 mean oscillation, plus the |integral of f| term."""
    oscillation = math.sqrt(float(_max_mean_square_oscillation(f.samples - f.samples[0])))
    return oscillation + abs(float(f.samples.mean()))


def bmo_of_diagonal_sums(field: DiagonalSumField, max_rows: int | None = None) -> DyadicGrid2D:
    """At each grid point, the BMO norm of the sequence n -> S_nn(x, y),
    n = 0..2^bits - 1.

    The field's (x, y, n) blocks go through one batched oscillation pyramid
    with the Chan-Golub-LeVeque merge, `_max_mean_square_oscillation`: about
    2 N^3 (interval, point) pairs in O(N^3) time and a few blocks of memory.
    The norm is 1-homogeneous, so it runs on `_pow2_scaled` profiles and the
    result is scaled back: squares of huge or tiny amplitudes neither
    overflow nor underflow, and in-range results keep every bit.
    """
    if field.size < 2:
        raise UsageError("diagonal field must cover at least 2 indices")
    n = field.size
    exponent, profiles = _pow2_scaled(field.row_profiles, field.col_profiles)
    scaled = DiagonalSumField(field.bits, *profiles)
    out = np.empty((n, n))
    for sl, block in scaled.iter_sequence_blocks(max_rows=max_rows):
        out[sl] = _max_mean_square_oscillation(block[..., :n])
    return DyadicGrid2D(field.bits, np.ldexp(np.sqrt(out), exponent))


_PHI_PROBE = np.concatenate(([0.0], np.geomspace(1e-6, 50.0, 40)))


@dataclass(frozen=True)
class PhiFunction:
    """Increasing continuous gauge with Phi(0) = 0, used for Phi-means.

    Built-in tags: power(p) for t^p and exp_minus_one(a) for exp(a t) - 1.
    Custom gauges supply a callable (and optionally its log for overflow-safe
    evaluation).
    """

    tag: str
    param: float | None = None
    fn: Callable[[np.ndarray], np.ndarray] | None = None
    log_fn: Callable[[np.ndarray], np.ndarray] | None = None

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

    @classmethod
    def custom(cls, fn, log_fn=None) -> "PhiFunction":
        phi = cls("custom", None, fn, log_fn)
        phi.validate()
        return phi

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        with np.errstate(over="ignore"):
            if self.tag == "power":
                return t**self.param
            if self.tag == "exp_minus_one":
                return np.expm1(self.param * t)
        return np.asarray(self.fn(t), dtype=np.float64)

    def log_value(self, t) -> np.ndarray:
        """log Phi(t), stable for arguments where Phi overflows float64."""
        t = np.asarray(t, dtype=np.float64)
        with np.errstate(divide="ignore"):
            if self.tag == "power":
                return self.param * np.log(t)
            if self.tag == "exp_minus_one":
                a_t = self.param * t
                small = np.minimum(a_t, 700.0)
                with np.errstate(invalid="ignore"):
                    out = np.where(a_t > 700.0, a_t, np.log(np.expm1(small)))
                return out
            if self.log_fn is not None:
                return np.asarray(self.log_fn(t), dtype=np.float64)
            return np.log(self(t))

    def validate(self, probe: np.ndarray = _PHI_PROBE) -> None:
        vals = self(probe)
        if vals[0] != 0.0:
            raise UsageError(f"gauge must vanish at 0, got {vals[0]}")
        finite = vals[np.isfinite(vals)]
        if np.any(np.diff(finite) < 0):
            raise UsageError("gauge must be nondecreasing")

    def describe(self) -> str:
        if self.param is not None:
            return f"{self.tag}:{self.param:g}"
        return self.tag


def _window_indices(n: int, window: str) -> tuple[int, int]:
    if window == "A":
        return 0, n
    if window == "B":
        return 1, n + 1
    raise UsageError(f"unknown window convention {window!r}")


def _check_mean_order(field: DiagonalSumField, n: int) -> None:
    if not 1 <= n <= field.size:
        raise UsageError(f"mean order {n} outside [1, 2^{field.bits}]")


def marcinkiewicz_mean(field: DiagonalSumField, n: int) -> DyadicGrid2D:
    """Arithmetic mean of S_kk over k = 0..n-1 (window A; S_00 = 0)."""
    _check_mean_order(field, n)
    out = np.empty((field.size, field.size))
    for sl, block in field.iter_sequence_blocks():
        out[sl] = block[..., :n].mean(axis=-1)
    return DyadicGrid2D(field.bits, out)


def strong_mean(
    field: DiagonalSumField,
    f: DyadicGrid2D,
    n: int,
    p: float,
    deviation: bool = False,
    window: str = "A",
) -> DyadicGrid2D:
    """Strong p-mean: (1/n sum_k |S_kk|^p)^(1/p) over the chosen window.

    With deviation=True the summands are |S_kk - f| instead of |S_kk|.
    """
    if p <= 0:
        raise UsageError(f"strong-mean exponent must be positive, got {p}")
    _check_mean_order(field, n)
    lo, hi = _window_indices(n, window)
    out = np.empty((field.size, field.size))
    for sl, block in field.iter_sequence_blocks():
        terms = block[..., lo:hi]
        if deviation:
            terms = terms - f.samples[sl][..., None]
        out[sl] = (np.abs(terms) ** p).mean(axis=-1) ** (1.0 / p)
    return DyadicGrid2D(field.bits, out)


def phi_mean(
    field: DiagonalSumField,
    f: DyadicGrid2D,
    m: int,
    phi: PhiFunction,
    window: str = "B",
) -> DyadicGrid2D:
    """Phi-mean (1/m) sum_{n=1}^{m} Phi(|S_nn - f|) (window B by default).

    Raises DataError if any mean overflows float64; in that regime use
    log_phi_mean and compare against log-scale thresholds instead.
    """
    _check_mean_order(field, m)
    lo, hi = _window_indices(m, window)
    out = np.empty((field.size, field.size))
    for sl, block in field.iter_sequence_blocks():
        dev = np.abs(block[..., lo:hi] - f.samples[sl][..., None])
        out[sl] = phi(dev).mean(axis=-1)
    if not np.isfinite(out).all():
        raise DataError(
            "Phi-mean overflowed float64; evaluate with log_phi_mean instead"
        )
    return DyadicGrid2D(field.bits, out)


def log_phi_mean(
    field: DiagonalSumField,
    f: DyadicGrid2D,
    m: int,
    phi: PhiFunction,
    window: str = "B",
) -> np.ndarray:
    """log of the Phi-mean, by a shifted log-sum-exp of log Phi.

    Stays finite (or -inf for an exactly-zero mean) even when individual
    summands exceed 1e300, so superlevel sweeps can compare against
    log(lambda) without ever forming the raw values.
    """
    _check_mean_order(field, m)
    lo, hi = _window_indices(m, window)
    out = np.empty((field.size, field.size))
    for sl, block in field.iter_sequence_blocks():
        dev = np.abs(block[..., lo:hi] - f.samples[sl][..., None])
        logs = phi.log_value(dev)
        peak = logs.max(axis=-1, keepdims=True)
        safe_peak = np.where(np.isfinite(peak), peak, 0.0)
        with np.errstate(divide="ignore"):
            out[sl] = (
                np.log(np.exp(logs - safe_peak).sum(axis=-1))
                + safe_peak[..., 0]
                - math.log(m)
            )
    return out


def phi_mean_sequence(seq: np.ndarray, f_value: float, m: int, phi: PhiFunction,
                      window: str = "B") -> float:
    """Phi-mean of a single per-point diagonal sequence (length >= m + 1)."""
    if m < 1 or m + 1 > seq.shape[0]:
        raise UsageError(f"mean order {m} outside the sequence range")
    lo, hi = _window_indices(m, window)
    dev = np.abs(np.asarray(seq, dtype=np.float64)[lo:hi] - f_value)
    return float(phi(dev).mean())


def entropy_functional(f: DyadicGrid, alpha: float) -> float:
    """Zygmund-class gauge: the mean of |f| (log+ |f|)^alpha over the grid.

    alpha = 0 gives the L1 norm.  log+ u = log(max(u, 1)).  The mean of the
    `_pow2_scaled` terms cannot overflow; terms beyond float64 raise DataError.
    """
    if alpha < 0:
        raise UsageError(f"entropy exponent must be >= 0, got {alpha}")
    a = np.abs(f.samples)
    with np.errstate(over="ignore"):
        terms = a * np.log(np.maximum(a, 1.0)) ** alpha if alpha else a
    exponent, (scaled,) = _pow2_scaled(terms)
    mean = float(np.ldexp(scaled.mean(), exponent))
    if mean == np.inf:  # only an infinite term makes the mean of scaled terms infinite
        raise DataError(f"entropy gauge at alpha={alpha:g} overflows float64")
    return mean
