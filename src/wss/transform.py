"""Walsh-Fourier analysis and synthesis in Paley order, 1D and 2D.

Analysis carries the 2**-bits measure factor so coefficients equal the
integrals int f w_k; synthesis carries no factor.  Every fast path, here and
in `wss.sums`, is `_analysis` or the truncated synthesis `_synthesis`: a
natural-order Hadamard butterfly composed with a bit-reversal permutation
(Paley row k of the sampled Walsh matrix is natural row reverse(k)).  Each
pass copies its axis to the front of a fresh C-contiguous buffer (in
synthesis that copy is the bit-reversal; analysis bit-reverses after the
butterfly), and the butterfly runs in place on contiguous slabs of that
buffer with one half-size scratch array, so a pass allocates nothing per
stage and never writes to its input.  The naive transforms evaluate the
defining sums directly with a fixed ascending summation order and serve as
oracles for the fast paths.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import bit_reverse_permutation, validate_bits, walsh_matrix_f64
from .errors import DataError, UsageError


def _as_grid_array(values, dims: int) -> tuple[int, np.ndarray]:
    a = np.asarray(values, dtype=np.float64)
    if a.ndim != dims:
        raise DataError(f"expected a {dims}D array, got shape {a.shape}")
    n = a.shape[0]
    if n < 2 or n & (n - 1):
        raise DataError(f"grid length {n} is not a power of two >= 2")
    if any(s != n for s in a.shape):
        raise DataError(f"grid must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DataError("grid contains non-finite samples")
    bits = n.bit_length() - 1
    validate_bits(bits, dims=dims)
    return bits, a


@dataclass
class DyadicGrid1D:
    """Step function on [0, 1), constant on cells of length 2**-bits.

    samples[i] is the value on [i 2^-bits, (i+1) 2^-bits).
    """

    bits: int
    samples: np.ndarray

    def __post_init__(self):
        got, arr = _as_grid_array(self.samples, 1)
        if got != self.bits:
            raise UsageError(f"declared {self.bits} bits but got 2^{got} samples")
        self.samples = arr

    @classmethod
    def from_samples(cls, values) -> "DyadicGrid1D":
        bits, arr = _as_grid_array(values, 1)
        return cls(bits, arr)

    @property
    def size(self) -> int:
        return 1 << self.bits

    def index_of(self, x: float) -> int:
        if not 0.0 <= x < 1.0:
            raise UsageError(f"point {x} outside [0, 1)")
        return int(x * self.size)

    def value_at(self, x: float) -> float:
        return float(self.samples[self.index_of(x)])


@dataclass
class DyadicGrid2D:
    """Step function on the unit square; samples[i, j] = f(i 2^-bits, j 2^-bits)."""

    bits: int
    samples: np.ndarray

    def __post_init__(self):
        got, arr = _as_grid_array(self.samples, 2)
        if got != self.bits:
            raise UsageError(f"declared {self.bits} bits but got a 2^{got} grid")
        self.samples = arr

    @classmethod
    def from_samples(cls, values) -> "DyadicGrid2D":
        bits, arr = _as_grid_array(values, 2)
        return cls(bits, arr)

    @property
    def size(self) -> int:
        return 1 << self.bits

    def value_at(self, x: float, y: float) -> float:
        if not (0.0 <= x < 1.0 and 0.0 <= y < 1.0):
            raise UsageError(f"point ({x}, {y}) outside the unit square")
        return float(self.samples[int(x * self.size), int(y * self.size)])


@dataclass
class Spectrum1D:
    """Walsh-Fourier coefficients in Paley order; coeffs[k] = f_hat(k)."""

    bits: int
    coeffs: np.ndarray

    def __post_init__(self):
        got, arr = _as_grid_array(self.coeffs, 1)
        if got != self.bits:
            raise UsageError(f"declared {self.bits} bits but got 2^{got} coefficients")
        self.coeffs = arr


@dataclass
class Spectrum2D:
    """2D Walsh-Fourier coefficients; coeffs[m, n] = f_hat(m, n)."""

    bits: int
    coeffs: np.ndarray

    def __post_init__(self):
        got, arr = _as_grid_array(self.coeffs, 2)
        if got != self.bits:
            raise UsageError(f"declared {self.bits} bits but got a 2^{got} grid")
        self.coeffs = arr


def _fwht(values: np.ndarray, axis: int) -> None:
    """Natural-order fast Walsh-Hadamard butterfly, in place along axis 0 of
    a C-contiguous float64 buffer.  `axis` must be 0; callers still pass it
    because perfbench's tracer reads it to count the samples transformed.

    Stage h views the buffer as (n / 2h, 2, h, ...) and replaces each pair of
    slabs (lo, hi) by (lo + hi, lo - hi) through one half-size scratch array.
    The pairs and their order are fixed (stride 1, 2, 4, ...) and every entry
    gets exactly one addition or subtraction per stage, elementwise, so the
    output is bit-deterministic regardless of threading or of the layout the
    caller's array had.
    """
    if axis != 0 or values.dtype != np.float64 or not values.flags.c_contiguous:
        raise ValueError("_fwht needs a C-contiguous float64 buffer and axis 0")
    n, rest = values.shape[0], values.shape[1:]
    scratch = np.empty((n // 2,) + rest)
    h = 1
    while h < n:
        pairs = values.reshape((n // (2 * h), 2, h) + rest)
        lo, hi = pairs[:, 0], pairs[:, 1]
        total = scratch.reshape(lo.shape)
        np.add(lo, hi, out=total)
        np.subtract(lo, hi, out=hi)
        lo[...] = total
        h *= 2


def _analysis(samples: np.ndarray, bits: int, axes: tuple[int, ...]) -> np.ndarray:
    """Paley coefficients along `axes`, transformed in the order given."""
    rev = bit_reverse_permutation(bits)
    t = samples
    for axis in axes:
        # a fresh buffer even for C-contiguous float64 input: the butterfly writes in place
        buf = np.array(np.moveaxis(t, axis, 0), dtype=np.float64, order="C")
        _fwht(buf, 0)
        t = np.moveaxis(np.take(buf, rev, axis=0), 0, axis)
    t *= 2.0 ** (-bits * len(axes))
    return t


def _synthesis(coeffs: np.ndarray, bits: int, orders) -> np.ndarray:
    """From the last axis to the first, each axis with an order (not None)
    has its coefficients from that order on zeroed and is synthesized."""
    rev = bit_reverse_permutation(bits)
    t = coeffs
    for axis, order in reversed(list(enumerate(orders))):
        if order is None:
            continue
        if not 0 <= order <= 1 << bits:
            raise UsageError(f"order {order} outside [0, 2^{bits}]")
        buf = np.take(np.moveaxis(t, axis, 0), rev, axis=0).astype(np.float64, copy=False)
        buf[rev[order:]] = 0.0  # where Paley k >= order
        _fwht(buf, 0)
        t = np.moveaxis(buf, 0, axis)
    return t


def wht_1d(f: DyadicGrid1D) -> Spectrum1D:
    """Fast Paley-ordered analysis: coeffs[k] = 2^-bits sum_i f_i w_k(i)."""
    return Spectrum1D(f.bits, _analysis(f.samples, f.bits, (0,)))


def inverse_wht_1d(c: Spectrum1D) -> DyadicGrid1D:
    """Synthesis f(x) = sum_k coeffs[k] w_k(x); exact inverse of wht_1d."""
    return DyadicGrid1D(c.bits, _synthesis(c.coeffs, c.bits, (1 << c.bits,)))


def naive_wht_1d(f: DyadicGrid1D) -> Spectrum1D:
    """Definitional analysis oracle: direct double sum, ascending index."""
    w = walsh_matrix_f64(f.bits)
    coeffs = np.einsum("i,ki->k", f.samples, w, optimize=False)
    return Spectrum1D(f.bits, coeffs * 2.0 ** -f.bits)


def wht_2d(f: DyadicGrid2D) -> Spectrum2D:
    """Fast 2D analysis: 1D pass along x (axis 0), then along y (axis 1)."""
    return Spectrum2D(f.bits, _analysis(f.samples, f.bits, (0, 1)))


def inverse_wht_2d(c: Spectrum2D) -> DyadicGrid2D:
    """2D synthesis; column pass (axis 1) then row pass (axis 0)."""
    return DyadicGrid2D(c.bits, _synthesis(c.coeffs, c.bits, (1 << c.bits,) * 2))


def naive_wht_2d(f: DyadicGrid2D) -> Spectrum2D:
    """Definitional 2D analysis oracle: literal quadruple sum."""
    w = walsh_matrix_f64(f.bits)
    coeffs = np.einsum("xy,mx,ny->mn", f.samples, w, w, optimize=False)
    return Spectrum2D(f.bits, coeffs * 4.0 ** -f.bits)


def translate(f: DyadicGrid1D, a_idx: int) -> DyadicGrid1D:
    """The grid of x -> f(x (+) a) where a = a_idx * 2**-bits."""
    if not 0 <= a_idx < f.size:
        raise UsageError(f"translation index {a_idx} outside [0, 2^{f.bits})")
    return DyadicGrid1D(f.bits, f.samples[np.arange(f.size) ^ a_idx])
