"""Walsh-Fourier analysis and synthesis in Paley order, 1D and 2D.

Analysis carries the 2**-bits measure factor so coefficients equal the
integrals int f w_k; synthesis carries no factor.  Every fast path, here and
in `wss.sums`, is `_analysis` or the truncated synthesis `_synthesis`: a
natural-order Hadamard butterfly composed with a bit-reversal permutation
(Paley row k of the sampled Walsh matrix is natural row reverse(k)).  The
naive transforms evaluate the defining sums directly with a fixed ascending
summation order and serve as oracles for the fast paths.
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


def _fwht(values: np.ndarray, axis: int) -> np.ndarray:
    """Natural-order fast Walsh-Hadamard butterfly along one axis.

    The reduction tree is fixed (pairs at stride 1, 2, 4, ...) so the output
    is bit-deterministic regardless of threading.
    """
    a = np.moveaxis(np.array(values, dtype=np.float64, copy=True), axis, -1)
    shape = a.shape
    n = shape[-1]
    h = 1
    while h < n:
        a = a.reshape(shape[:-1] + (n // (2 * h), 2, h))
        top = a[..., 0, :] + a[..., 1, :]
        bot = a[..., 0, :] - a[..., 1, :]
        a = np.stack((top, bot), axis=-2).reshape(shape)
        h *= 2
    return np.moveaxis(a, -1, axis)


def _analysis(samples: np.ndarray, bits: int, axes: tuple[int, ...]) -> np.ndarray:
    """Paley coefficients along `axes`, transformed in the order given."""
    rev = bit_reverse_permutation(bits)
    t = samples
    for axis in axes:
        t = np.take(_fwht(t, axis), rev, axis=axis)
    return t * 2.0 ** (-bits * len(axes))


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
        t = np.take(t, rev, axis=axis)
        np.moveaxis(t, axis, 0)[rev[order:]] = 0.0  # where Paley k >= order
        t = _fwht(t, axis)
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
