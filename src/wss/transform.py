"""`DyadicGrid`, and Walsh-Fourier analysis and synthesis in Paley order.

A `DyadicGrid` holds a step function, its coefficients or any pointwise
field at resolution 2^-bits; the transforms return their input's class.
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


@dataclass
class DyadicGrid:
    """Values on the cells of side 2^-bits of [0, 1) or the unit square:
    samples[i] is the value on [i 2^-bits, (i+1) 2^-bits), samples[i, j] on
    the product cell.  Subclasses fix the dimension; the base takes 1D or 2D.
    """

    bits: int
    samples: np.ndarray
    dims = None

    def __post_init__(self):
        a = np.asarray(self.samples, dtype=np.float64)
        dims = self.dims or a.ndim
        if a.ndim != dims or dims not in (1, 2):
            raise DataError(f"expected a {self.dims or '1D or 2'}D array, got shape {a.shape}")
        n = a.shape[0]
        if n < 2 or n & (n - 1):
            raise DataError(f"grid length {n} is not a power of two >= 2")
        if any(s != n for s in a.shape):
            raise DataError(f"grid must be square, got shape {a.shape}")
        if not (np.isfinite(a.max()) and np.isfinite(a.min())):  # both propagate NaN; no mask array
            raise DataError("grid contains non-finite samples")
        got = validate_bits(n.bit_length() - 1, dims=dims)
        if got != self.bits:
            raise UsageError(f"declared {self.bits} bits but got a 2^{got} grid")
        self.samples = a

    # read-only aliases for perfbench/checks.py and tracer.py; wss reads .samples
    coeffs = values = property(lambda self: self.samples)

    @classmethod
    def from_samples(cls, values) -> "DyadicGrid":
        shape = np.shape(values)
        return cls(shape[0].bit_length() - 1 if shape else 0, values)

    @property
    def size(self) -> int:
        return 1 << self.bits

    def value_at(self, *point: float) -> float:
        """The value on the cell holding `point`, one coordinate per axis."""
        if len(point) != self.samples.ndim or not all(0.0 <= p < 1.0 for p in point):
            raise UsageError(f"point {point} outside [0, 1)^{self.samples.ndim}")
        return float(self.samples[tuple(int(p * self.size) for p in point)])


class DyadicGrid1D(DyadicGrid):
    """A grid on [0, 1)."""

    dims = 1


class DyadicGrid2D(DyadicGrid):
    """A grid on the unit square; samples[i, j] = f(i 2^-bits, j 2^-bits)."""

    dims = 2


def _pow2_scaled(*arrays: np.ndarray) -> tuple[int, list[np.ndarray]]:
    """(e, [a 2^-e for a in arrays]), e putting the largest magnitude in
    [1/2, 1) (at e = 0 the arrays themselves, to be read only): exact, so sums
    and squares stay in range and results scaled back keep every bit."""
    e = int(np.frexp(max(max(a.max(), -a.min()) for a in arrays))[1])
    return e, [np.ldexp(a, -e) if e else a for a in arrays]


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


def wht_1d(f: DyadicGrid) -> DyadicGrid:
    """Fast Paley-ordered analysis: coeffs[k] = 2^-bits sum_i f_i w_k(i)."""
    return type(f)(f.bits, _analysis(f.samples, f.bits, (0,)))


def inverse_wht_1d(c: DyadicGrid) -> DyadicGrid:
    """Synthesis f(x) = sum_k coeffs[k] w_k(x); exact inverse of wht_1d."""
    return type(c)(c.bits, _synthesis(c.samples, c.bits, (1 << c.bits,)))


def naive_wht_1d(f: DyadicGrid) -> DyadicGrid:
    """Definitional analysis oracle: direct double sum, ascending index."""
    w = walsh_matrix_f64(f.bits)
    coeffs = np.einsum("i,ki->k", f.samples, w, optimize=False)
    return type(f)(f.bits, coeffs * 2.0 ** -f.bits)


def wht_2d(f: DyadicGrid) -> DyadicGrid:
    """Fast 2D analysis: 1D pass along x (axis 0), then along y (axis 1)."""
    return type(f)(f.bits, _analysis(f.samples, f.bits, (0, 1)))


def inverse_wht_2d(c: DyadicGrid) -> DyadicGrid:
    """2D synthesis; column pass (axis 1) then row pass (axis 0)."""
    return type(c)(c.bits, _synthesis(c.samples, c.bits, (1 << c.bits,) * 2))


def naive_wht_2d(f: DyadicGrid) -> DyadicGrid:
    """Definitional 2D analysis oracle: literal quadruple sum."""
    w = walsh_matrix_f64(f.bits)
    coeffs = np.einsum("xy,mx,ny->mn", f.samples, w, w, optimize=False)
    return type(f)(f.bits, coeffs * 4.0 ** -f.bits)


def translate(f: DyadicGrid, a_idx: int) -> DyadicGrid:
    """The grid of x -> f(x (+) a) where a = a_idx * 2**-bits."""
    if not 0 <= a_idx < f.size:
        raise UsageError(f"translation index {a_idx} outside [0, 2^{f.bits})")
    return type(f)(f.bits, f.samples[np.arange(f.size) ^ a_idx])
