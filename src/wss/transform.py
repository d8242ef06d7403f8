"""`DyadicGrid`, and Walsh-Fourier analysis and synthesis in Paley order.

A `DyadicGrid` holds a step function, its coefficients or any pointwise
field at resolution 2^-bits, kept on the coarsest dyadic cells it is
constant on; the transforms return their input's class.
Analysis carries the 2**-bits measure factor so coefficients equal the
integrals int f w_k; synthesis carries no factor.  Every fast path, here and
in `wss.sums`, is `_analysis` or the truncated synthesis `_synthesis`: a
natural-order Hadamard butterfly composed with a bit-reversal permutation
(Paley row k of the sampled Walsh matrix is natural row reverse(k)), run on
the 2^L rows of each axis's own dyadic resolution with the full result's
every bit: `_analysis` returns f_hat on its band [0, 2^L) per axis, and
`wht_1d/2d` zero-pad it.  Each pass copies its axis to the front of a fresh
C-contiguous buffer (analysis bit-reverses after the butterfly; synthesis
cuts every axis to its order first and scatters Paley k to row rev[k] of a
zeroed buffer, so an axis may be shorter than 2^bits and a pass skips the
rows other orders cut), and the butterfly runs in place on contiguous slabs
of that buffer with one half-size scratch array, so a pass allocates nothing
per stage and never writes to its input.  The naive transforms evaluate the
defining sums directly with a fixed ascending summation order and serve as
oracles for the fast paths.
"""
from __future__ import annotations

import math

import numpy as np

from .dyadic import bit_reverse_permutation, validate_bits, walsh_matrix_f64
from .errors import DataError, UsageError

BLOCK_BYTES = 2 << 20  # one streamed block or slab of working memory: about an L2 cache


class DyadicGrid:
    """A step function on the dyadic cells of side 2^-bits of [0, 1) or the
    unit square, held on its coarsest cells.

    A grid keeps `bits` and `cells`, a square array of side 2^L, L <= bits:
    the function's values on the cells of the coarsest dyadic level it is
    constant on, -0.0 and +0.0 told apart.  Both constructions coarsen what
    they are given at once, so both hold the same bits for one function.
    `samples` is the 2^bits array: samples[i] is the value on
    [i 2^-bits, (i+1) 2^-bits), samples[i, j] on the product cell.  At full
    resolution it is `cells` itself; otherwise each read builds a fresh
    array of 2^(bits dims) floats that the grid does not keep: read it once.
    Subclasses fix the dimension; the base takes 1D or 2D.
    """

    dims = None

    def __init__(self, bits: int, samples):
        if np.size(samples) < 2:  # a grid has bits >= 1
            raise DataError(f"a grid of samples needs 2 or more per axis, got shape {np.shape(samples)}")
        self.bits, a = self._checked(bits, samples)
        if len(a) != self.size:
            raise UsageError(f"declared {bits} bits but got a grid of side {len(a)}")
        self.cells = _coarsest_square(a)

    @classmethod
    def from_cells(cls, bits: int, cells) -> "DyadicGrid":
        """The grid at 2^bits whose values on the cells of side 2^-L are `cells`,
        a square array of side 2^L, L <= bits."""
        grid = cls.__new__(cls)
        grid.bits, cells = cls._checked(bits, cells)
        if len(cells) > grid.size:
            raise UsageError(f"cells of side {len(cells)} are finer than a 2^{grid.bits} grid")
        grid.cells = _coarsest_square(cells)
        return grid

    @classmethod
    def _checked(cls, bits, values) -> tuple[int, np.ndarray]:
        a = np.asarray(values, dtype=np.float64)
        dims = cls.dims or a.ndim
        if a.ndim != dims or dims not in (1, 2):
            raise DataError(f"expected a {cls.dims or '1D or 2'}D array, got shape {a.shape}")
        n = a.shape[0]
        if n < 1 or n & (n - 1):
            raise DataError(f"grid length {n} is not a power of two")
        if any(s != n for s in a.shape):
            raise DataError(f"grid must be square, got shape {a.shape}")
        if not (np.isfinite(a.max()) and np.isfinite(a.min())):  # both propagate NaN; no mask array
            raise DataError("grid contains non-finite samples")
        return validate_bits(bits, dims=dims), a

    @property
    def samples(self) -> np.ndarray:
        c = self.cells
        width = self.size // len(c)
        if width == 1:
            return c
        out = np.empty((self.size,) * c.ndim)  # one write of each sample
        out.reshape([m for n in c.shape for m in (n, width)])[...] = c.reshape(
            [m for n in c.shape for m in (n, 1)])
        return out

    # read-only aliases for perfbench/checks.py and tracer.py; wss reads .samples and .cells
    coeffs = values = property(lambda self: self.samples)

    @classmethod
    def from_samples(cls, values) -> "DyadicGrid":
        shape = np.shape(values)
        return cls(shape[0].bit_length() - 1 if shape else 0, values)

    @property
    def size(self) -> int:
        return 1 << self.bits


class DyadicGrid1D(DyadicGrid):
    """A grid on [0, 1)."""

    dims = 1


class DyadicGrid2D(DyadicGrid):
    """A grid on the unit square; samples[i, j] = f(i 2^-bits, j 2^-bits)."""

    dims = 2


def _pow2_scaled(*arrays: np.ndarray, inplace: bool = False) -> tuple[int, list[np.ndarray]]:
    """(e, [a 2^-e for a in arrays]), e putting the largest magnitude in
    [1/2, 1) (at e = 0 the arrays themselves, to be read only; `inplace`
    scales the caller's own arrays; else C-contiguous copies): exact, so sums
    and squares stay in range and results scaled back keep every bit."""
    e = int(np.frexp(max(max(a.max(), -a.min()) for a in arrays))[1])
    return e, [np.ldexp(a, -e, out=a if inplace else None, order="C") if e else a for a in arrays]


def _fwht(values: np.ndarray, axis: int, spare: np.ndarray | None = None) -> None:
    """Natural-order fast Walsh-Hadamard butterfly, in place along axis 0 of
    a C-contiguous float64 buffer.  `axis` must be 0; callers still pass it
    because perfbench's tracer reads it to count the samples transformed.

    Stage h views the buffer as (n / 2h, 2, h, ...) and replaces each pair of
    slabs (lo, hi) by (lo + hi, lo - hi) through one half-size scratch array:
    the front of `spare` (a C-contiguous float64 array of at least half the
    buffer's size, whose contents are lost) if given, else a fresh one.
    The pairs and their order are fixed (stride 1, 2, 4, ...) and every entry
    gets exactly one addition or subtraction per stage, elementwise, so the
    output is bit-deterministic regardless of threading or of the layout the
    caller's array had.  A sum beyond float64 raises DataError.
    """
    if axis != 0 or values.dtype != np.float64 or not values.flags.c_contiguous:
        raise ValueError("_fwht needs a C-contiguous float64 buffer and axis 0")
    n, rest = values.shape[0], values.shape[1:]
    scratch = np.empty((n // 2,) + rest) if spare is None else spare.reshape(-1)[: values.size // 2]
    try:
        with np.errstate(over="raise"):
            h = 1
            while h < n:
                pairs = values.reshape((n // (2 * h), 2, h) + rest)
                lo, hi = pairs[:, 0], pairs[:, 1]
                total = scratch.reshape(lo.shape)
                np.add(lo, hi, out=total)
                np.subtract(lo, hi, out=hi)
                lo[...] = total
                h *= 2
    except FloatingPointError:
        raise DataError("Walsh transform overflows float64: the samples are too large") from None


def _coarsest(a: np.ndarray, axes) -> tuple[np.ndarray, list[int]]:
    """`a`, a float64 array of side 2^level along each of `axes`, halved
    along each in turn while its even and odd cells agree bit for bit (-0.0
    is not +0.0): a view on the representatives of the coarsest dyadic blocks
    it is constant on, and the level reached on each axis."""
    levels = []
    for axis in axes:
        t = np.moveaxis(a.view(np.int64), axis, 0)
        level = len(t).bit_length() - 1
        # the first pair settles full-resolution input without a pass over it
        while level and np.array_equal(t[0], t[1]) and np.array_equal(t[0::2], t[1::2]):
            t, level = t[0::2], level - 1
        a = np.moveaxis(t, 0, axis).view(np.float64)
        levels.append(level)
    return a, levels


def _coarsest_square(a: np.ndarray) -> np.ndarray:
    """A square array on its coarsest square cells: the finest of the
    per-axis levels `_coarsest` finds; a view of `a` when that is all of it,
    else a compact copy, so that no finer array outlives it."""
    step = len(a) >> max(_coarsest(a, range(a.ndim))[1])
    return np.ascontiguousarray(a[(slice(None, None, step),) * a.ndim]) if step > 1 else a


def _analysis(samples: np.ndarray, bits: int, axes: tuple[int, ...]) -> np.ndarray:
    """Paley coefficients along `axes`, transformed in the order given, on
    the band [0, 2^L) of each: f_hat is 0 past it.

    `samples` holds a 2^bits grid's values on cells of any one dyadic level
    (its `samples` or its `cells`).  Each axis halves to the coarsest level L
    on whose dyadic blocks the input is constant (`_coarsest`).  The passes
    run on those 2^L representatives with the full butterfly's every bit: its
    first bits - L stages turn a constant block v into
    (2^(bits-L) v, +0, ..., +0), and magnitudes never fall from stage to
    stage, so it overflows exactly when the coarse peak times 2^shift does.
    The work array is every pass's scratch, then its bit-reversal target, and
    the result: two band-sized arrays beyond the input, each pass's buffer
    freed above the result, not into a heap hole below it."""
    coarse, levels = _coarsest(np.asarray(samples, dtype=np.float64), axes)
    shift = sum(bits - level for level in levels)
    work, t = np.empty(coarse.shape), coarse
    for axis, level in zip(axes, levels):
        # a fresh buffer even for C-contiguous input: the butterfly writes in place
        buf = np.array(np.moveaxis(t, axis, 0), order="C")
        _fwht(buf, 0, work)  # t, a view of work after the first pass, is copied already
        paley = bit_reverse_permutation(level)
        # the indices are in range; mode "raise" would stage a full copy before work
        t = np.take(buf, paley, axis=0, out=work.reshape(buf.shape), mode="clip")
        t = np.moveaxis(t, 0, axis)
        del buf
    if shift and math.frexp(max(t.max(), -t.min()))[1] + shift > 1024:
        raise DataError("Walsh transform overflows float64: the samples are too large")
    t *= 2.0 ** (shift - bits * len(axes))
    return t


def _zero_padded(c: np.ndarray, n: int) -> np.ndarray:
    """A band from `_analysis` zero-padded to length n along every axis."""
    if c.shape == (n,) * c.ndim:
        return c
    out = np.zeros((n,) * c.ndim)  # pages the band does not reach stay untouched
    out[tuple(map(slice, c.shape))] = c
    return out


def _synthesis(coeffs: np.ndarray, bits: int, orders) -> np.ndarray:
    """From the last axis to the first, each axis with an order (not None)
    keeps its coefficients below that order and is synthesized; all are cut
    before any pass, and an axis shorter than 2^bits is zero-padded.

    An axis keeping m coefficients is synthesized at level
    L = (m - 1).bit_length() and each value repeated on its 2^(bits-L) cells:
    the full butterfly's first bits - L stages only copy them by adding +0,
    so this is its every bit but the sign of a zero from a kept -0.0."""
    if any(o is not None and not 0 <= o <= 1 << bits for o in orders):
        raise UsageError(f"orders {tuple(orders)} outside [0, 2^{bits}]")
    t = coeffs[tuple(slice(None) if o is None else slice(o) for o in orders)]
    for axis in reversed([a for a, o in enumerate(orders) if o is not None]):
        kept = np.moveaxis(t, axis, 0)
        level = max(len(kept) - 1, 0).bit_length()
        buf = np.zeros((1 << level,) + kept.shape[1:])
        buf[bit_reverse_permutation(level)[: len(kept)]] = kept
        _fwht(buf, 0)
        if level < bits:
            buf = np.repeat(buf, 1 << (bits - level), axis=0)
        t = np.moveaxis(buf, 0, axis)
    return t


def wht_1d(f: DyadicGrid) -> DyadicGrid:
    """Fast Paley-ordered analysis: coeffs[k] = 2^-bits sum_i f_i w_k(i)."""
    return type(f)(f.bits, _zero_padded(_analysis(f.cells, f.bits, (0,)), f.size))


def naive_wht_1d(f: DyadicGrid) -> DyadicGrid:
    """Definitional analysis oracle: direct double sum, ascending index."""
    w = walsh_matrix_f64(f.bits)
    coeffs = np.einsum("i,ki->k", f.samples, w, optimize=False)
    return type(f)(f.bits, coeffs * 2.0 ** -f.bits)


def wht_2d(f: DyadicGrid) -> DyadicGrid:
    """Fast 2D analysis: 1D pass along x (axis 0), then along y (axis 1)."""
    return type(f)(f.bits, _zero_padded(_analysis(f.cells, f.bits, (0, 1)), f.size))


def naive_wht_2d(f: DyadicGrid) -> DyadicGrid:
    """Definitional 2D analysis oracle: literal quadruple sum."""
    w = walsh_matrix_f64(f.bits)
    coeffs = np.einsum("xy,mx,ny->mn", f.samples, w, w, optimize=False)
    return type(f)(f.bits, coeffs * 4.0 ** -f.bits)

