import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dyadic_rationals, traced_peak_ratio
from wss import oracles, transform
from wss.dyadic import bit_reverse_permutation, walsh_row
from wss.errors import DataError, UsageError
from wss.generators import generate_function, portable_uniforms, random_grid_1d, random_grid_2d
from wss.maximal import (
    dyadic_maximal,
    hybrid_maximal_1,
    hybrid_maximal_2,
    hybrid_v_1,
    hybrid_v_2,
    schipp_v_max,
)
from wss.means import entropy_functional
from wss.sums import partial_sum_1d, quadratic_sums, rectangular_partial_sum
from wss.transform import (
    DyadicGrid,
    DyadicGrid1D,
    DyadicGrid2D,
    _analysis,
    _synthesis,
    naive_wht_1d,
    naive_wht_2d,
    wht_1d,
    wht_2d,
)


def unit(n, k):
    c = np.zeros(n)
    c[k] = 1.0
    return c


def test_character_spectrum_is_unit():
    f = DyadicGrid1D(3, walsh_row(5, 3).astype(float))
    np.testing.assert_allclose(wht_1d(f).coeffs, unit(8, 5), atol=1e-14)


def test_constant_spectrum():
    f = DyadicGrid1D(4, np.full(16, 2.5))
    c = wht_1d(f).coeffs
    assert c[0] == pytest.approx(2.5, abs=1e-14)
    assert np.abs(c[1:]).max() < 1e-14


def test_fast_matches_naive_1d():
    for seed, bits in ((1, 4), (2, 8), (3, 10)):
        f = random_grid_1d(bits, seed)
        gap = np.abs(wht_1d(f).coeffs - naive_wht_1d(f).coeffs).max()
        assert gap <= 1e-12


def test_naive_unit_examples_roles_swapped():
    f = DyadicGrid1D(3, walsh_row(5, 3).astype(float))
    np.testing.assert_allclose(naive_wht_1d(f).coeffs, unit(8, 5), atol=1e-14)
    g = DyadicGrid1D(3, np.full(8, -1.25))
    np.testing.assert_allclose(naive_wht_1d(g).coeffs, -1.25 * unit(8, 0), atol=1e-14)


def test_round_trip_identity():
    f = random_grid_1d(10, seed=7)
    back = _synthesis(wht_1d(f).samples, f.bits, (f.size,))
    assert np.abs(back - f.samples).max() <= 1e-12


def test_synthesis_of_single_character():
    g = _synthesis(unit(8, 5), 3, (8,))
    np.testing.assert_array_equal(g, walsh_row(5, 3).astype(float))
    const = _synthesis(unit(8, 0), 3, (8,))
    np.testing.assert_array_equal(const, np.ones(8))


def test_tensor_character_2d():
    w3 = walsh_row(3, 4).astype(float)
    w6 = walsh_row(6, 4).astype(float)
    f = DyadicGrid2D(4, np.outer(w3, w6))
    c = wht_2d(f).coeffs
    expected = np.zeros((16, 16))
    expected[3, 6] = 1.0
    np.testing.assert_allclose(c, expected, atol=1e-13)


def test_fast_matches_naive_2d():
    f = random_grid_2d(6, seed=9)
    gap = np.abs(wht_2d(f).coeffs - naive_wht_2d(f).coeffs).max()
    assert gap <= 1e-12
    back = _synthesis(wht_2d(f).samples, f.bits, (f.size,) * 2)
    assert np.abs(back - f.samples).max() <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_parseval(bits, seed):
    f = random_grid_1d(bits, seed)
    c = wht_1d(f).coeffs
    lhs = float((f.samples**2).mean())
    rhs = float((c**2).sum())
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**31 - 1),
       st.floats(-8, 8), st.floats(-8, 8))
def test_linearity(bits, seed, alpha, beta):
    f = random_grid_1d(bits, seed)
    g = random_grid_1d(bits, seed + 1)
    mixed = DyadicGrid1D(bits, alpha * f.samples + beta * g.samples)
    lhs = wht_1d(mixed).coeffs
    rhs = alpha * wht_1d(f).coeffs + beta * wht_1d(g).coeffs
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, abs(alpha), abs(beta))


def test_translation_covariance_exact():
    # Spectrum of f(x (+) a) is walsh(k, a) * f_hat(k), exactly on the grid.
    bits = 6
    f = random_grid_1d(bits, seed=21)
    base = wht_1d(f).coeffs
    for a_idx in (1, 13, 37, 63):
        translated = DyadicGrid1D(bits, f.samples[np.arange(64) ^ a_idx])  # x -> f(x (+) a)
        shifted = wht_1d(translated).coeffs
        signs = np.array(
            [walsh_row(k, bits)[a_idx] for k in range(64)], dtype=np.float64
        )
        np.testing.assert_array_equal(shifted, signs * base)


def test_parseval_2d():
    f = random_grid_2d(5, seed=33)
    c = wht_2d(f).coeffs
    assert float((f.samples**2).mean()) == pytest.approx(float((c**2).sum()), rel=1e-12)


def test_non_finite_input_rejected():
    bad = np.ones(8)
    bad[3] = np.nan
    with pytest.raises(DataError):
        DyadicGrid1D(3, bad)
    with pytest.raises(DataError):
        DyadicGrid2D(2, np.full((4, 4), np.inf))


def _full_synthesis(c):
    return _synthesis(c.samples, c.bits, (c.size,) * c.dims)


@pytest.mark.parametrize("transform, grid", [(wht_1d, DyadicGrid1D), (_full_synthesis, DyadicGrid1D),
                                             (wht_2d, DyadicGrid2D), (_full_synthesis, DyadicGrid2D)],
                         ids=["wht_1d", "synthesis_1d", "wht_2d", "synthesis_2d"])
def test_butterfly_overflow_is_a_data_error(transform, grid):
    # finite samples whose Walsh sums leave float64: a DataError naming the
    # overflow, not a numpy warning (pytest makes RuntimeWarnings errors)
    with pytest.raises(DataError, match="Walsh transform overflows float64"):
        transform(grid(3, np.full((8,) * grid.dims, 1e308)))


def test_shape_validation():
    with pytest.raises(DataError):
        DyadicGrid1D.from_samples(np.ones(12))
    with pytest.raises(DataError):
        DyadicGrid2D.from_samples(np.ones((8, 4)))
    with pytest.raises(UsageError):
        DyadicGrid1D(4, np.ones(8))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=16, max_size=16)
)
def test_fast_matches_naive_on_arbitrary_data(values):
    f = DyadicGrid1D.from_samples(np.array(values))
    scale = max(1.0, float(np.abs(f.samples).max()))
    gap = np.abs(wht_1d(f).coeffs - naive_wht_1d(f).coeffs).max()
    assert gap <= 1e-12 * scale
    back = _synthesis(wht_1d(f).samples, f.bits, (f.size,))
    assert np.abs(back - f.samples).max() <= 1e-12 * scale


# --- the butterfly kernel, pinned bit for bit ------------------------------
# A literal radix-2 butterfly: pairs (j, j + h) at stride h = 1, 2, 4, ...
# become (a_j + a_{j+h}, a_j - a_{j+h}).  Any rewrite of the fast kernel must
# keep these pairs in this order, so its floating-point results are pinned.

def _reference_fwht(values, axis):
    a = np.moveaxis(np.array(values, dtype=np.float64), axis, 0).copy()
    n, h = a.shape[0], 1
    while h < n:
        for start in range(0, n, 2 * h):
            for j in range(start, start + h):
                a[j], a[j + h] = a[j] + a[j + h], a[j] - a[j + h]
        h *= 2
    return np.moveaxis(a, 0, axis)


def _reference_analysis(values, bits, axes):
    t = values
    for axis in axes:
        t = np.take(_reference_fwht(t, axis), bit_reverse_permutation(bits), axis=axis)
    return t * 2.0 ** (-bits * len(axes))


def _reference_synthesis(values, bits, orders):
    rev = bit_reverse_permutation(bits)
    t = values
    for axis, order in reversed(list(enumerate(orders))):
        if order is not None:
            t = np.take(t, rev, axis=axis).astype(np.float64)
            np.moveaxis(t, axis, 0)[rev[order:]] = 0.0
            t = _reference_fwht(t, axis)
    return t


def _strided(shape, cut):
    """Lay an array out as the `cut` view of a larger zeroed one."""
    def lay(a):
        base = np.zeros(shape)
        base[cut] = a
        return base[cut]
    return lay


def _read_only(a):
    a = a.copy()
    a.setflags(write=False)
    return a


# label: (shape, axes, lay), `lay` putting a C-ordered array of that shape
# into a layout callers pass; the transformed axes have length 2^3
LAYOUT_CASES = {
    "1d": ((8,), (0,), np.asarray),
    "2d": ((8, 8), (0, 1), np.asarray),
    "2d-rect": ((8, 5), (0,), np.asarray),
    "3d": ((8, 3, 8), (0, 2), np.asarray),
    "3d-middle": ((2, 8, 3), (1,), np.asarray),
    "transposed": ((8, 5), (0,), lambda a: a.T.copy().T),
    "transposed-3d": ((8, 8, 3), (0, 1), lambda a: a.transpose(1, 2, 0).copy().transpose(2, 0, 1)),
    "strided": ((8, 8), (0, 1), _strided((16, 8), np.s_[::2])),
    "strided-inner": ((8, 8), (0, 1), _strided((8, 24), np.s_[:, 1::3])),
    "fortran": ((8, 8), (0, 1), np.asfortranarray),
    "read-only": ((8, 8), (0, 1), _read_only),
    "integer": ((8, 8), (0, 1), lambda a: np.round(a * 100).astype(np.int64)),
}


def _floats(rng, shape):
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)


def _layouts():
    """Arrays in the layouts callers pass, each with the axes of length 2^3."""
    rng = np.random.default_rng(77)
    return [pytest.param(lay(_floats(rng, shape)), axes, id=label)
            for label, (shape, axes, lay) in LAYOUT_CASES.items()]


LAYOUTS = _layouts()


def _bits(a):
    """The int64 view of an array's float64 values: the sign of a zero counts."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(_bits(a), _bits(b))


def _same_band(band, full):
    """`band` is the leading corner of `full` bit for bit, and `full` is +0
    (int64 view 0, so no -0.0) everywhere outside that corner."""
    corner = tuple(map(slice, band.shape))
    rest = _bits(full).copy()
    rest[corner] = 0
    return _same_bits(band, full[corner]) and not rest.any()


@pytest.mark.parametrize("values, axes", LAYOUTS)
def test_analysis_is_the_reference_butterfly_bit_for_bit(values, axes):
    for axis in axes:
        got = _analysis(values, 3, (axis,))
        assert _same_band(got, _reference_analysis(values, 3, (axis,)))
    assert _same_band(_analysis(values, 3, axes), _reference_analysis(values, 3, axes))


@pytest.mark.parametrize("label", LAYOUT_CASES)
def test_analysis_of_step_inputs_is_the_reference_bit_for_bit(label):
    # constant on the level-L cells of each transformed axis, L = 0..3 per
    # axis: the passes run on the 2^L representatives and must still give
    # the full butterfly's every bit on the band [0, 2^L), in either order
    # of the axes, and the full butterfly gives +0 past it
    shape, axes, lay = LAYOUT_CASES[label]
    rng = np.random.default_rng(len(label))
    for levels in itertools.product(range(4), repeat=len(axes)):
        cells = list(shape)
        for axis, level in zip(axes, levels):
            cells[axis] = 1 << level
        values = _floats(rng, cells)
        for axis, level in zip(axes, levels):
            values = np.repeat(values, 1 << (3 - level), axis=axis)
        values = lay(values)
        for order in (axes, axes[::-1]):
            band = _analysis(values, 3, order)
            assert [band.shape[axis] for axis in axes] == [1 << level for level in levels]
            assert _same_band(band, _reference_analysis(values, 3, order))


def test_a_cell_mixing_signed_zeros_is_not_constant():
    # -0.0 and +0.0 are equal numbers but not equal bits: the butterfly gives
    # them different results, so a cell holding both keeps the full route
    line = np.repeat([1.5, 0.0, -2.0, 4.0], 2)
    line[3] = -0.0
    square = np.repeat(np.repeat(_floats(np.random.default_rng(3), (4, 4)), 2, 0), 2, 1)
    square[2:4, 2:4] = 0.0
    square[3, 3] = -0.0
    for values, axes in ((line, (0,)), (square, (0, 1)), (square, (1, 0)), (np.full((8, 8), -0.0), (0, 1))):
        assert _same_band(_analysis(values, 3, axes), _reference_analysis(values, 3, axes))
    assert _bits(_analysis(np.full(8, -0.0), 3, (0,))).tolist() == [_bits(np.float64(-0.0))]
    # synthesis repeats a kept -0.0 over its block, where the full butterfly's
    # +0 additions leave it on the block's last cell only: the values agree
    coeffs = np.array([-0.0, 1.5, -0.0])
    want = _reference_synthesis(np.r_[coeffs, np.zeros(5)], 3, (3,))
    assert np.array_equal(_synthesis(coeffs, 3, (3,)), want)


def test_step_input_overflows_exactly_where_the_full_butterfly_does():
    # 4 (2e307 + 1e307) = 1.2e308 stays finite; 4 (5e307 + 1e307) does not
    finite = np.repeat([2e307, 1e307], 4)
    coeffs = _analysis(finite, 3, (0,))
    assert _same_band(coeffs, _reference_analysis(finite, 3, (0,)))
    assert coeffs.tolist() == [1.5e307, 5e306]
    with pytest.raises(DataError, match="Walsh transform overflows float64"):
        _analysis(np.repeat([5e307, 1e307], 4), 3, (0,))
    with pytest.raises(DataError, match="Walsh transform overflows float64"):
        wht_2d(DyadicGrid2D(3, np.repeat(np.repeat([[5e307, 1e307]], 4, 1), 8, 0)))


def _fwht_points(fn, *args):
    """Samples `fn(*args)` hands to the butterfly, summed over its calls."""
    sizes, butterfly = [], transform._fwht

    def counting(values, axis, spare=None):
        sizes.append(values.size)
        return butterfly(values, axis, spare)

    with mock.patch.object(transform, "_fwht", counting):
        fn(*args)
    return sum(sizes)


@pytest.mark.parametrize("levels", [(0, 0), (4, 4), (6, 6), (4, 10), (10, 6), (10, 10)])
def test_2d_analysis_transforms_only_the_representatives(levels):
    # a grid constant on level-(L0, L1) cells: both passes run on the
    # 2^L0 x 2^L1 representatives
    cells = portable_uniforms(41, 1 << sum(levels)).reshape([1 << level for level in levels])
    samples = np.repeat(np.repeat(cells, 1 << (10 - levels[0]), 0), 1 << (10 - levels[1]), 1)
    assert _fwht_points(_analysis, samples, 10, (0, 1)) == 2 << sum(levels)


def test_spectral_generation_synthesizes_at_the_support_level():
    # support 64 = 2^6: both passes run on the 64 x 64 cells, and no result
    # is repeated onto the 2^10 samples of an axis
    spec = "random-spectrum:support=64,dim=2@B=10"
    assert _fwht_points(generate_function, spec) == 2 * 4**6


def test_step_analysis_holds_a_tenth_of_a_grid_beyond_its_input():
    # the level scan's even/odd compare, and the band's small work arrays:
    # no grid-sized output (the samples are read before the trace: they are the input)
    f = generate_function("random-step:level=4,dim=2@B=10")
    samples = f.samples
    assert traced_peak_ratio(lambda g: _analysis(samples, g.bits, (0, 1)), f) <= 0.1


def test_quadratic_sums_of_a_band_hold_no_coefficient_grid():
    # the 64 x 64 band and the two (64, 64) profile tables on the level-6
    # cells, 0.024 of a grid measured: no N x N coefficient table
    f = generate_function("random-spectrum:support=64,dim=2@B=10")
    assert traced_peak_ratio(quadratic_sums, f) <= 0.2


def test_2d_analysis_holds_two_grids_beyond_its_input():
    # the second pass's buffer replaces the first pass's output, and each
    # buffer goes once its bit-reversed copy exists
    f = random_grid_2d(10, seed=27)
    assert traced_peak_ratio(lambda g: _analysis(g.samples, g.bits, (0, 1)), f) <= 2.1


@pytest.mark.parametrize("values, axes", LAYOUTS)
def test_synthesis_is_the_reference_butterfly_bit_for_bit(values, axes):
    # order m synthesizes at level (m - 1).bit_length() = 0..3 and repeats
    for order in range(9):
        for axis in axes:
            orders = [None] * values.ndim
            orders[axis] = order
            got = _synthesis(values, 3, orders)
            assert _same_bits(got, _reference_synthesis(values, 3, orders))
        orders = [order if axis in axes else None for axis in range(values.ndim)]
        assert _same_bits(_synthesis(values, 3, orders), _reference_synthesis(values, 3, orders))


@pytest.mark.parametrize("shape", [(3,), (8,), (5, 8), (8, 3), (2, 6), (1, 1)])
def test_synthesis_of_short_and_cut_axes_is_the_zero_padded_one(shape):
    # a synthesized axis shorter than 2^3 holds the leading coefficients; orders
    # 0, 1, K (the input length) and 2^3 cut the other axis before any pass
    rng = np.random.default_rng(len(shape) * 10 + shape[0])
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    choices = [(None, 0, 1, n, 8) for n in shape]
    for orders in itertools.product(*choices):
        padded = np.zeros([n if o is None else 8 for n, o in zip(shape, orders)])
        padded[tuple(slice(n) for n in shape)] = values
        want = _reference_synthesis(padded, 3, orders)
        assert _same_bits(_synthesis(values, 3, orders), want)
        assert _same_bits(_synthesis(np.asfortranarray(values), 3, orders), want)
    for bad in (-1, 9):
        with pytest.raises(UsageError):
            _synthesis(values, 3, (bad,) + (None,) * (len(shape) - 1))
        with pytest.raises(UsageError):
            _synthesis(values, 3, (8,) * (len(shape) - 1) + (bad,))


def test_synthesis_at_orders_zero_and_full():
    for dims in (1, 2):
        bits = 4
        samples = dyadic_rationals(31 + dims, 16 ** dims).reshape((16,) * dims)
        coeffs = _analysis(samples, bits, tuple(range(dims)))
        assert np.array_equal(_synthesis(coeffs, bits, (0,) * dims), np.zeros_like(samples))
        for axis in range(dims):
            only = [None] * dims
            only[axis] = 0
            assert np.array_equal(_synthesis(coeffs, bits, only), np.zeros_like(samples))
        # dyadic rationals keep every butterfly sum exact, so the inverse is exact
        assert np.array_equal(_synthesis(coeffs, bits, (16,) * dims), samples)


def test_transforms_leave_their_inputs_untouched():
    f1 = random_grid_1d(6, seed=3)
    f2 = random_grid_2d(5, seed=4)
    before1, before2 = f1.samples.copy(), f2.samples.copy()
    c1, c2 = wht_1d(f1), wht_2d(f2)
    partial_sum_1d(f1, 11)
    rectangular_partial_sum(f2, 5, 9)
    assert np.array_equal(f1.samples, before1) and np.array_equal(f2.samples, before2)
    coeffs1, coeffs2 = c1.coeffs.copy(), c2.coeffs.copy()
    _full_synthesis(c1)
    _full_synthesis(c2)
    assert np.array_equal(c1.coeffs, coeffs1) and np.array_equal(c2.coeffs, coeffs2)
    field = quadratic_sums(f2)
    rows, cols = field.row_profiles.copy(), field.col_profiles.copy()
    oracles.materialize(field)
    assert np.array_equal(field.row_profiles, rows) and np.array_equal(field.col_profiles, cols)


# --- the grid contract -------------------------------------------------------

GRID = {1: DyadicGrid1D, 2: DyadicGrid2D}


def _with(value, shape):
    a = np.ones(shape)
    a.flat[3] = value
    return a


MALFORMED = {
    "1d-non-power-of-two": (1, np.ones(12)),
    "2d-non-power-of-two": (2, np.ones((12, 12))),
    "1d-too-short": (1, np.ones(1)),
    "2d-too-short": (2, np.ones((1, 1))),
    "2d-non-square": (2, np.ones((8, 4))),
    "1d-nan": (1, _with(np.nan, 8)),
    "2d-nan": (2, _with(np.nan, (8, 8))),
    "1d-inf": (1, _with(-np.inf, 8)),
    "2d-inf": (2, _with(np.inf, (8, 8))),
    "1d-given-2d": (1, np.ones((8, 8))),
    "2d-given-1d": (2, np.ones(8)),
    "1d-given-scalar": (1, np.float64(1.0)),
}


@pytest.mark.parametrize("dims, array", MALFORMED.values(), ids=MALFORMED.keys())
def test_grid_rejects_malformed_arrays(dims, array):
    with pytest.raises(DataError):
        GRID[dims].from_samples(array)
    with pytest.raises(DataError):
        GRID[dims](3, array)


@pytest.mark.parametrize("dims", [1, 2])
def test_grid_rejects_a_wrong_declared_depth(dims):
    for bits in (4, 2):  # too few samples, too many
        with pytest.raises(UsageError, match=f"declared {bits} bits but got a grid of side 8"):
            GRID[dims](bits, np.ones((8,) * dims))
    with pytest.raises(UsageError):
        GRID[dims]("3", np.ones((8,) * dims))


def test_base_grid_takes_either_dimension_only():
    assert DyadicGrid(3, np.ones(8)).samples.shape == (8,)
    assert DyadicGrid.from_samples(np.ones((4, 4))).bits == 2
    with pytest.raises(DataError):
        DyadicGrid(1, np.ones((2, 2, 2)))


@pytest.mark.parametrize("dims", [1, 2])
def test_from_samples_builds_its_class(dims):
    samples = np.arange(8.0**dims).reshape((8,) * dims)
    g = GRID[dims].from_samples(samples.tolist())
    assert type(g) is GRID[dims] and (g.bits, g.size) == (3, 8)
    assert g.samples.dtype == np.float64 and np.array_equal(g.samples, samples)


@pytest.mark.parametrize("spec", ["random-step:level=3,dim=2,amp=4@B=8", "random-step:level=0,dim=1@B=5",
                                  "random-step:level=6,dim=2@B=6", "spike:level=2,target=10@B=7",
                                  "indicator-rect:0.25,0.75,0,0.5@B=8", "walsh-tensor:1,0+2,3@B=5",
                                  "random-spectrum:support=5,dim=2@B=6"])
def test_grids_from_cells_and_from_their_samples_hold_the_same_bits(spec):
    f = generate_function(spec, 5)
    g = type(f)(f.bits, f.samples.copy())  # coarsens at construction
    level = len(f.cells).bit_length() - 1
    step = (f.size >> level) // 2 or 1  # cells one level finer than the coarsest, where there are any
    finer = type(f).from_cells(f.bits, g.samples[(slice(None, None, step),) * g.samples.ndim])
    for other in (g, finer):
        assert np.array_equal(other.cells.view(np.int64), f.cells.view(np.int64))
        assert np.array_equal(other.samples.view(np.int64), f.samples.view(np.int64))
        for alpha in (0, 1, 2):
            assert entropy_functional(other, alpha) == entropy_functional(f, alpha)


def test_a_grid_keeps_only_its_cells():
    # a coarse grid builds its samples afresh on each read and keeps none
    f = generate_function("random-step:level=3,dim=2@B=10", 4)
    first = f.samples
    assert first.shape == (1024, 1024) and f.samples is not first
    assert np.array_equal(f.samples, first)
    assert sorted(vars(f)) == ["bits", "cells"] and f.cells.shape == (8, 8)
    g = type(f)(f.bits, first)  # coarsened to a copy: the samples can go
    assert g.cells.shape == (8, 8) and not np.shares_memory(g.cells, first)
    # at full resolution the cells are the samples, with no copy
    for g in (random_grid_1d(5, seed=3), random_grid_2d(4, seed=3), DyadicGrid1D(3, np.arange(8.0))):
        assert g.samples is g.cells and len(g.cells) == g.size


def test_cells_tell_signed_zeros_apart_and_reject_malformed_input():
    f = DyadicGrid2D.from_cells(3, [[0.0, -0.0], [0.0, -0.0]])
    assert f.cells.shape == (2, 2) and np.signbit(f.samples[0]).tolist() == [False] * 4 + [True] * 4
    one = DyadicGrid1D.from_cells(4, [2.5])
    assert one.cells.tolist() == [2.5] and one.samples.tolist() == [2.5] * 16
    with pytest.raises(UsageError, match="cells of side 8 are finer than a 2\\^2 grid"):
        DyadicGrid1D.from_cells(2, np.ones(8))
    for bad in (np.ones(3), np.ones(0), _with(np.nan, 8)):
        with pytest.raises(DataError):
            DyadicGrid1D.from_cells(4, bad)
    with pytest.raises(DataError):
        DyadicGrid2D.from_cells(4, np.ones((4, 2)))


def test_every_transform_sum_and_operator_returns_its_inputs_class():
    f1, f2 = random_grid_1d(4, seed=1), random_grid_2d(3, seed=2)
    outs1 = [wht_1d(f1), naive_wht_1d(f1), partial_sum_1d(f1, 5), hybrid_maximal_1(f1), schipp_v_max(f1)]
    outs2 = [wht_2d(f2), naive_wht_2d(f2), rectangular_partial_sum(f2, 3, 5),
             dyadic_maximal(f2), hybrid_maximal_1(f2), hybrid_maximal_2(f2),
             hybrid_v_1(f2), hybrid_v_2(f2), schipp_v_max(f2)]
    for grid, outs in ((f1, outs1), (f2, outs2)):
        for out in outs:
            assert type(out) is type(grid) and out.bits == grid.bits
            if len(out.cells) == out.size:
                assert out.coeffs is out.samples and out.values is out.samples
            for alias in (out.coeffs, out.values):
                assert np.array_equal(alias.view(np.int64), out.samples.view(np.int64))
    base = DyadicGrid(f1.bits, f1.samples)
    assert type(wht_1d(base)) is DyadicGrid and type(hybrid_maximal_1(base)) is DyadicGrid
