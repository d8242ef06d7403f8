import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dyadic_rationals
from wss.dyadic import bit_reverse_permutation, walsh_row
from wss.errors import DataError, UsageError
from wss.generators import random_grid_1d, random_grid_2d
from wss.maximal import (
    dyadic_maximal,
    dyadic_maximal_1d,
    hybrid_maximal_1,
    hybrid_maximal_2,
    hybrid_v_1,
    hybrid_v_2,
    schipp_v,
    schipp_v_max,
)
from wss.sums import (
    marginal_maximal_2,
    marginal_sum_1,
    marginal_sum_2,
    partial_sum_1d,
    quadratic_sums,
    rectangular_partial_sum,
)
from wss.transform import (
    DyadicGrid,
    DyadicGrid1D,
    DyadicGrid2D,
    _analysis,
    _synthesis,
    inverse_wht_1d,
    inverse_wht_2d,
    naive_wht_1d,
    naive_wht_2d,
    translate,
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
    back = inverse_wht_1d(wht_1d(f))
    assert np.abs(back.samples - f.samples).max() <= 1e-12


def test_synthesis_of_single_character():
    g = inverse_wht_1d(DyadicGrid1D(3, unit(8, 5)))
    np.testing.assert_array_equal(g.samples, walsh_row(5, 3).astype(float))
    const = inverse_wht_1d(DyadicGrid1D(3, unit(8, 0)))
    np.testing.assert_array_equal(const.samples, np.ones(8))


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
    back = inverse_wht_2d(wht_2d(f))
    assert np.abs(back.samples - f.samples).max() <= 1e-12


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
        shifted = wht_1d(translate(f, a_idx)).coeffs
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


def test_shape_validation():
    with pytest.raises(DataError):
        DyadicGrid1D.from_samples(np.ones(12))
    with pytest.raises(DataError):
        DyadicGrid2D.from_samples(np.ones((8, 4)))
    with pytest.raises(UsageError):
        DyadicGrid1D(4, np.ones(8))


def test_value_at():
    f = DyadicGrid1D(3, np.arange(8.0))
    assert f.value_at(0.5) == 4.0
    with pytest.raises(UsageError):
        f.value_at(1.0)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=16, max_size=16)
)
def test_fast_matches_naive_on_arbitrary_data(values):
    f = DyadicGrid1D.from_samples(np.array(values))
    scale = max(1.0, float(np.abs(f.samples).max()))
    gap = np.abs(wht_1d(f).coeffs - naive_wht_1d(f).coeffs).max()
    assert gap <= 1e-12 * scale
    back = inverse_wht_1d(wht_1d(f)).samples
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


def _layouts():
    """Arrays in the layouts callers pass, each with the axes of length 2^3."""
    rng = np.random.default_rng(77)

    def floats(*shape):
        return rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)

    read_only = floats(8, 8)
    read_only.setflags(write=False)
    cases = {
        "1d": (floats(8), (0,)),
        "2d": (floats(8, 8), (0, 1)),
        "2d-rect": (floats(8, 5), (0,)),
        "3d": (floats(8, 3, 8), (0, 2)),
        "3d-middle": (floats(2, 8, 3), (1,)),
        "transposed": (floats(5, 8).T, (0,)),
        "transposed-3d": (floats(8, 3, 8).transpose(2, 0, 1), (0, 1)),
        "strided": (floats(16, 8)[::2], (0, 1)),
        "strided-inner": (floats(8, 24)[:, 1::3], (0, 1)),
        "fortran": (np.asfortranarray(floats(8, 8)), (0, 1)),
        "read-only": (read_only, (0, 1)),
        "integer": (rng.integers(-1000, 1000, (8, 8)), (0, 1)),
    }
    return [pytest.param(values, axes, id=label) for label, (values, axes) in cases.items()]


LAYOUTS = _layouts()


@pytest.mark.parametrize("values, axes", LAYOUTS)
def test_analysis_is_the_reference_butterfly_bit_for_bit(values, axes):
    for axis in axes:
        got = _analysis(values, 3, (axis,))
        assert np.array_equal(got, _reference_analysis(values, 3, (axis,)))
    assert np.array_equal(_analysis(values, 3, axes), _reference_analysis(values, 3, axes))


@pytest.mark.parametrize("values, axes", LAYOUTS)
def test_synthesis_is_the_reference_butterfly_bit_for_bit(values, axes):
    for order in (0, 1, 3, 5, 8):
        for axis in axes:
            orders = [None] * values.ndim
            orders[axis] = order
            got = _synthesis(values, 3, orders)
            assert np.array_equal(got, _reference_synthesis(values, 3, orders))
        orders = [order if axis in axes else None for axis in range(values.ndim)]
        assert np.array_equal(_synthesis(values, 3, orders), _reference_synthesis(values, 3, orders))


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
    marginal_sum_1(f2, 7)
    marginal_sum_2(f2, 13)
    assert np.array_equal(f1.samples, before1) and np.array_equal(f2.samples, before2)
    coeffs1, coeffs2 = c1.coeffs.copy(), c2.coeffs.copy()
    inverse_wht_1d(c1)
    inverse_wht_2d(c2)
    assert np.array_equal(c1.coeffs, coeffs1) and np.array_equal(c2.coeffs, coeffs2)
    field = quadratic_sums(f2)
    rows, cols = field.row_profiles.copy(), field.col_profiles.copy()
    for n in (0, 5, 32):
        field.slice_at(n)
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
    with pytest.raises(UsageError):
        GRID[dims](4, np.ones((8,) * dims))
    with pytest.raises(UsageError):
        GRID[dims]("3", np.ones((8,) * dims))


def test_base_grid_takes_either_dimension_only():
    assert DyadicGrid(3, np.ones(8)).samples.shape == (8,)
    assert DyadicGrid.from_samples(np.ones((4, 4))).bits == 2
    with pytest.raises(DataError):
        DyadicGrid(1, np.ones((2, 2, 2)))


@pytest.mark.parametrize("dims", [1, 2])
def test_from_samples_and_value_at(dims):
    samples = np.arange(8.0**dims).reshape((8,) * dims)
    g = GRID[dims].from_samples(samples.tolist())
    assert type(g) is GRID[dims] and (g.bits, g.size) == (3, 8)
    assert g.samples.dtype == np.float64 and np.array_equal(g.samples, samples)
    assert g.value_at(*(0.5, 0.3)[:dims]) == samples[(4, 2)[:dims]]
    assert g.value_at(*(0.999,) * dims) == samples[(7,) * dims]
    for point in ((1.0, 0.0)[:dims], (0.5, -0.1)[-dims:], (0.5,) * (3 - dims)):
        with pytest.raises(UsageError):
            g.value_at(*point)


def test_every_transform_sum_and_operator_returns_its_inputs_class():
    f1, f2 = random_grid_1d(4, seed=1), random_grid_2d(3, seed=2)
    outs1 = [wht_1d(f1), naive_wht_1d(f1), inverse_wht_1d(f1), translate(f1, 3),
             partial_sum_1d(f1, 5), dyadic_maximal_1d(f1), schipp_v(f1, 2), schipp_v_max(f1)]
    outs2 = [wht_2d(f2), naive_wht_2d(f2), inverse_wht_2d(f2), rectangular_partial_sum(f2, 3, 5),
             marginal_sum_1(f2, 3), marginal_sum_2(f2, 3), marginal_maximal_2(f2),
             dyadic_maximal(f2), hybrid_maximal_1(f2), hybrid_maximal_2(f2),
             hybrid_v_1(f2), hybrid_v_2(f2), schipp_v_max(f2)]
    for grid, outs in ((f1, outs1), (f2, outs2)):
        for out in outs:
            assert type(out) is type(grid) and out.bits == grid.bits
            assert out.coeffs is out.samples and out.values is out.samples
    base = DyadicGrid(f1.bits, f1.samples)
    assert type(wht_1d(base)) is DyadicGrid and type(dyadic_maximal_1d(base)) is DyadicGrid
