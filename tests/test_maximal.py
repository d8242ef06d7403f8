import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dyadic_rationals, traced_peak_ratio
from wss import maximal, oracles
from wss.errors import UsageError
from wss.generators import generate_function, portable_uniforms, random_grid_1d, random_grid_2d
from wss.maximal import (
    _schipp_v_values,
    dyadic_maximal,
    hybrid_maximal_1,
    hybrid_maximal_2,
    hybrid_v_1,
    hybrid_v_2,
    schipp_v_max,
    superlevel_measure,
)
from wss.transform import DyadicGrid, DyadicGrid1D, DyadicGrid2D, _pow2_scaled


def test_operator_outputs_are_nonnegative():
    f, g = random_grid_2d(4, seed=8), random_grid_1d(5, seed=9)
    for op in (dyadic_maximal, hybrid_maximal_1, hybrid_maximal_2, hybrid_v_1, hybrid_v_2, schipp_v_max):
        assert op(f).samples.min() >= 0.0
    for out in (hybrid_maximal_1(g).samples, schipp_v_max(g).samples, _schipp_v_values(g.cells, (3,))):
        assert out.min() >= 0.0


# --- dyadic maximal ----------------------------------------------------------


def test_maximal_constant():
    f = DyadicGrid2D(3, np.full((8, 8), -2.0))
    assert np.abs(dyadic_maximal(f).values - 2.0).max() == 0.0


def test_maximal_dominates_global_mean():
    f = random_grid_2d(4, seed=3)
    mean = np.abs(f.samples).mean()
    assert np.all(dyadic_maximal(f).values >= mean - 1e-14)


def test_maximal_indicator_block():
    # 1 on the level-2 corner square at 4 bits; common-ancestor averages off it.
    g = np.zeros((16, 16))
    g[:4, :4] = 1.0
    f = DyadicGrid2D(4, g)
    out = dyadic_maximal(f).values
    brute = oracles.dyadic_maximal_brute(f)
    assert np.abs(out - brute).max() <= 1e-13
    assert np.all(out[:4, :4] == 1.0)
    assert out[4, 4] == 0.25  # sibling inside the level-1 square: 4/16 of mass
    assert out[12, 12] == pytest.approx(1.0 / 16.0)  # only the full square


def test_maximal_matches_brute_random():
    for bits, seed in ((3, 5), (4, 6)):
        f = random_grid_2d(bits, seed)
        assert np.abs(dyadic_maximal(f).values - oracles.dyadic_maximal_brute(f)).max() <= 1e-13


def test_maximal_1d_matches_slicewise():
    f = random_grid_1d(5, seed=7)
    out = hybrid_maximal_1(f).values
    assert np.all(out >= np.abs(f.samples) - 1e-15)
    assert np.all(out >= np.abs(f.samples.mean()) - 1e-15)


# --- hybrid maximal ----------------------------------------------------------


def test_hybrid_constant_and_pointwise():
    f = DyadicGrid2D(3, np.full((8, 8), 1.25))
    assert np.abs(hybrid_maximal_1(f).values - 1.25).max() == 0.0
    g = random_grid_2d(4, seed=8)
    assert np.all(hybrid_maximal_1(g).values >= np.abs(g.samples) - 1e-14)
    assert np.all(hybrid_maximal_2(g).values >= np.abs(g.samples) - 1e-14)


def test_one_axis_maximals_match_cell_average_oracle():
    # dyadic rationals: block means are exact in any order, so equality is exact
    f = DyadicGrid2D(5, dyadic_rationals(10, 1024).reshape(32, 32))
    a = DyadicGrid2D(5, np.abs(f.samples))
    m1 = np.max([oracles.cell_averages_2d(a, n, 5) for n in range(6)], axis=0)
    m2 = np.max([oracles.cell_averages_2d(a, 5, n) for n in range(6)], axis=0)
    assert np.array_equal(hybrid_maximal_1(f).values, m1)
    assert np.array_equal(hybrid_maximal_2(f).values, m2)
    g = DyadicGrid1D(5, f.samples[3])
    m = np.max([oracles.cell_averages_1d(DyadicGrid1D(5, np.abs(g.samples)), n)
                for n in range(6)], axis=0)
    assert np.array_equal(hybrid_maximal_1(g).values, m)


def test_hybrid_reduces_to_1d_on_tensor():
    g = random_grid_1d(4, seed=9)
    f1 = DyadicGrid2D(4, np.repeat(g.samples[:, None], 16, axis=1))
    out1 = hybrid_maximal_1(f1).values
    ref = hybrid_maximal_1(g).values
    assert np.abs(out1 - ref[:, None]).max() == 0.0
    f2 = DyadicGrid2D(4, np.repeat(g.samples[None, :], 16, axis=0))
    out2 = hybrid_maximal_2(f2).values
    assert np.abs(out2 - ref[None, :]).max() == 0.0


# --- Schipp V operators ------------------------------------------------------


def test_schipp_v_constant_closed_form():
    f = DyadicGrid1D(4, np.ones(16))
    out = _schipp_v_values(f.cells, (1,))
    assert np.abs(out - 8.0**-0.5).max() <= 1e-15


def test_schipp_v_zero():
    f = DyadicGrid1D(4, np.zeros(16))
    for n in (1, 2, 4):
        assert np.abs(_schipp_v_values(f.cells, (n,))).max() == 0.0


def test_schipp_v_matches_brute():
    f = random_grid_1d(6, seed=11)
    for n in (1, 3, 6):
        gap = np.abs(_schipp_v_values(f.cells, (n,)) - oracles.schipp_v_brute(f, n)).max()
        assert gap <= 1e-12


def test_schipp_v_max_is_exhaustive_sup():
    f = random_grid_1d(5, seed=13)
    stacked = np.stack([_schipp_v_values(f.cells, (n,)) for n in range(1, 6)])
    assert np.abs(schipp_v_max(f).values - stacked.max(axis=0)).max() == 0.0


def test_hybrid_v_tensor_reduction_and_constants():
    g = random_grid_1d(4, seed=14)
    f1 = DyadicGrid2D(4, np.repeat(g.samples[:, None], 16, axis=1))
    ref = schipp_v_max(g).values
    assert np.abs(hybrid_v_1(f1).values - ref[:, None]).max() == 0.0
    f2 = DyadicGrid2D(4, np.repeat(g.samples[None, :], 16, axis=0))
    assert np.abs(hybrid_v_2(f2).values - ref[None, :]).max() == 0.0

    zeros = DyadicGrid2D(3, np.zeros((8, 8)))
    assert np.abs(hybrid_v_1(zeros).values).max() == 0.0

    ones2d = DyadicGrid2D(4, np.ones((16, 16)))
    ones1d = DyadicGrid1D(4, np.ones(16))
    expected = schipp_v_max(ones1d).values[0]
    assert np.abs(hybrid_v_1(ones2d).values - expected).max() <= 1e-15


def test_hybrid_v_on_non_tensor_grid_is_slicewise_v():
    f = random_grid_2d(6, seed=16)
    v1 = hybrid_v_1(f).values
    v2 = hybrid_v_2(f).values
    for i in range(f.size):
        column = DyadicGrid1D(6, f.samples[:, i])
        row = DyadicGrid1D(6, f.samples[i, :])
        assert np.abs(v1[:, i] - schipp_v_max(column).values).max() == 0.0
        assert np.abs(v2[i, :] - schipp_v_max(row).values).max() == 0.0
        for got, g in ((v1[:, i], column), (v2[i, :], row)):
            brute = np.max([oracles.schipp_v_brute(g, n) for n in range(1, 7)], axis=0)
            assert np.abs(got - brute).max() <= 1e-12


# --- superlevel measure ------------------------------------------------------


def test_superlevel_examples():
    const = DyadicGrid2D(3, np.full((8, 8), 2.0))
    assert superlevel_measure(const, 3.0) == 0.0
    assert superlevel_measure(const, 1.0) == 1.0
    g = np.zeros((8, 8))
    g[:4, :4] = 5.0
    assert superlevel_measure(DyadicGrid2D(3, g), 1.0) == 0.25
    with pytest.raises(UsageError):
        superlevel_measure(const, 0.0)


def test_superlevel_counts_the_cells_of_a_grid():
    grid = DyadicGrid2D(2, np.eye(4))
    assert superlevel_measure(grid, 0.5) == 0.25
    assert superlevel_measure(DyadicGrid1D.from_cells(6, [0.0, 2.0]), 1.0) == 0.5


@pytest.mark.parametrize("shape", [(8,), (1024,), (16, 16), (32, 32)])
def test_superlevel_is_the_bool_mean_bit_for_bit(shape):
    # values on a coarse lattice put many ties exactly at lam; on a grid two
    # levels finer than its cells each cell stands for 4^dims samples, exactly
    values = np.random.default_rng(sum(shape)).integers(0, 5, shape) * 0.75
    bits = len(values).bit_length() - 1
    fine, coarse = DyadicGrid.from_samples(values), DyadicGrid.from_cells(bits + 2, values)
    for lam in (0.75, 1.5, 1.6, 3.0, 10.0):
        for grid in (fine, coarse):
            assert superlevel_measure(grid, lam) == (values > lam).mean()


# --- shared properties -------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.01, 50))
def test_positive_homogeneity(seed, c):
    f = random_grid_1d(4, seed)
    scaled = DyadicGrid1D(4, c * f.samples)
    lhs = schipp_v_max(scaled).values
    rhs = c * schipp_v_max(f).values
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, c)
    m_lhs = hybrid_maximal_1(scaled).values
    m_rhs = c * hybrid_maximal_1(f).values
    assert np.abs(m_lhs - m_rhs).max() <= 1e-12 * max(1.0, c)


@pytest.mark.parametrize("shift", [600, -600])
def test_schipp_v_is_exactly_homogeneous_at_extreme_amplitudes(shift):
    # squares of 2^600-sized sums overflow and of 2^-600-sized ones underflow
    for f in (random_grid_1d(8, seed=5), random_grid_2d(6, seed=6)):
        scaled = type(f)(f.bits, np.ldexp(f.samples, shift))
        assert np.array_equal(schipp_v_max(scaled).values, np.ldexp(schipp_v_max(f).values, shift))


@pytest.mark.parametrize("shift", [600, -600, 1023])
def test_maximal_operators_are_exactly_homogeneous_at_extreme_amplitudes(shift):
    # at 2^1023 the sum of four children overflows unless it is scaled first
    f = random_grid_2d(6, seed=7)
    scaled = DyadicGrid2D(f.bits, np.ldexp(f.samples, shift))
    for op in (dyadic_maximal, hybrid_maximal_1, hybrid_maximal_2):
        assert np.array_equal(op(scaled).samples, np.ldexp(op(f).samples, shift))


def test_schipp_v_translation_covariance():
    # V_n commutes with dyadic translation: V_n(. (+) a; f(. (+) a)) = V_n(.; f).
    f = random_grid_1d(5, seed=19)
    for a_idx in (1, 7, 22):
        shifted = DyadicGrid1D(5, f.samples[np.arange(32) ^ a_idx])
        for n in (1, 3, 5):
            lhs = _schipp_v_values(shifted.cells, (n,))
            rhs = _schipp_v_values(f.cells, (n,))[np.arange(32) ^ a_idx]
            assert np.abs(lhs - rhs).max() <= 1e-12


def test_maximal_dominates_cell_averages():
    f = random_grid_2d(4, seed=15)
    out = dyadic_maximal(f).values
    for level in range(5):
        cells = oracles.cell_averages_2d(
            DyadicGrid2D(4, np.abs(f.samples)), level, level
        )
        assert np.all(out >= cells - 1e-13)


def _schipp_v_by_gathers(samples, bits, n):
    # V_n with fancy-index gathers, every order halved from the samples and no in-place step
    exponent, (scaled,) = _pow2_scaled(samples)
    g = scaled
    for _ in range(bits - n):
        g = 0.5 * (g[..., 0::2] + g[..., 1::2])
    idx = np.arange(1 << n)
    c = acc = 0.0
    for k in range(n):
        c = c + 2.0 ** (k - 1) * g[..., idx ^ (1 << (n - 1 - k))]
        q = block_sums = c * c
        for _ in range(n - 1 - k):
            block_sums = block_sums[..., 0::2] + block_sums[..., 1::2]
        acc = acc + block_sums[..., (idx >> (n - 1 - k)) ^ 1]
    return np.ldexp(np.repeat(np.sqrt(acc + q) * 2.0**-n, 1 << (bits - n), axis=-1), exponent)


@pytest.mark.parametrize("shape", [(256,), (3, 256)])
def test_schipp_v_is_bit_identical_to_the_gather_form(shape):
    samples = 3.7 * random_grid_1d(10, seed=21).samples[: math.prod(shape)].reshape(shape)
    before = samples.copy()
    orders = [_schipp_v_by_gathers(samples, 8, n) for n in range(1, 9)]
    for n in range(1, 9):
        assert np.array_equal(_schipp_v_values(samples, (n,)), orders[n - 1])
    assert np.array_equal(_schipp_v_values(samples, range(1, 9)), np.maximum.reduce(orders))
    assert np.array_equal(samples, before)


@pytest.mark.parametrize("amp", [1.0, 4.0, 1e200, 1e-200])
def test_schipp_v_on_cells_is_bit_identical_to_the_gather_form(amp):
    # a level-L step at B <= 8, every order: n <= L runs on the level-n cells,
    # n > L on the level-L cells with the shells past L in closed form
    for bits in range(1, 9):
        for level in range(bits + 1):
            f = generate_function(f"random-step:level={level},dim=1,amp={amp!r}@B={bits}", 10 * bits + level)
            orders = [_schipp_v_by_gathers(f.samples, bits, n) for n in range(1, bits + 1)]
            for n in range(1, bits + 1):
                on_cells = np.repeat(_schipp_v_values(f.cells, (n,)), 1 << (bits - level))
                assert np.array_equal(on_cells.view(np.int64), orders[n - 1].view(np.int64)), (bits, level, n)
            on_cells = np.repeat(_schipp_v_values(f.cells, range(1, bits + 1)), 1 << (bits - level))
            assert np.array_equal(on_cells.view(np.int64), np.maximum.reduce(orders).view(np.int64))


@pytest.mark.parametrize("amp", [0.75, 4.0])
def test_operators_never_write_their_input(amp):
    # at amp 0.75 the scaling exponent is 0: `_pow2_scaled` hands back the array itself
    f, g = random_grid_2d(5, seed=22, amp=amp), random_grid_1d(7, seed=23, amp=amp)
    assert (np.frexp(np.abs(f.samples).max())[1] == 0) == (amp < 1)
    before, before_1d = f.samples.copy(), g.samples.copy()
    for op in (dyadic_maximal, hybrid_maximal_1, hybrid_maximal_2, hybrid_v_1, hybrid_v_2, schipp_v_max):
        assert not np.shares_memory(op(f).samples, f.samples)
    for out in (hybrid_maximal_1(g).samples, schipp_v_max(g).samples,
                _schipp_v_values(g.cells, (4,)), _schipp_v_values(g.cells, (7,))):
        assert not np.shares_memory(out, g.samples)
    assert np.array_equal(f.samples, before) and np.array_equal(g.samples, before_1d)


@pytest.mark.parametrize("op, bound", [(dyadic_maximal, 1.5), (hybrid_maximal_1, 2.1), (hybrid_maximal_2, 2.1)])
def test_maximal_pyramids_hold_one_working_copy(op, bound):
    # amp=4: the scaling exponent is nonzero; the result is the one private copy,
    # and the coarser levels add 1/3 (squares) or 1 (one axis) of the grid
    assert traced_peak_ratio(op, random_grid_2d(9, seed=24, amp=4.0)) <= bound


def test_v1_runs_on_a_transposed_view_and_peaks_as_v2():
    # no transposed copy in or out: both peak at about 5.50 grids at B=10
    # (5.50125 and 5.50116), where a transposed copy of f took V1 to 6.50
    f = random_grid_2d(10, seed=24, amp=4.0)
    v1, v2 = traced_peak_ratio(hybrid_v_1, f), traced_peak_ratio(hybrid_v_2, f)
    assert v1 <= 5.51 and v1 <= v2 + 0.001


@pytest.mark.parametrize("op", [hybrid_maximal_1, hybrid_maximal_2])
def test_one_axis_pyramids_hold_the_result_and_one_block(op):
    # a B=10 grid is four blocks: the result plus one slab's coarser levels (1.25 grids)
    assert traced_peak_ratio(op, random_grid_2d(10, seed=24, amp=4.0)) <= 1.3


@pytest.mark.parametrize("amp", [0.75, 4.0, 1e200, 1e-200])
def test_one_axis_pyramids_in_slabs_equal_the_one_slab_result(amp):
    f = random_grid_2d(6, seed=25, amp=amp)
    whole = [hybrid_maximal_1(f).samples, hybrid_maximal_2(f).samples]
    with mock.patch.object(maximal, "BLOCK_BYTES", f.samples.nbytes // 8):  # eight slabs
        assert np.array_equal(hybrid_maximal_1(f).samples, whole[0])
        assert np.array_equal(hybrid_maximal_2(f).samples, whole[1])


# --- step functions on their cells -------------------------------------------

CELL_SPECS = [
    *(f"random-step:level={level},dim=2@B=8" for level in range(9)),
    *(f"random-step:level={level},dim=1@B=7" for level in (0, 3, 7)),
    "indicator-rect:0.25,0.75,0,0.5@B=8",
    "indicator-rect:0.3,0.7,0.1,0.35@B=6",
    "indicator-rect:0.125,0.5@B=5",
    "walsh-tensor:3,6@B=8",
    "walsh-tensor:1,0+2,3@B=5",
    "walsh-tensor:5+9@B=7",
    "walsh-tensor:0,0@B=4",
    "random-spectrum:support=5,dim=2@B=6",
    "spike:level=2,target=10@B=8",
    "spike:level=0,target=1@B=3",
    "anisotropic-1-5",
]
PYRAMID_AXES = {dyadic_maximal: (0, 1), hybrid_maximal_1: (0,), hybrid_maximal_2: (1,)}


def _cell_grid(spec, amp):
    if spec == "anisotropic-1-5":  # level 1 in x, level 5 in y, at B=8
        cells = np.repeat(portable_uniforms(3, 2 * 32).reshape(2, 32) - 0.5, 16, axis=0)
        f = DyadicGrid2D.from_cells(8, cells)
        assert f.cells.shape == (32, 32)
    else:
        f = generate_function(spec, 9)
    return type(f).from_cells(f.bits, amp * f.cells)


@pytest.mark.parametrize("amp", [1.0, 4.0, 1e200, 1e-200])
@pytest.mark.parametrize("spec", CELL_SPECS)
def test_maximal_pyramids_on_cells_are_the_full_pyramid_bit_for_bit(spec, amp):
    f = _cell_grid(spec, amp)
    for op, axes in PYRAMID_AXES.items():
        if max(axes) < f.cells.ndim:  # a 1D grid takes M1 only
            fine = maximal._dyadic_maximal(f.samples, axes)  # every level from the samples
            assert np.array_equal(op(f).samples.view(np.int64), fine.view(np.int64))


@pytest.mark.parametrize("amp", [1.0, 1e200, 1e-200])
@pytest.mark.parametrize("spec", CELL_SPECS)
def test_v_family_on_cells_is_v_on_the_samples_bit_for_bit(spec, amp):
    f = _cell_grid(spec, amp)
    orders = range(1, f.bits + 1)
    fine = _schipp_v_values(f.samples, orders)  # every order on the 2^B samples
    outs = [(schipp_v_max(f), fine)]
    if f.cells.ndim == 2:
        outs += [(hybrid_v_2(f), fine), (hybrid_v_1(f), _schipp_v_values(np.ascontiguousarray(f.samples.T), orders).T)]
    for out, expected in outs:
        assert np.array_equal(out.samples.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("spec", CELL_SPECS)
def test_superlevel_counts_on_cells_equal_the_full_count(spec):
    f = _cell_grid(spec, 4.0)
    ops = [op for op, axes in PYRAMID_AXES.items() if max(axes) < f.cells.ndim]
    for out in [f, *(op(f) for op in ops)]:
        grid = type(out).from_cells(out.bits, np.abs(out.cells))
        values = grid.samples
        for lam in (0.5, 1.0, *np.unique(values)[1:4]):  # ties exactly at lam
            assert superlevel_measure(grid, lam) == np.count_nonzero(values > lam) / values.size


def test_four_equal_children_average_to_themselves():
    # the step from a grid's cells to its samples in `_dyadic_maximal`: the
    # pyramid's sums in its own order, on scaled values (at most 1) of every
    # binade, subnormals included, and on mantissas of every residue mod 4
    m = np.concatenate([np.arange(2**52, 2**52 + 64), np.arange(2**53 - 64, 2**53),
                        (portable_uniforms(11, 4096) * 2**52).astype(np.int64) + 2**52])
    v = np.concatenate([np.ldexp(np.float64(m)[None, :], np.arange(-1074, -52)[:, None]).ravel(),
                        np.ldexp(np.float64(m % 2**52), -1074)])  # subnormal
    pair, quad = v + v, v + v
    quad += v
    quad += v
    assert np.array_equal(pair * 0.5, v) and np.array_equal(quad * 0.25, v)
