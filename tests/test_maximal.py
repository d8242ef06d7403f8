import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dyadic_rationals
from wss import oracles
from wss.errors import UsageError
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
    superlevel_measure,
)
from wss.transform import DyadicGrid1D, DyadicGrid2D


def test_operator_outputs_are_nonnegative():
    f, g = random_grid_2d(4, seed=8), random_grid_1d(5, seed=9)
    for op in (dyadic_maximal, hybrid_maximal_1, hybrid_maximal_2, hybrid_v_1, hybrid_v_2, schipp_v_max):
        assert op(f).samples.min() >= 0.0
    for out in (dyadic_maximal_1d(g), schipp_v_max(g), schipp_v(g, 3)):
        assert out.samples.min() >= 0.0


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
    out = dyadic_maximal_1d(f).values
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
    assert np.array_equal(dyadic_maximal_1d(g).values, m)


def test_hybrid_reduces_to_1d_on_tensor():
    g = random_grid_1d(4, seed=9)
    f1 = DyadicGrid2D(4, np.repeat(g.samples[:, None], 16, axis=1))
    out1 = hybrid_maximal_1(f1).values
    ref = dyadic_maximal_1d(g).values
    assert np.abs(out1 - ref[:, None]).max() == 0.0
    f2 = DyadicGrid2D(4, np.repeat(g.samples[None, :], 16, axis=0))
    out2 = hybrid_maximal_2(f2).values
    assert np.abs(out2 - ref[None, :]).max() == 0.0


# --- Schipp V operators ------------------------------------------------------


def test_schipp_v_constant_closed_form():
    f = DyadicGrid1D(4, np.ones(16))
    out = schipp_v(f, 1).values
    assert np.abs(out - 8.0**-0.5).max() <= 1e-15


def test_schipp_v_zero():
    f = DyadicGrid1D(4, np.zeros(16))
    for n in (1, 2, 4):
        assert np.abs(schipp_v(f, n).values).max() == 0.0


def test_schipp_v_matches_brute():
    f = random_grid_1d(6, seed=11)
    for n in (1, 3, 6):
        gap = np.abs(schipp_v(f, n).values - oracles.schipp_v_brute(f, n)).max()
        assert gap <= 1e-12


def test_schipp_v_range_errors():
    f = random_grid_1d(4, seed=12)
    with pytest.raises(UsageError):
        schipp_v(f, 0)
    with pytest.raises(UsageError):
        schipp_v(f, 5)


def test_schipp_v_max_is_exhaustive_sup():
    f = random_grid_1d(5, seed=13)
    stacked = np.stack([schipp_v(f, n).values for n in range(1, 6)])
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


def test_superlevel_accepts_grids_and_arrays():
    grid = DyadicGrid2D(2, np.eye(4))
    assert superlevel_measure(grid, 0.5) == 0.25
    assert superlevel_measure(np.array([0.0, 2.0]), 1.0) == 0.5


# --- shared properties -------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.01, 50))
def test_positive_homogeneity(seed, c):
    f = random_grid_1d(4, seed)
    scaled = DyadicGrid1D(4, c * f.samples)
    lhs = schipp_v_max(scaled).values
    rhs = c * schipp_v_max(f).values
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, c)
    m_lhs = dyadic_maximal_1d(scaled).values
    m_rhs = c * dyadic_maximal_1d(f).values
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
    from wss.transform import translate

    f = random_grid_1d(5, seed=19)
    for a_idx in (1, 7, 22):
        shifted = translate(f, a_idx)
        for n in (1, 3, 5):
            lhs = schipp_v(shifted, n).values
            rhs = schipp_v(f, n).values[np.arange(32) ^ a_idx]
            assert np.abs(lhs - rhs).max() <= 1e-12


def test_maximal_dominates_cell_averages():
    f = random_grid_2d(4, seed=15)
    out = dyadic_maximal(f).values
    for level in range(5):
        cells = oracles.cell_averages_2d(
            DyadicGrid2D(4, np.abs(f.samples)), level, level
        )
        assert np.all(out >= cells - 1e-13)
