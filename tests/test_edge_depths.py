"""Smoke the whole operator stack at the smallest and an odd resolution."""
import numpy as np
import pytest

from wss import oracles
from wss.generators import random_grid_1d, random_grid_2d
from wss.maximal import dyadic_maximal, hybrid_v_1, schipp_v_max, superlevel_measure
from wss.means import bmo_of_diagonal_sums, entropy_functional, marcinkiewicz_mean
from wss.sums import marginal_maximal_2, partial_sum_1d, quadratic_sums
from wss.transform import inverse_wht_1d, inverse_wht_2d, wht_1d, wht_2d


@pytest.mark.parametrize("bits", [1, 3])
def test_one_dimensional_stack(bits):
    f = random_grid_1d(bits, seed=61)
    assert np.abs(inverse_wht_1d(wht_1d(f)).samples - f.samples).max() <= 1e-13
    assert np.abs(partial_sum_1d(f, f.size).samples - f.samples).max() <= 1e-13
    v = schipp_v_max(f)
    assert v.values.shape == (f.size,)
    assert 0.0 <= superlevel_measure(v, 1e-9) <= 1.0


@pytest.mark.parametrize("bits", [1, 3])
def test_two_dimensional_stack(bits):
    f = random_grid_2d(bits, seed=62)
    assert np.abs(inverse_wht_2d(wht_2d(f)).samples - f.samples).max() <= 1e-13
    field = quadratic_sums(f)
    cube = oracles.materialize(field)
    assert cube.shape == (f.size + 1, f.size, f.size)
    assert np.abs(cube[f.size] - f.samples).max() <= 1e-12
    bmo = bmo_of_diagonal_sums(field)
    assert bmo.samples.shape == (f.size, f.size)
    assert np.all(bmo.samples >= 0)
    mean = marcinkiewicz_mean(field, f.size)
    assert np.isfinite(mean.samples).all()
    assert np.all(dyadic_maximal(f).values >= np.abs(f.samples) - 1e-14)
    assert np.all(marginal_maximal_2(f).samples >= 0)
    assert np.all(hybrid_v_1(f).values >= 0)
    assert entropy_functional(f, 0.0) == pytest.approx(np.abs(f.samples).mean())
