import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wss import oracles
from wss.dyadic import walsh_row
from wss.errors import UsageError
from wss.generators import generate_function, random_grid_1d, random_grid_2d
from wss.sums import (
    all_partial_sums_1d,
    dyadic_square_sums,
    marginal_maximal_2,
    marginal_sum_1,
    marginal_sum_2,
    partial_sum_1d,
    quadratic_sums,
    rectangular_partial_sum,
)
from wss.transform import DyadicGrid1D, DyadicGrid2D


def test_partial_sum_order_one_is_mean():
    f = random_grid_1d(5, seed=1)
    s1 = partial_sum_1d(f, 1)
    assert np.abs(s1.samples - f.samples.mean()).max() <= 1e-13


def test_partial_sum_zero_is_zero():
    f = random_grid_1d(4, seed=2)
    assert np.abs(partial_sum_1d(f, 0).samples).max() == 0.0


def test_partial_sum_reproduces_low_degree_polynomials():
    bits = 6
    coeffs = np.zeros(64)
    coeffs[:5] = [0.5, -1.0, 2.0, 0.0, 3.0]
    samples = sum(c * walsh_row(k, bits).astype(float) for k, c in enumerate(coeffs[:5]))
    f = DyadicGrid1D(bits, samples)
    for n in range(5, 65):
        assert np.abs(partial_sum_1d(f, n).samples - f.samples).max() <= 1e-12


def test_martingale_property_1d():
    f = random_grid_1d(8, seed=3)
    for level in range(9):
        s = partial_sum_1d(f, 1 << level).samples
        cells = oracles.cell_averages_1d(f, level)
        assert np.abs(s - cells).max() <= 1e-12


def test_partial_sum_out_of_range():
    f = random_grid_1d(3, seed=4)
    with pytest.raises(UsageError):
        partial_sum_1d(f, 9)
    with pytest.raises(UsageError):
        partial_sum_1d(f, -1)


def test_all_partial_sums_consistent():
    f = random_grid_1d(6, seed=5)
    table = all_partial_sums_1d(f)
    for n in (0, 1, 7, 32, 64):
        assert np.abs(table[n] - partial_sum_1d(f, n).samples).max() <= 1e-12


def test_rectangular_full_and_degenerate():
    f = random_grid_2d(4, seed=6)
    full = rectangular_partial_sum(f, 16, 16)
    assert np.abs(full.samples - f.samples).max() <= 1e-12
    const = rectangular_partial_sum(f, 1, 1)
    assert np.abs(const.samples - f.samples.mean()).max() <= 1e-13


def test_rectangular_martingale_2d():
    f = random_grid_2d(5, seed=7)
    for j in range(6):
        for k in range(6):
            s = rectangular_partial_sum(f, 1 << j, 1 << k).samples
            cells = oracles.cell_averages_2d(f, j, k)
            assert np.abs(s - cells).max() <= 1e-12


def test_rectangular_against_definitional_synthesis():
    f = random_grid_2d(3, seed=8)
    for m, n in ((0, 5), (3, 3), (8, 1), (5, 7)):
        brute = oracles.rectangular_sum_brute(f, m, n)
        fast = rectangular_partial_sum(f, m, n).samples
        assert np.abs(fast - brute).max() <= 1e-12


def test_quadratic_sums_match_per_n_oracle():
    f = random_grid_2d(4, seed=9)
    cube = oracles.materialize(quadratic_sums(f))
    brute = oracles.diagonal_sums_brute(f)
    assert np.abs(cube - brute).max() <= 1e-10


def test_quadratic_sums_single_tensor_coefficient():
    bits = 3
    w3 = walsh_row(3, bits).astype(float)
    f = DyadicGrid2D(bits, np.outer(w3, w3))
    cube = oracles.materialize(quadratic_sums(f))
    for n in range(4):
        assert np.abs(cube[n]).max() <= 1e-13
    for n in range(4, 9):
        assert np.abs(cube[n] - f.samples).max() <= 1e-13


def test_quadratic_sums_constant():
    f = DyadicGrid2D(3, np.full((8, 8), 1.75))
    cube = oracles.materialize(quadratic_sums(f))
    for n in range(1, 9):
        assert np.abs(cube[n] - 1.75).max() <= 1e-13


def test_diagonal_consistency_with_rectangular():
    f = random_grid_2d(5, seed=10)
    cube = oracles.materialize(quadratic_sums(f))
    for n in range(33):
        rect = rectangular_partial_sum(f, n, n).samples
        assert np.abs(cube[n] - rect).max() <= 1e-10


def test_streaming_matches_full():
    f = random_grid_2d(4, seed=11)
    lazy = quadratic_sums(f)
    full = oracles.materialize(lazy)
    got = np.empty_like(full)
    for sl, block in lazy.iter_sequence_blocks(max_rows=5):
        got[:, sl, :] = block.transpose(2, 0, 1)
    assert np.abs(got - full).max() <= 1e-12
    seq = lazy.sequence_at(3, 12)
    assert np.abs(seq - full[:, 3, 12]).max() <= 1e-12
    assert np.abs(lazy.slice_at(7) - full[7]).max() <= 1e-12


def test_legacy_modes_build_the_same_field():
    f = random_grid_2d(5, seed=12)
    base = quadratic_sums(f)
    assert base.values is None and base.streaming
    for mode in ("auto", "full", "streaming"):
        field = quadratic_sums(f, mode=mode)
        assert np.array_equal(field.row_profiles, base.row_profiles)
        assert np.array_equal(field.col_profiles, base.col_profiles)
    with pytest.raises(UsageError):
        quadratic_sums(f, mode="cube")


def test_marginal_sums_basic():
    f = random_grid_2d(4, seed=13)
    assert np.abs(marginal_sum_1(f, 16).samples - f.samples).max() <= 1e-12
    assert np.abs(marginal_sum_2(f, 16).samples - f.samples).max() <= 1e-12


def test_marginal_sum_single_x_frequency():
    bits = 4
    g = random_grid_1d(bits, seed=14).samples
    f = DyadicGrid2D(bits, np.outer(walsh_row(2, bits).astype(float), g))
    assert np.abs(marginal_sum_1(f, 2).samples).max() <= 1e-13
    assert np.abs(marginal_sum_1(f, 3).samples - f.samples).max() <= 1e-13


def test_marginal_composition_equals_rectangular():
    f = random_grid_2d(4, seed=15)
    for m, n in ((3, 11), (8, 8), (1, 16)):
        lhs = rectangular_partial_sum(f, m, n).samples
        rhs = marginal_sum_1(marginal_sum_2(f, n), m).samples
        assert np.abs(lhs - rhs).max() <= 1e-12


def test_marginal_maximal_examples():
    c = -2.5
    f = DyadicGrid2D(3, np.full((8, 8), c))
    assert np.abs(marginal_maximal_2(f).samples - abs(c)).max() <= 1e-13
    g = random_grid_2d(4, seed=16)
    g = DyadicGrid2D(4, np.abs(g.samples))
    row_means = g.samples.mean(axis=1, keepdims=True)
    assert np.all(marginal_maximal_2(g).samples >= row_means - 1e-13)


def test_marginal_maximal_matches_brute():
    f = random_grid_2d(5, seed=17)
    fast = marginal_maximal_2(f).samples
    brute = oracles.marginal_maximal_2_brute(f)
    assert np.abs(fast - brute).max() <= 1e-12


# --- dyadic square sums (Paley prefix scan) ---------------------------------


def _square_sums_gap(f: DyadicGrid1D) -> float:
    """Largest gap of the scan to the table oracle, relative to max |Q_k| per k."""
    fast = dyadic_square_sums(f)
    brute = oracles.dyadic_square_sums_brute(f)
    assert [q.shape for q in fast] == [(1 << k,) for k in range(f.bits + 1)]
    worst = 0.0
    for k, q in enumerate(fast):
        gap = np.abs(np.repeat(q, 1 << (f.bits - k)) - brute[k]).max()
        worst = max(worst, gap / max(np.abs(brute[k]).max(), np.finfo(float).tiny))
    return worst


@pytest.mark.parametrize("bits", range(1, 12))
def test_dyadic_square_sums_match_table(bits):
    assert _square_sums_gap(random_grid_1d(bits, seed=40 + bits)) <= 1e-12


def test_dyadic_square_sums_closed_forms():
    # f = w_3 at 4 bits: S_l = 0 for l <= 3 and w_3 after, so Q_k = 2^k - 4 for k >= 2.
    squares = dyadic_square_sums(generate_function("walsh-tensor:3@B=4"))
    assert [q.tolist() for q in squares] == [[0.0], [0.0] * 2, [0.0] * 4, [4.0] * 8, [12.0] * 16]
    # f = 2: S_0 = 0 and S_l = 2 after, so Q_k = 4 (2^k - 1).
    const = dyadic_square_sums(DyadicGrid1D(3, np.full(8, 2.0)))
    assert [q.tolist() for q in const] == [[0.0], [4.0] * 2, [12.0] * 4, [28.0] * 8]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 8), st.integers(0, 10_000), st.floats(0.01, 100))
def test_dyadic_square_sums_property_random_steps(bits, level, seed, amp):
    f = generate_function(f"random-step:level={min(level, bits)},dim=1,amp={amp!r}@B={bits}", seed)
    assert _square_sums_gap(f) <= 1e-12
