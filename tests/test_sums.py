import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SPEC_KINDS, band_limited
from wss import oracles
from wss.dyadic import walsh_matrix_f64, walsh_row
from wss.errors import DataError, UsageError
from wss.generators import generate_function, random_grid_1d, random_grid_2d
from wss.sums import (
    _paley_scan,
    _square_merge,
    all_partial_sums_1d,
    dyadic_square_sums,
    partial_sum_1d,
    quadratic_sums,
    rectangular_partial_sum,
)
from wss.transform import DyadicGrid1D, DyadicGrid2D, _analysis, _pow2_scaled, _zero_padded, naive_wht_2d


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


def test_two_dimensional_orders_out_of_range():
    f = random_grid_2d(3, seed=5)
    field = quadratic_sums(f)
    for bad in (-1, 9):
        for call in (lambda: rectangular_partial_sum(f, bad, 2), lambda: rectangular_partial_sum(f, 2, bad),
                     lambda: field.sequence_at(bad, 2), lambda: field.sequence_at(2, bad)):
            with pytest.raises(UsageError):
                call()


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
    # S_mn f = sum_{k<m, l<n} c_kl w_k(x) w_l(y), from the naive coefficients
    f = random_grid_2d(3, seed=8)
    c, w = naive_wht_2d(f).samples, walsh_matrix_f64(f.bits)
    for m, n in ((0, 5), (3, 3), (8, 1), (5, 7)):
        brute = np.einsum("mn,mx,ny->xy", c[:m, :n], w[:m], w[:n], optimize=False)
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
    for sl, block in lazy.iter_sequence_blocks():
        rows, cells = block.shape[:2]  # block[xi, j, yi] is the point (sl.start + xi, j rows + yi)
        for xi, j, yi in np.ndindex(rows, cells, rows):
            got[:, sl.start + xi, j * rows + yi] = block[xi, j, yi]
    assert np.abs(got - full).max() <= 1e-12
    seq = lazy.sequence_at(3, 12)
    assert np.abs(seq - full[:, 3, 12]).max() <= 1e-12


@pytest.mark.parametrize("spec", ["spike:level=2,target=10@B=4", "random-step:level=2,dim=2@B=4",
                                  "walsh-tensor:0,3@B=4", "random"])
def test_sequence_blocks_past_the_support_equal_each_point_sequence(spec):
    # steps are formed below the band K only and S_KK is copied after it:
    # bit for bit each point's own sequence over all 2^B + 1 orders
    f = random_grid_2d(4, seed=13) if spec == "random" else generate_function(spec, 13)
    field = quadratic_sums(f)
    assert len(field.row_profiles) == {"random": 16}.get(spec, 4)
    covered = 0
    for sl, block in field.iter_sequence_blocks():
        rows = sl.stop - sl.start
        assert sl.start == covered and block.shape == (rows, 16 // rows, rows, 17)
        for xi, ix in enumerate(range(sl.start, sl.stop)):
            for iy in range(16):
                assert np.array_equal(block[xi, iy // rows, iy % rows], field.sequence_at(ix, iy))
        covered = sl.stop
    assert covered == 16
    zero = quadratic_sums(DyadicGrid2D(4, np.zeros((16, 16))))
    assert len(zero.row_profiles) == 1 and not any(block.any() for _, block in zero.iter_sequence_blocks())


@pytest.mark.parametrize("spec, rows", [("random", 1), ("spike:level=2,target=10@B=4", 4)])
def test_sequence_blocks_reuse_one_buffer(spec, rows):
    f = random_grid_2d(4, seed=14) if spec == "random" else generate_function(spec, 14)
    field = quadratic_sums(f)
    blocks = field.iter_sequence_blocks()
    (_, first), (sl, second) = next(blocks), next(blocks)
    assert np.shares_memory(first, second)  # the first block is now overwritten
    assert sl == slice(rows, 2 * rows)
    assert np.array_equal(second[-1, 3 // rows, 3 % rows], field.sequence_at(2 * rows - 1, 3))
    # every block, the last included, is the same slab, column 0 still zero
    *_, (_, last) = blocks
    assert last.shape == (rows, 16 // rows, rows, 17) and np.shares_memory(last, second)
    assert not last[..., 0].any() and np.array_equal(last[-1, 9 // rows, 9 % rows], field.sequence_at(15, 9))
    with pytest.raises(ValueError):
        last[0, 0, 0, 0] = 1.0


@pytest.mark.parametrize("kind", SPEC_KINDS + ("zero", "random"))
def test_sequence_blocks_one_slab_per_cell(kind):
    # one read-only block per level-l x-cell, 2^l = max(2, K), that views
    # one (2^l, N + 1) slab: strides of 0 over the rows of the x- and y-cells
    field = quadratic_sums(band_limited(kind, 5))
    cells = max(2, len(field.row_profiles))
    rows = 32 // cells
    assert field.row_profiles.shape == field.col_profiles.shape == (len(field.row_profiles), cells)
    count = 0
    for i, (sl, block) in enumerate(field.iter_sequence_blocks()):
        assert sl == slice(i * rows, (i + 1) * rows) and block.shape == (rows, cells, rows, 33)
        assert not block.flags.writeable and block.strides[1::2] == (8 * 33, 8)
        assert rows == 1 or block.strides[0::2] == (0, 0)
        for xi, ix in enumerate(range(sl.start, sl.stop)):
            for iy in range(32):
                assert np.array_equal(block[xi, iy // rows, iy % rows], field.sequence_at(ix, iy))
        count += 1
    assert count == cells


@pytest.mark.parametrize("bits", range(1, 7))
@pytest.mark.parametrize("kind", SPEC_KINDS)
def test_diagonal_field_of_every_kind_matches_per_n_synthesis(kind, bits):
    # the streamed x-cells against one truncated synthesis per order n
    f = band_limited(kind, bits)
    cube, brute = oracles.materialize(quadratic_sums(f)), oracles.diagonal_sums_brute(f)
    for n in range(f.size + 1):
        assert np.abs(cube[n] - brute[n]).max() <= 1e-10


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


def test_materialized_field_matches_rectangular_partial_sum():
    f = random_grid_2d(4, seed=18)
    cube = oracles.materialize(quadratic_sums(f))
    for n in range(f.size + 1):
        rect = rectangular_partial_sum(f, n, n).samples
        assert np.abs(cube[n] - rect).max() <= 1e-12 * max(1.0, np.abs(rect).max())


# --- dyadic square sums (Paley prefix scan) ---------------------------------


def _square_sums_gap(f: DyadicGrid1D) -> float:
    """Largest gap of the scan to the table oracle, relative to max |Q_k| per k."""
    fast = dyadic_square_sums(f)
    brute = oracles.dyadic_square_sums_brute(f)
    level = len(f.cells).bit_length() - 1
    assert [q.shape for q in fast] == [(1 << min(k, level),) for k in range(f.bits + 1)]
    worst = 0.0
    for k, q in enumerate(fast):
        gap = np.abs(np.repeat(q, f.size // len(q)) - brute[k]).max()
        worst = max(worst, gap / max(np.abs(brute[k]).max(), np.finfo(float).tiny))
    return worst


@pytest.mark.parametrize("bits", range(1, 12))
def test_dyadic_square_sums_match_table(bits):
    assert _square_sums_gap(random_grid_1d(bits, seed=40 + bits)) <= 1e-12


def test_dyadic_square_sums_closed_forms():
    # f = w_3 at 4 bits: S_l = 0 for l <= 3 and w_3 after, so Q_k = 2^k - 4 for k >= 2,
    # on the level-min(k, 2) cells w_3 lives on.
    squares = dyadic_square_sums(generate_function("walsh-tensor:3@B=4"))
    assert [q.tolist() for q in squares] == [[0.0], [0.0] * 2, [0.0] * 4, [4.0] * 4, [12.0] * 4]
    # f = 2: S_0 = 0 and S_l = 2 after, so Q_k = 4 (2^k - 1), on the one level-0 cell.
    const = dyadic_square_sums(DyadicGrid1D(3, np.full(8, 2.0)))
    assert [q.tolist() for q in const] == [[0.0], [4.0], [12.0], [28.0]]


def _square_sums_on_the_padded_band(f: DyadicGrid1D) -> list[np.ndarray]:
    """The scan on the band zero-padded to 2^bits, every Q_k on its level-k cells."""
    band = _zero_padded(_analysis(f.cells, f.bits, (0,)), f.size)
    exponent, (total,) = _pow2_scaled(band[:, None], inplace=True)
    zero = np.zeros_like(total)
    states = _paley_scan((total, zero, zero), f.bits, _square_merge)
    return [np.ldexp(q, 2 * exponent) for q in [zero[0]] + [psq[0].copy() for _, _, psq in states]]


@pytest.mark.parametrize("bits", range(1, 11), ids=lambda b: f"B={b}")
def test_dyadic_square_sums_past_the_band_are_the_padded_scan_bit_for_bit(bits):
    # the scan stops at the band [0, 2^L) and continues on the 2^L cells
    for level in range(bits + 1):
        for amp in ("1", "4", "1e-300", "1e-310"):
            f = generate_function(f"random-step:level={level},dim=1,amp={amp}@B={bits}", 70 + level)
            cells = len(f.cells)
            got = dyadic_square_sums(f)
            assert [q.shape for q in got] == [(min(1 << k, cells),) for k in range(bits + 1)]
            for k, (q, padded) in enumerate(zip(got, _square_sums_on_the_padded_band(f), strict=True)):
                q = np.repeat(q, (1 << k) // len(q))
                assert np.array_equal(q.view(np.int64), padded.view(np.int64)), (level, amp, k)


@pytest.mark.parametrize("spec", ["random-step:level=3,dim=1@B=6", "random-step:level=10,dim=1@B=10",
                                  "walsh-tensor:5+9@B=7", "random-spectrum:support=6,dim=1@B=5"])
def test_dyadic_square_sums_are_exactly_homogeneous(spec):
    # the scan runs on scaled coefficients: 2^300 f squares to 2^600 Q_k, bit for bit
    f = generate_function(spec, 3)
    big = type(f).from_cells(f.bits, np.ldexp(f.cells, 300))
    for q, q_big in zip(dyadic_square_sums(f), dyadic_square_sums(big), strict=True):
        assert np.array_equal(np.ldexp(q, 600).view(np.int64), q_big.view(np.int64))


def test_dyadic_square_sums_beyond_float64_raise_data_error():
    with pytest.raises(DataError, match="square sum Q_1 overflows float64"):
        dyadic_square_sums(generate_function("random-step:level=3,dim=1,amp=1e200@B=6"))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 8), st.integers(0, 10_000), st.floats(0.01, 100))
def test_dyadic_square_sums_property_random_steps(bits, level, seed, amp):
    f = generate_function(f"random-step:level={min(level, bits)},dim=1,amp={amp!r}@B={bits}", seed)
    assert _square_sums_gap(f) <= 1e-12
