import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SPEC_KINDS, band_limited, dyadic_rationals, traced_peak_ratio
from wss import means, oracles
from wss.errors import DataError, UsageError
from wss.generators import generate_function, random_grid_1d, random_grid_2d
from wss.means import (
    _max_mean_square_oscillation,
    PhiFunction,
    bmo_of_diagonal_sums,
    bmo_sequence_norm,
    entropy_functional,
    phi_mean_sequence,
)
from wss.sums import quadratic_sums
from wss.transform import DyadicGrid1D, DyadicGrid2D, _pow2_scaled


def constant_field(bits, c):
    return quadratic_sums(DyadicGrid2D(bits, np.full((1 << bits, 1 << bits), float(c))))


# --- sequence BMO -----------------------------------------------------------


def test_bmo_sequence_examples():
    assert bmo_sequence_norm([3.25] * 16) == 0.0
    assert bmo_sequence_norm([0.0, 1.0]) == 0.5
    assert bmo_sequence_norm([0.0, 1.0] * 4) == 0.5


def test_bmo_sequence_fast_equals_brute_exactly():
    for seed in range(40):
        length = 2 ** (1 + seed % 8)
        xi = dyadic_rationals(seed, length)
        assert bmo_sequence_norm(xi) == oracles.bmo_sequence_brute(xi)


def test_oscillation_kernel_batched_equals_brute_exactly():
    # one batched call over rows of every power-of-two length, each row exact
    for log_len in range(9):
        rows = np.stack([dyadic_rationals(100 * log_len + i, 1 << log_len) for i in range(6)])
        got = _max_mean_square_oscillation(rows.reshape(2, 3, -1))
        want = [oracles.bmo_sequence_brute(row) ** 2 for row in rows]
        assert got.shape == (2, 3)
        assert np.sqrt(got).ravel().tolist() == [math.sqrt(v) for v in want]


def test_oscillation_kernel_constant_tail_equals_the_whole_sequence():
    # a head of 2^h terms, then its next term repeated up to 2^L: bit for bit
    # the kernel over the whole sequence, for random (inexact) values too
    rng = np.random.default_rng(31)
    for log_len in range(1, 8):
        for head in range(log_len + 1):
            rows = rng.normal(size=(3, 2, (1 << head) + 1))
            whole = np.concatenate(
                [rows[..., :-1], np.repeat(rows[..., -1:], (1 << log_len) - (1 << head), -1)], -1)
            got = _max_mean_square_oscillation(rows[..., :-1], rows[..., -1], 1 << log_len)
            assert np.array_equal(got, _max_mean_square_oscillation(whole))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6),
       st.floats(-100, 100), st.floats(0.25, 8))
def test_bmo_sequence_shift_and_scale(seed, log_len, shift, scale):
    xi = dyadic_rationals(seed, 1 << log_len)
    base = bmo_sequence_norm(xi)
    assert bmo_sequence_norm(xi + shift) == pytest.approx(base, abs=1e-12 * (1 + abs(shift)))
    assert bmo_sequence_norm(scale * xi) == pytest.approx(scale * base, rel=1e-12, abs=1e-15)
    assert bmo_sequence_norm(-xi) == pytest.approx(base, rel=1e-12, abs=1e-15)


def test_bmo_sequence_far_from_zero_matches_brute():
    # a large common offset must not cost accuracy: the norm is shift invariant
    rng = np.random.default_rng(31)
    for i in range(100):
        xi = 1e6 + rng.normal(size=2 ** (1 + i % 8))
        assert bmo_sequence_norm(xi) == pytest.approx(oracles.bmo_sequence_brute(xi), rel=1e-13)


def test_bmo_sequence_monotone_under_extension():
    # Extending to a longer window only enlarges the interval family.
    xi = dyadic_rationals(99, 64)
    for m in (2, 4, 8, 16, 32):
        assert bmo_sequence_norm(xi[:m]) <= bmo_sequence_norm(xi[: 2 * m]) + 1e-10


def test_bmo_sequence_rejects_bad_input():
    with pytest.raises(DataError, match="power of two"):
        bmo_sequence_norm([1.0, 2.0, 3.0])
    with pytest.raises(DataError, match="power of two"):
        bmo_sequence_norm([])
    with pytest.raises(DataError, match="non-finite"):
        bmo_sequence_norm([np.nan, 1.0])
    with pytest.raises(DataError, match="1D"):
        bmo_sequence_norm(np.zeros((2, 2)))
    with pytest.raises(UsageError, match="power of two"):
        oracles.bmo_sequence_brute([1, 2, 3])


# --- BMO of the diagonal sums ----------------------------------------------


def test_bmo_of_diagonal_sums_constant():
    # Sequence (0, c, c, ...) at every point: sup is the two-point interval
    # {0, c}, giving |c| / 2.
    c = 3.0
    field = constant_field(3, c)
    out = bmo_of_diagonal_sums(field)
    brute = oracles.bmo_sequence_brute([0.0] + [c] * 7)
    assert brute == pytest.approx(c / 2)
    assert np.abs(out.samples - brute).max() <= 1e-12


def test_bmo_of_diagonal_sums_zero():
    field = constant_field(3, 0.0)
    assert np.abs(bmo_of_diagonal_sums(field).samples).max() == 0.0


def test_bmo_of_diagonal_sums_matches_per_point():
    f = random_grid_2d(4, seed=23)
    field = quadratic_sums(f)
    out = bmo_of_diagonal_sums(field)
    for ix, iy in ((0, 0), (3, 9), (15, 4), (8, 8)):
        seq = field.sequence_at(ix, iy)[:16]
        assert out.samples[ix, iy] == pytest.approx(bmo_sequence_norm(seq), abs=1e-10)


@pytest.mark.parametrize("bits", range(1, 7))
def test_bmo_of_diagonal_sums_matches_brute_everywhere(bits):
    f = random_grid_2d(bits, seed=25 + bits)
    field = quadratic_sums(f)
    out = bmo_of_diagonal_sums(field).samples
    cube = oracles.materialize(field)[: f.size]
    brute = [[oracles.bmo_sequence_brute(cube[:, ix, iy]) for iy in range(f.size)]
             for ix in range(f.size)]
    np.testing.assert_allclose(out, brute, rtol=1e-12, atol=0)


@pytest.mark.parametrize("exponent", [600, -600])
def test_bmo_of_diagonal_sums_huge_and_tiny_amplitudes_exact(exponent):
    # the squares of 2^600 overflow and those of 2^-600 underflow; a power of
    # two scales every step exactly, so the field must scale bit for bit
    f = random_grid_2d(4, seed=26)
    base = bmo_of_diagonal_sums(quadratic_sums(f)).samples
    scaled = DyadicGrid2D(4, np.ldexp(f.samples, exponent))
    out = bmo_of_diagonal_sums(quadratic_sums(scaled)).samples
    assert np.array_equal(out, np.ldexp(base, exponent))


def test_bmo_of_diagonal_sums_scale_equivariant():
    # Diagonal sums are linear in f, so the pointwise BMO field scales with |c|.
    f = random_grid_2d(4, seed=27)
    base = bmo_of_diagonal_sums(quadratic_sums(f)).samples
    for c in (-3.0, 0.5):
        scaled = DyadicGrid2D(4, c * f.samples)
        out = bmo_of_diagonal_sums(quadratic_sums(scaled)).samples
        assert np.abs(out - abs(c) * base).max() <= 1e-12 * max(1.0, abs(c))


@pytest.mark.parametrize("spec", ["spike:level=2,target=10@B=5", "random-step:level=3,dim=2@B=5", "random"])
def test_bmo_of_diagonal_sums_streaming_agrees(spec):
    # each point's sequence is reduced on its own, so reducing one sequence
    # per level-l cell equals reducing every streamed point's
    f = random_grid_2d(5, seed=24) if spec == "random" else generate_function(spec, 24)
    field = quadratic_sums(f)
    k = len(field.row_profiles)
    rows = np.concatenate([_max_mean_square_oscillation(block[..., :k], block[..., k], field.size)
                           .reshape(len(block), field.size) for _, block in field.iter_sequence_blocks()])
    assert np.array_equal(bmo_of_diagonal_sums(field).samples, np.sqrt(rows))


@pytest.mark.parametrize("bits", range(1, 6))
@pytest.mark.parametrize("kind", SPEC_KINDS)
def test_bmo_of_every_kind_matches_brute_on_per_n_synthesis(kind, bits):
    # the oracle cube is synthesized order by order, never read from the stream
    f = band_limited(kind, bits)
    out = bmo_of_diagonal_sums(quadratic_sums(f)).samples
    cube = oracles.diagonal_sums_brute(f)[: f.size]
    brute = np.array([[oracles.bmo_sequence_brute(cube[:, ix, iy]) for iy in range(f.size)]
                      for ix in range(f.size)])
    assert np.abs(out - brute).max() <= 1e-12 * max(1.0, brute.max())


@pytest.mark.parametrize("bits", range(1, 8))
@pytest.mark.parametrize("kind", ["spike", "random-step", "walsh-tensor", "indicator-rect",
                                  "zero", "random"])
def test_bmo_stopped_at_the_support_equals_all_orders(kind, bits):
    field = quadratic_sums(band_limited(kind, bits))
    full = oracles.bmo_of_all_diagonal_orders(field)
    assert np.array_equal(bmo_of_diagonal_sums(field).samples, full)


def test_bmo_of_diagonal_sums_stays_on_the_cells():
    # one (4, 2^10 + 1) slab and the 4 x 4 results, about 70 KB: a single
    # N x N array at B = 10 is 8 MiB
    f = generate_function("spike:level=2,target=10@B=10")
    field = quadratic_sums(f)
    assert traced_peak_ratio(lambda _: bmo_of_diagonal_sums(field), f) * f.samples.nbytes < 1 << 20


def _streamed_rows(field):
    """(x, its (N, N + 1) sequences) for each x-row of the field's stream, in
    stream order: block[xi, j, yi] is the point (x, j c + yi), c its rows."""
    for sl, block in field.iter_sequence_blocks():
        yield from zip(range(sl.start, sl.stop), block.reshape(len(block), field.size, -1), strict=True)


@pytest.mark.parametrize("bits", range(1, 8))
@pytest.mark.parametrize("kind", ["spike", "random-step", "walsh-tensor", "indicator-rect",
                                  "random-spectrum", "zero", "random"])
def test_k_row_field_equals_the_full_table_field(kind, bits):
    # (K, 2^l) profiles on the level-l cells from the K x K band against
    # (N, N) tables, band N, whose rows from K on are exact zeros: every
    # read agrees bit for bit
    f = band_limited(kind, bits)
    field, full = quadratic_sums(f), oracles.full_profile_field(f)
    n, k = f.size, len(field.row_profiles)
    assert len(full.row_profiles) == len(full.col_profiles) == n
    assert k == {"zero": 1, "random": n}.get(kind, k) and k & (k - 1) == 0
    assert field.row_profiles.shape == field.col_profiles.shape == (k, max(2, k))
    assert not full.row_profiles[k:].any() and not full.col_profiles[k:].any()
    # each point's sequence against the full-table field's materialized cube
    sequences = [[field.sequence_at(ix, iy) for iy in range(n)] for ix in range(n)]
    assert np.array_equal(np.moveaxis(sequences, -1, 0), oracles.materialize(full))
    assert np.array_equal(oracles.materialize(field), oracles.materialize(full))
    # the K-row field streams a block per x-cell, the full tables one per row
    pairs = zip(_streamed_rows(field), _streamed_rows(full), strict=True)
    for x, ((ix, row), (full_ix, full_row)) in enumerate(pairs):
        assert ix == full_ix == x and np.array_equal(row.view(np.int64), full_row.view(np.int64))
    assert np.array_equal(bmo_of_diagonal_sums(field).samples, bmo_of_diagonal_sums(full).samples)


def _band(f):
    field = quadratic_sums(f)
    assert len(field.row_profiles) == len(field.col_profiles)
    return len(field.row_profiles)


def test_diagonal_field_band_is_the_dyadic_level():
    # K = 2^L, L the coarsest level on whose cells f is constant, whatever
    # the last nonzero order: w_9 ends at order 10 but lives on level-4 cells
    assert _band(band_limited("spike", 5)) == 4
    assert _band(band_limited("zero", 5)) == 1
    assert _band(band_limited("random", 5)) == 32
    assert _band(generate_function("walsh-tensor:2,9@B=5")) == 16
    for level in range(6):
        assert _band(generate_function(f"random-step:level={level},dim=2@B=5", level)) == 1 << level
    assert _band(generate_function("random-spectrum:support=3,dim=2@B=5", 1)) == 4
    assert _band(generate_function("random-spectrum:support=5,dim=2@B=7")) == 8
    # constant on level-(1, 5) cells at B = 6: the (2, 32) band padded to 32 x 32
    cells = random_grid_2d(5, seed=62).samples[:2]
    assert _band(DyadicGrid2D(6, np.repeat(np.repeat(cells, 32, 0), 2, 1))) == 32


# --- means ------------------------------------------------------------------


def test_phi_mean_spectrum_resolved_decay():
    # All coefficients below index 2: only the n=1 summand deviates, so the
    # mean is exactly C/m beyond the support.
    f = random_grid_2d(4, seed=41)
    g = DyadicGrid2D(4, oracles.materialize(quadratic_sums(f))[2])  # S_22 f: support below 2
    field = quadratic_sums(g)
    phi = PhiFunction.exp_minus_one(1.0)
    s11 = oracles.materialize(field)[1]
    c_grid = np.expm1(np.abs(s11 - g.samples))
    for m in (2, 4, 8, 16):
        out = [[phi_mean_sequence(field.sequence_at(ix, iy), g.samples[ix, iy], m, phi)
                for iy in range(g.size)] for ix in range(g.size)]
        assert np.abs(np.array(out) - c_grid / m).max() <= 1e-12


def test_phi_mean_sequence_matches_grid():
    f = random_grid_2d(3, seed=44)
    field = quadratic_sums(f)
    phi = PhiFunction.exp_minus_one(2.0)
    # the mean over n = 1..5 of the materialized S_nn at every grid point
    grid = np.expm1(2.0 * np.abs(oracles.materialize(field)[1:6] - f.samples)).mean(axis=0)
    seq = field.sequence_at(2, 6)
    assert phi_mean_sequence(seq, f.samples[2, 6], 5, phi) == pytest.approx(
        grid[2, 6], rel=1e-13
    )


def test_phi_validation():
    with pytest.raises(UsageError):
        PhiFunction.power(-1.0)
    with pytest.raises(UsageError):
        PhiFunction.exp_minus_one(0.0)


# --- entropy functional -----------------------------------------------------


def test_entropy_examples():
    ones = DyadicGrid2D(2, np.ones((4, 4)))
    assert entropy_functional(ones, 1.0) == 0.0
    assert entropy_functional(ones, 0.0) == 1.0
    e_grid = DyadicGrid2D(2, np.full((4, 4), math.e))
    assert entropy_functional(e_grid, 1.0) == pytest.approx(math.e, rel=1e-14)
    two_on_quadrant = np.zeros((8, 8))
    two_on_quadrant[:4, :4] = 2.0
    f = DyadicGrid2D(3, two_on_quadrant)
    for alpha in (0.0, 1.0, 2.0):
        expected = 2.0 * math.log(2.0) ** alpha / 4.0
        assert entropy_functional(f, alpha) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(UsageError):
        entropy_functional(ones, -1.0)


@pytest.mark.parametrize("shift", [600, -600, 1023])
def test_l1_gauge_is_exactly_homogeneous_at_extreme_amplitudes(shift):
    # at 2^1023 the sum of the samples overflows although their mean fits
    for f in (random_grid_1d(8, seed=3), random_grid_2d(5, seed=4)):
        scaled = type(f)(f.bits, np.ldexp(f.samples, shift))
        assert entropy_functional(scaled, 0) == np.ldexp(entropy_functional(f, 0), shift)


def test_entropy_terms_beyond_float64_raise_data_error():
    f = DyadicGrid1D(2, np.array([1e308, -1e308, 2.0, 0.5]))
    assert entropy_functional(f, 0) == pytest.approx(0.5e308, rel=1e-15)
    with pytest.raises(DataError, match="alpha=1"):
        entropy_functional(f, 1)


def _entropy_full_grid(f, alpha):
    # the gauge as one full-grid expression per step, with no in-place work
    a = np.abs(f.samples)
    with np.errstate(over="ignore"):
        terms = a * np.log(np.maximum(a, 1.0)) ** alpha if alpha else a
    exponent, (scaled,) = _pow2_scaled(terms)
    return float(np.ldexp(scaled.mean(), exponent))


@pytest.mark.parametrize("alpha", [0, 0.5, 1, 2, 3])
@pytest.mark.parametrize("kind", ["below-one", "above-one", "mixed", "huge", "tiny"])
def test_entropy_is_bit_identical_to_the_full_grid_expression(kind, alpha):
    u = random_grid_2d(5, seed=17).samples  # uniform in (-1, 1)
    samples = {"below-one": u, "above-one": np.copysign(1.0 + 3.0 * np.abs(u), u), "mixed": 4.0 * u,
               "huge": 1e200 * u, "tiny": 1e-200 * u}[kind]
    f = DyadicGrid2D(5, samples)
    before = f.samples.copy()
    assert entropy_functional(f, alpha) == _entropy_full_grid(f, alpha)
    with mock.patch.object(means, "BLOCK_BYTES", f.samples.nbytes // 8):  # log+ in eight pieces
        assert entropy_functional(f, alpha) == _entropy_full_grid(f, alpha)
    # below one the scaling exponent is 0, and `_pow2_scaled` hands back the array itself
    assert (np.frexp(np.abs(u).max())[1] == 0) and np.array_equal(f.samples, before)


@pytest.mark.parametrize("alpha", [0, 0.5, 1, 2])
def test_entropy_matches_the_fsum_oracle(alpha):
    f = random_grid_2d(5, seed=19, amp=4.0)
    assert entropy_functional(f, alpha) == pytest.approx(oracles.entropy_brute(f, alpha), rel=1e-12)


@pytest.mark.parametrize("alpha", [0, 1, 2])
def test_entropy_holds_one_working_copy_beside_the_log(alpha):
    # amp=4: the scaling exponent is nonzero and log+ is live on 3/4 of the grid
    f = random_grid_2d(9, seed=20, amp=4.0)
    assert traced_peak_ratio(lambda g: entropy_functional(g, alpha), f) <= 2.25


@pytest.mark.parametrize("alpha", [1, 2])
def test_entropy_holds_the_copy_and_one_log_block(alpha):
    # a B=10 grid is four blocks: log+ is formed one block at a time (1.25 grids)
    f = random_grid_2d(10, seed=20, amp=4.0)
    assert traced_peak_ratio(lambda g: entropy_functional(g, alpha), f) <= 1.3
