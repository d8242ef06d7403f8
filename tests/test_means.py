import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dyadic_rationals
from wss import oracles
from wss.dyadic import walsh_row
from wss.errors import DataError, UsageError
from wss.generators import random_grid_1d, random_grid_2d
from wss.means import (
    IndexInterval,
    _max_mean_square_oscillation,
    PhiFunction,
    SummandSequence,
    bmo_function_norm,
    bmo_of_diagonal_sums,
    bmo_sequence_norm,
    bmo_sequence_norm_function_form,
    entropy_functional,
    integer_dyadic_intervals,
    log_phi_mean,
    marcinkiewicz_mean,
    phi_mean,
    phi_mean_sequence,
    strong_mean,
)
from wss.sums import quadratic_sums
from wss.transform import DyadicGrid1D, DyadicGrid2D


def constant_field(bits, c):
    return quadratic_sums(DyadicGrid2D(bits, np.full((1 << bits, 1 << bits), float(c))))


# --- sequence BMO -----------------------------------------------------------


def test_index_interval_family():
    family = list(integer_dyadic_intervals(8))
    assert len(family) == 8 + 4 + 2 + 1
    assert IndexInterval(1, 2) in family
    assert family[0].start == 0 and len(family[0]) == 1
    with pytest.raises(UsageError):
        list(integer_dyadic_intervals(6))


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
    with pytest.raises(DataError):
        bmo_sequence_norm([1.0, 2.0, 3.0])
    with pytest.raises(DataError):
        SummandSequence(np.array([np.nan, 1.0]))


def test_bmo_function_form_vs_interval_form():
    # The function-norm display carries the |integral| term the interval
    # display omits; report the observed ratio and pin the bracketing.
    ratios = []
    for seed in range(12):
        xi = dyadic_rationals(seed, 32)
        interval_form = bmo_sequence_norm(xi)
        function_form = bmo_sequence_norm_function_form(xi)
        prefix_means = [abs(xi[: 1 << n].mean()) for n in range(6)]
        assert function_form >= interval_form - 1e-12
        assert function_form <= interval_form + max(prefix_means) + 1e-12
        if function_form > 0:
            ratios.append(interval_form / function_form)
    print(f"interval-form / function-form BMO ratio range: "
          f"[{min(ratios):.4f}, {max(ratios):.4f}]")


# --- function BMO -----------------------------------------------------------


def test_bmo_function_examples():
    assert bmo_function_norm(DyadicGrid1D(3, np.full(8, -1.5))) == 1.5
    r0 = DyadicGrid1D(4, walsh_row(1, 4).astype(float))
    assert bmo_function_norm(r0) == 1.0
    assert bmo_function_norm(DyadicGrid1D(3, np.zeros(8))) == 0.0


def test_bmo_function_matches_brute():
    for seed in (3, 4, 5):
        f = DyadicGrid1D(5, dyadic_rationals(seed, 32))
        assert bmo_function_norm(f) == pytest.approx(oracles.bmo_function_brute(f), abs=1e-12)


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


def test_bmo_of_diagonal_sums_streaming_agrees():
    # each point's sequence is reduced on its own, so the blocking cannot matter
    field = quadratic_sums(random_grid_2d(4, seed=24))
    base = bmo_of_diagonal_sums(field).samples
    for max_rows in (1, 3, 5):
        assert np.array_equal(bmo_of_diagonal_sums(field, max_rows=max_rows).samples, base)


# --- means ------------------------------------------------------------------


def test_marcinkiewicz_mean_constant():
    c = -2.0
    field = constant_field(3, c)
    for n in (1, 2, 5, 8):
        out = marcinkiewicz_mean(field, n)
        assert np.abs(out.samples - c * (n - 1) / n).max() <= 1e-13


def test_marcinkiewicz_mean_matches_brute_average():
    f = random_grid_2d(4, seed=31)
    field = quadratic_sums(f)
    cube = oracles.materialize(field)
    for n in (1, 3, 16):
        out = marcinkiewicz_mean(field, n)
        brute = cube[:n].mean(axis=0)
        assert np.abs(out.samples - brute).max() <= 1e-12
    with pytest.raises(UsageError):
        marcinkiewicz_mean(field, 0)


def test_strong_mean_deviation_constant():
    c = 1.5
    f = DyadicGrid2D(3, np.full((8, 8), c))
    field = quadratic_sums(f)
    for n, p in ((1, 1.0), (4, 2.0), (8, 0.5)):
        out = strong_mean(field, f, n, p, deviation=True)
        expected = (1.0 / n) ** (1.0 / p) * c
        assert np.abs(out.samples - expected).max() <= 1e-12


def test_strong_mean_tensor_example():
    bits = 3
    w1 = walsh_row(1, bits).astype(float)
    f = DyadicGrid2D(bits, np.outer(w1, w1))
    field = quadratic_sums(f)
    out = strong_mean(field, f, 2, 2.0, deviation=True)
    assert np.abs(out.samples - np.abs(f.samples)).max() <= 1e-12


def test_strong_mean_zero_and_errors():
    field = constant_field(3, 0.0)
    zero = DyadicGrid2D(3, np.zeros((8, 8)))
    for n, p in ((1, 0.5), (4, 2.0)):
        assert np.abs(strong_mean(field, zero, n, p).samples).max() == 0.0
    with pytest.raises(UsageError):
        strong_mean(field, zero, 2, 0.0)


def test_phi_mean_trivial_and_windows():
    field = constant_field(3, 0.0)
    zero = DyadicGrid2D(3, np.zeros((8, 8)))
    phi = PhiFunction.exp_minus_one(1.0)
    assert np.abs(phi_mean(field, zero, 4, phi).samples).max() == 0.0
    with pytest.raises(UsageError):
        phi_mean(field, zero, 4, phi, window="C")


def test_phi_mean_spectrum_resolved_decay():
    # All coefficients below index 2: only the n=1 summand deviates, so the
    # mean is exactly C/m beyond the support.
    f = random_grid_2d(4, seed=41)
    low = oracles.materialize(quadratic_sums(f))[2]  # S_22 has support below 2... use as input
    g = DyadicGrid2D(4, low)
    field = quadratic_sums(g)
    phi = PhiFunction.exp_minus_one(1.0)
    s11 = oracles.materialize(field)[1]
    c_grid = np.expm1(np.abs(s11 - g.samples))
    for m in (2, 4, 8, 16):
        out = phi_mean(field, g, m, phi)
        assert np.abs(out.samples - c_grid / m).max() <= 1e-12


def test_phi_mean_power_matches_strong_mean():
    f = random_grid_2d(4, seed=43)
    field = quadratic_sums(f)
    p = 2.0
    for m in (3, 8):
        lhs = phi_mean(field, f, m, PhiFunction.power(p), window="A")
        rhs = strong_mean(field, f, m, p, deviation=True, window="A")
        assert np.abs(lhs.samples - rhs.samples**p).max() <= 1e-12


def test_phi_mean_sequence_matches_grid():
    f = random_grid_2d(3, seed=44)
    field = quadratic_sums(f)
    phi = PhiFunction.exp_minus_one(2.0)
    grid = phi_mean(field, f, 5, phi)
    seq = field.sequence_at(2, 6)
    assert phi_mean_sequence(seq, f.samples[2, 6], 5, phi) == pytest.approx(
        grid.samples[2, 6], rel=1e-13
    )


def test_log_phi_mean_handles_overflow():
    bits = 3
    huge = DyadicGrid2D(bits, np.zeros((8, 8)))
    spike = DyadicGrid2D(bits, np.full((8, 8), 900.0))
    field = quadratic_sums(spike)  # S_00 = 0 -> deviation 900 at n features
    phi = PhiFunction.exp_minus_one(1.0)
    with pytest.raises(DataError):
        phi_mean(field, huge, 2, phi)
    logs = log_phi_mean(field, huge, 2, phi)
    assert np.isfinite(logs).all()
    # Both window summands deviate by 900, so the log-mean is 900 exactly.
    assert logs[0, 0] == pytest.approx(900.0, rel=1e-12)


def test_phi_validation():
    with pytest.raises(UsageError):
        PhiFunction.custom(lambda t: np.cos(t))  # fails Phi(0) = 0
    with pytest.raises(UsageError):
        PhiFunction.custom(lambda t: -t)
    phi = PhiFunction.custom(lambda t: t / (1 + t))
    assert phi(0.0) == 0.0
    with pytest.raises(UsageError):
        PhiFunction.power(-1.0)
    with pytest.raises(UsageError):
        PhiFunction.exp_minus_one(0.0)


def test_phi_log_value_consistency():
    phi = PhiFunction.exp_minus_one(1.5)
    t = np.array([0.1, 1.0, 10.0, 100.0])
    np.testing.assert_allclose(phi.log_value(t), np.log(phi(t)), rtol=1e-12)
    big = phi.log_value(np.array([1000.0]))
    assert big[0] == pytest.approx(1500.0)


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
