import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wss.dyadic import (
    DyadicInterval,
    DyadicPoint,
    bit_reverse_permutation,
    dirichlet_kernel,
    dyadic_add,
    paley_from_sequency,
    rademacher,
    sequency_from_paley,
    unit_point,
    walsh,
    walsh_matrix,
    walsh_row,
)
from wss.errors import UsageError


def test_dyadic_add_examples():
    p = DyadicPoint.from_float(0.25, 3)
    assert dyadic_add(p, p).idx == 0
    assert dyadic_add(DyadicPoint(3, 3), DyadicPoint(5, 3)).idx == 6
    x = DyadicPoint(5, 3)
    assert dyadic_add(x, DyadicPoint(0, 3)) == x


def test_dyadic_add_mismatched_bits():
    with pytest.raises(UsageError):
        dyadic_add(DyadicPoint(0, 3), DyadicPoint(0, 4))


def test_group_laws_exhaustive_small():
    # XOR is an abelian group of exponent 2; exhaustive at 6 bits.
    idx = np.arange(64)
    x, y = np.meshgrid(idx, idx, indexing="ij")
    assert np.array_equal(x ^ y, y ^ x)
    assert np.array_equal(x ^ x, np.zeros_like(x))
    z = idx[None, None, :]
    assert np.array_equal((x[..., None] ^ y[..., None]) ^ z, x[..., None] ^ (y[..., None] ^ z))


@settings(max_examples=200)
@given(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1))
def test_group_laws_random_12_bits(a, b, c):
    pa, pb, pc = (DyadicPoint(v, 12) for v in (a, b, c))
    assert dyadic_add(pa, pb) == dyadic_add(pb, pa)
    assert dyadic_add(pa, pa).idx == 0
    assert dyadic_add(dyadic_add(pa, pb), pc) == dyadic_add(pa, dyadic_add(pb, pc))


def test_rademacher_values():
    assert rademacher(0, DyadicPoint.from_float(0.3, 4)) == 1
    assert rademacher(0, DyadicPoint.from_float(0.5, 4)) == -1
    assert rademacher(1, DyadicPoint.from_float(0.25, 4)) == -1


def test_rademacher_out_of_range():
    with pytest.raises(UsageError):
        rademacher(4, DyadicPoint(0, 4))


def test_walsh_examples():
    for idx in range(8):
        assert walsh(0, DyadicPoint(idx, 3)) == 1
    assert walsh(3, DyadicPoint.from_float(0.25, 3)) == -1
    for idx in range(8):
        assert walsh(5, DyadicPoint(idx, 3)) ** 2 == 1
    with pytest.raises(UsageError):
        walsh(8, DyadicPoint(0, 3))


def test_walsh_products_of_rademachers():
    # w_k = prod of r_n over set bits n of k, exhaustive at 5 bits.
    for k in range(32):
        for idx in range(32):
            p = DyadicPoint(idx, 5)
            expected = 1
            for n in range(5):
                if k >> n & 1:
                    expected *= rademacher(n, p)
            assert walsh(k, p) == expected


def test_character_property_exhaustive():
    w = walsh_matrix(6)
    idx = np.arange(64)
    xy = idx[:, None] ^ idx[None, :]
    assert np.array_equal(w[:, xy], w[:, idx][:, :, None] * w[:, idx][:, None, :])


@pytest.mark.parametrize("bits", range(1, 11))
def test_walsh_matrix_is_symmetric(bits):
    # popcount(k & rev i) = popcount(i & rev k): the field reads rows for columns
    w = walsh_matrix(bits)
    assert np.array_equal(w, w.T)


def test_orthonormality_exhaustive():
    w = walsh_matrix(6).astype(np.int64)
    assert np.array_equal(w @ w.T, 64 * np.eye(64, dtype=np.int64))


def test_dirichlet_examples():
    for idx in range(8):
        assert dirichlet_kernel(1, DyadicPoint(idx, 3)) == 1
    assert dirichlet_kernel(4, DyadicPoint(0, 3)) == 4
    assert dirichlet_kernel(4, DyadicPoint.from_float(0.3, 3)) == 0
    assert dirichlet_kernel(3, DyadicPoint.from_float(0.5, 3)) == 1
    with pytest.raises(UsageError):
        dirichlet_kernel(9, DyadicPoint(0, 3))


def test_dirichlet_matches_brute_sum():
    bits = 5
    for n in range(1, 33):
        for idx in range(32):
            p = DyadicPoint(idx, bits)
            assert dirichlet_kernel(n, p) == sum(walsh(k, p) for k in range(n))


def test_dirichlet_power_of_two_identity():
    # D_{2^n} = 2^n on [0, 2^-n), 0 elsewhere.
    bits = 6
    for n in range(bits + 1):
        for idx in range(64):
            p = DyadicPoint(idx, bits)
            expected = (1 << n) if p.value < 2.0**-n else 0
            assert dirichlet_kernel(1 << n, p) == expected


def test_unit_point_convention():
    # e_j = 2^-(j+1); this pins the generator convention used by the V operators.
    assert unit_point(0, 3).idx == 4
    assert unit_point(2, 3).idx == 1
    e = unit_point(1, 5)
    assert e.value == 0.25
    assert dyadic_add(e, e).idx == 0
    with pytest.raises(UsageError):
        unit_point(3, 3)


def test_dyadic_interval():
    cell = DyadicInterval(2, 3)
    assert cell.measure == 0.25
    assert cell.left == 0.75
    assert cell.contains(DyadicPoint.from_float(0.8, 5))
    assert not cell.contains(DyadicPoint.from_float(0.5, 5))
    around = DyadicInterval.around(DyadicPoint.from_float(0.8, 5), 2)
    assert around == cell
    with pytest.raises(UsageError):
        DyadicInterval(2, 4)


def test_bit_reverse_permutation_involution():
    for bits in (1, 3, 6):
        perm = bit_reverse_permutation(bits)
        assert np.array_equal(perm[perm], np.arange(1 << bits))


def test_walsh_row_matches_pointwise():
    row = walsh_row(11, 5)
    assert np.array_equal(row, [walsh(11, DyadicPoint(i, 5)) for i in range(32)])


def test_sequency_permutation_counts_sign_changes():
    bits = 5
    for s in range(32):
        p = int(paley_from_sequency(s))
        row = walsh_row(p, bits)
        changes = int(np.sum(row[1:] != row[:-1]))
        assert changes == s
        assert int(sequency_from_paley(p, bits)) == s
