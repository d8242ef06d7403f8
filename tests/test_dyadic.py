import tracemalloc

import numpy as np
import pytest

from wss.dyadic import DyadicPoint, bit_reverse_int, bit_reverse_permutation, walsh, walsh_matrix, walsh_row
from wss.errors import UsageError


def test_group_laws_exhaustive_small():
    # XOR is an abelian group of exponent 2; exhaustive at 6 bits.
    idx = np.arange(64)
    x, y = np.meshgrid(idx, idx, indexing="ij")
    assert np.array_equal(x ^ y, y ^ x)
    assert np.array_equal(x ^ x, np.zeros_like(x))
    z = idx[None, None, :]
    assert np.array_equal((x[..., None] ^ y[..., None]) ^ z, x[..., None] ^ (y[..., None] ^ z))


def test_walsh_examples():
    for idx in range(8):
        assert walsh(0, DyadicPoint(idx, 3)) == 1
    assert walsh(3, DyadicPoint(2, 3)) == -1  # x = 1/4
    for idx in range(8):
        assert walsh(5, DyadicPoint(idx, 3)) ** 2 == 1
    with pytest.raises(UsageError):
        walsh(8, DyadicPoint(0, 3))


def test_walsh_products_of_rademachers():
    # w_k = prod of r_n over set bits n of k, exhaustive at 5 bits, where
    # r_n(x) = 1 - 2 x_n reads digit x_n, bit (4 - n) of the index
    for k in range(32):
        for idx in range(32):
            p = DyadicPoint(idx, 5)
            expected = 1
            for n in range(5):
                if k >> n & 1:
                    expected *= 1 - 2 * (idx >> (4 - n) & 1)
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


def test_bit_reverse_permutation_involution():
    for bits in (1, 3, 6):
        perm = bit_reverse_permutation(bits)
        assert np.array_equal(perm[perm], np.arange(1 << bits))
    # the table is bit_reverse_int's one loop run on an int64 array
    for bits in range(14):
        perm = bit_reverse_permutation(bits)
        assert perm.dtype == np.int64 and not perm.flags.writeable
        assert np.array_equal(bit_reverse_int(np.arange(1 << bits, dtype=np.int64), bits), perm)
    for i, bits in [(0, 0), (1, 1), (6, 3), (0b1011, 4), (12345, 14)]:
        rev = bit_reverse_int(i, bits)
        assert type(rev) is int and rev == int(format(i, f"0{bits}b")[::-1], 2)


def test_walsh_row_matches_pointwise():
    row = walsh_row(11, 5)
    assert np.array_equal(row, [walsh(11, DyadicPoint(i, 5)) for i in range(32)])


@pytest.mark.parametrize("bits", range(1, 11))
def test_walsh_matrix_matches_the_int64_parity_table_and_pointwise(bits):
    n = 1 << bits
    rev = bit_reverse_permutation(bits)
    ks = np.arange(n, dtype=np.int64)
    old = (1 - 2 * (np.bitwise_count(ks[:, None] & rev[None, :]) & 1)).astype(np.int8)
    w = walsh_matrix(bits)
    assert w.dtype == np.int8 and not w.flags.writeable and np.array_equal(w, old)
    rows = range(n) if bits <= 6 else sorted({0, 1, 3, n // 2, n // 2 + 1, n - 2, n - 1, 0x155 % n})
    for k in rows:
        assert w[k].tolist() == [walsh(k, DyadicPoint(i, bits)) for i in range(n)], k


def test_a_cold_walsh_matrix_builds_no_wide_parity_table():
    # the uint16 route: about 27 KB for the 4 KB matrix at bits 6, where an
    # int64 parity table took about 101 KB
    walsh_matrix.cache_clear()
    bit_reverse_permutation.cache_clear()
    tracemalloc.start()
    try:
        walsh_matrix(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40_000, peak
