import contextlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from wss import sums
from wss.generators import portable_uniforms


def dyadic_rationals(seed: int, count: int, scale_bits: int = 6, value_bits: int = 12) -> np.ndarray:
    """Random values m / 2**scale_bits with |m| < 2**value_bits.

    Sums, means over power-of-two blocks, squares and their differences of
    such values are all exact in float64, so independently coded reductions
    must agree bitwise.
    """
    u = portable_uniforms(seed, count)
    m = np.floor(u * (1 << (value_bits + 1))) - (1 << value_bits)
    return m / float(1 << scale_bits)


def traced_peak_ratio(fn, grid) -> float:
    """tracemalloc peak while fn(grid) runs, as a multiple of the grid's bytes."""
    tracemalloc.start()
    try:
        fn(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / grid.samples.nbytes


def block_rows(field, rows):
    """Patch `wss.sums.BLOCK_BYTES` so that the field's sequence blocks hold
    `rows` x-rows (None: leave the default budget)."""
    if rows is None:
        return contextlib.nullcontext()
    n = field.size
    return mock.patch.object(sums, "BLOCK_BYTES", rows * 8 * n * (n + 1))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
