import tracemalloc

import numpy as np
import pytest

from wss.generators import generate_function, portable_uniforms, random_grid_2d
from wss.transform import DyadicGrid2D


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


SPEC_KINDS = ("spike", "random-step", "walsh-tensor", "indicator-rect", "random-spectrum")


def band_limited(kind, bits):
    """A 2D grid at 2^bits of a spec kind, most on cells coarser than the
    grid, or "zero", or "random" (full resolution: band K = N)."""
    n = 1 << bits
    specs = {
        "spike": f"spike:level={min(bits, 2)},target=10@B={bits}",
        "random-step": f"random-step:level={bits - 1},dim=2@B={bits}",
        "walsh-tensor": f"walsh-tensor:1,{max(n // 2 - 1, 0)}@B={bits}",
        "indicator-rect": f"indicator-rect:0.5,1,0,0.5@B={bits}",
        "random-spectrum": f"random-spectrum:support={min(n, 3)},dim=2@B={bits}",
    }
    if kind == "zero":
        return DyadicGrid2D(bits, np.zeros((n, n)))
    if kind == "random":
        return random_grid_2d(bits, seed=60 + bits)
    return generate_function(specs[kind], 60 + bits)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
