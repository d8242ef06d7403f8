"""Built-in oracle battery behind `wss selftest`.

Each check compares a fast path against its independent brute-force oracle
on small deterministic inputs and prints one PASS/FAIL line.
"""
from __future__ import annotations

import numpy as np

from . import oracles
from .dyadic import walsh_matrix
from .experiments import iter_rodin_means
from .generators import random_grid_1d, random_grid_2d
from .maximal import dyadic_maximal, schipp_v
from .means import PhiFunction, bmo_of_diagonal_sums, bmo_sequence_norm
from .sums import partial_sum_1d, quadratic_sums
from .transform import (
    inverse_wht_1d,
    inverse_wht_2d,
    naive_wht_1d,
    naive_wht_2d,
    wht_1d,
    wht_2d,
)


def _check_transform_1d() -> tuple[bool, str]:
    f = random_grid_1d(8, seed=101)
    gap = np.abs(wht_1d(f).samples - naive_wht_1d(f).samples).max()
    loop = np.abs(inverse_wht_1d(wht_1d(f)).samples - f.samples).max()
    return gap <= 1e-10 and loop <= 1e-12, f"fast-naive gap {gap:.3g}, round trip {loop:.3g}"


def _check_transform_2d() -> tuple[bool, str]:
    f = random_grid_2d(4, seed=202)
    gap = np.abs(wht_2d(f).samples - naive_wht_2d(f).samples).max()
    loop = np.abs(inverse_wht_2d(wht_2d(f)).samples - f.samples).max()
    return gap <= 1e-10 and loop <= 1e-12, f"fast-naive gap {gap:.3g}, round trip {loop:.3g}"


def _check_orthonormality() -> tuple[bool, str]:
    w = walsh_matrix(6).astype(np.int64)
    gram = w @ w.T
    ok = np.array_equal(gram, 64 * np.eye(64, dtype=np.int64))
    return ok, "exhaustive Gram matrix at 6 bits"


def _check_martingale() -> tuple[bool, str]:
    f = random_grid_1d(7, seed=303)
    worst = 0.0
    for level in range(8):
        s = partial_sum_1d(f, 1 << level).samples
        worst = max(worst, float(np.abs(s - oracles.cell_averages_1d(f, level)).max()))
    return worst <= 1e-12, f"cell-average gap {worst:.3g}"


def _check_quadratic_sums() -> tuple[bool, str]:
    f = random_grid_2d(4, seed=404)
    fast = oracles.materialize(quadratic_sums(f))
    brute = oracles.diagonal_sums_brute(f)
    gap = float(np.abs(fast - brute).max())
    return gap <= 1e-10, f"incremental vs per-n synthesis gap {gap:.3g}"


def _check_bmo() -> tuple[bool, str]:
    rng = np.random.PCG64(505)
    raw = rng.random_raw(64)
    xi = ((raw >> np.uint64(52)).astype(np.int64) - 2048) / 64.0  # dyadic rationals
    fast = bmo_sequence_norm(xi)
    brute = oracles.bmo_sequence_brute(xi)
    return fast == brute, f"fast {fast!r} vs brute {brute!r}"


def _check_bmo_diagonal() -> tuple[bool, str]:
    f = random_grid_2d(4, seed=808)
    field = quadratic_sums(f)
    fast = bmo_of_diagonal_sums(field).samples
    cube = oracles.materialize(field)[: f.size]
    brute = np.array([[oracles.bmo_sequence_brute(cube[:, ix, iy]) for iy in range(f.size)]
                      for ix in range(f.size)])
    gap = float(np.abs(fast - brute).max() / brute.max())
    return gap <= 1e-12, f"pyramid vs interval enumeration, relative gap {gap:.3g}"


def _check_schipp_v() -> tuple[bool, str]:
    f = random_grid_1d(5, seed=606)
    gap = float(np.abs(schipp_v(f, 3).samples - oracles.schipp_v_brute(f, 3)).max())
    return gap <= 1e-12, f"shell-sum vs direct t-sum gap {gap:.3g}"


def _check_dyadic_maximal() -> tuple[bool, str]:
    f = random_grid_2d(3, seed=707)
    gap = float(np.abs(dyadic_maximal(f).samples - oracles.dyadic_maximal_brute(f)).max())
    return gap <= 1e-12, f"pyramid vs block-scan gap {gap:.3g}"


def _check_rodin_stream() -> tuple[bool, str]:
    f, phi, ms = random_grid_1d(10, seed=909), PhiFunction.exp_minus_one(1.0), range(1, 1025)
    fast = np.array([means for _, means in iter_rodin_means(f, phi, ms)])  # 4 blocks at B = 10
    brute = oracles.rodin_means_brute(f, phi, ms)
    gap = float(np.abs(fast - brute).max() / brute.max())
    return gap <= 1e-12, f"Paley-block stream vs partial-sum table, relative gap {gap:.3g}"


CHECKS = [
    ("transform-1d", _check_transform_1d),
    ("transform-2d", _check_transform_2d),
    ("orthonormality", _check_orthonormality),
    ("martingale", _check_martingale),
    ("quadratic-sums", _check_quadratic_sums),
    ("bmo-sequence", _check_bmo),
    ("bmo-diagonal", _check_bmo_diagonal),
    ("schipp-v", _check_schipp_v),
    ("dyadic-maximal", _check_dyadic_maximal),
    ("rodin-stream", _check_rodin_stream),
]


def run_selftest(out=print) -> int:
    """Run every oracle check; returns 0 when all pass."""
    failures = 0
    for name, check in CHECKS:
        ok, detail = check()
        out(f"selftest {name}: {'PASS' if ok else 'FAIL'} ({detail})")
        failures += not ok
    return 1 if failures else 0
