"""Built-in oracle battery behind `wss selftest`.

Each check compares a fast path against its independent brute-force oracle
on small deterministic inputs and prints one PASS/FAIL line.
"""
from __future__ import annotations

import numpy as np

from . import maximal, oracles
from .dyadic import walsh_matrix
from .experiments import iter_rodin_means
from .generators import generate_function, pcg64_raw, random_grid_1d, random_grid_2d
from .maximal import dyadic_maximal, hybrid_maximal_1, hybrid_maximal_2
from .means import PhiFunction, bmo_of_diagonal_sums, bmo_sequence_norm, entropy_functional
from .sums import dyadic_square_sums, partial_sum_1d, quadratic_sums
from .transform import DyadicGrid2D, _synthesis, naive_wht_1d, naive_wht_2d, wht_1d, wht_2d


def _check_transform_1d() -> tuple[bool, str]:
    f = random_grid_1d(8, seed=101)
    gap = np.abs(wht_1d(f).samples - naive_wht_1d(f).samples).max()
    loop = np.abs(_synthesis(wht_1d(f).samples, f.bits, (f.size,)) - f.samples).max()
    return gap <= 1e-10 and loop <= 1e-12, f"fast-naive gap {gap:.3g}, round trip {loop:.3g}"


def _check_transform_2d() -> tuple[bool, str]:
    f = random_grid_2d(4, seed=202)
    gap = np.abs(wht_2d(f).samples - naive_wht_2d(f).samples).max()
    loop = np.abs(_synthesis(wht_2d(f).samples, f.bits, (f.size,) * 2) - f.samples).max()
    return gap <= 1e-10 and loop <= 1e-12, f"fast-naive gap {gap:.3g}, round trip {loop:.3g}"


def _check_transform_resolution() -> tuple[bool, str]:
    f = generate_function("random-step:level=3,dim=2@B=7")  # spectrum inside [0, 8)^2
    c = wht_2d(f).samples
    gap = np.abs(c - naive_wht_2d(f).samples).max()
    outside = np.count_nonzero(c) - np.count_nonzero(c[:8, :8])
    loop = np.abs(_synthesis(wht_2d(f).samples, f.bits, (f.size,) * 2) - f.samples).max()
    ok = gap <= 1e-10 and outside == 0 and loop <= 1e-12
    return ok, f"fast-naive gap {gap:.3g}, {outside} nonzero outside [0, 8)^2, round trip {loop:.3g}"


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
    gap = 0.0  # K = N streams one x-row per block; the level-2 spike 4 x-cells of 8 rows
    for f in (random_grid_2d(4, seed=404), generate_function("spike:level=2,target=10@B=5")):
        fast = oracles.materialize(quadratic_sums(f))
        gap = max(gap, float(np.abs(fast - oracles.diagonal_sums_brute(f)).max()))
    return gap <= 1e-10, f"incremental vs per-n Walsh-matrix synthesis gap {gap:.3g}, level-2 spike included"


def _check_bmo() -> tuple[bool, str]:
    raw = pcg64_raw(505, 64)
    xi = ((raw >> np.uint64(52)).astype(np.int64) - 2048) / 64.0  # dyadic rationals
    fast = bmo_sequence_norm(xi)
    brute = oracles.bmo_sequence_brute(xi)
    return fast == brute, f"fast {fast!r} vs brute {brute!r}"


def _check_bmo_diagonal() -> tuple[bool, str]:
    gap = 0.0
    for f in (random_grid_2d(4, seed=808), generate_function("random-step:level=2,dim=2@B=4", 808)):
        fast = bmo_of_diagonal_sums(quadratic_sums(f)).samples
        cube = oracles.diagonal_sums_brute(f)[: f.size]  # per-n Walsh-matrix synthesis, not the stream
        brute = np.array([[oracles.bmo_sequence_brute(cube[:, ix, iy]) for iy in range(f.size)]
                          for ix in range(f.size)])
        gap = max(gap, float(np.abs(fast - brute).max() / brute.max()))
    return gap <= 1e-12, f"pyramid vs interval enumeration, level-2 step included, relative gap {gap:.3g}"


def _check_bmo_band() -> tuple[bool, str]:
    field = quadratic_sums(generate_function("spike:level=2,target=10@B=7"))
    stopped = bmo_of_diagonal_sums(field).samples
    gap = float(np.abs(stopped - oracles.bmo_of_all_diagonal_orders(field)).max())
    return gap == 0.0, f"stopped at band {len(field.row_profiles)} vs all 128 orders, gap {gap:.3g}"


def _check_bmo_cells() -> tuple[bool, str]:
    equal = 0  # the K = N route streams one x-row per cell of the 128 x 128 grid
    for spec in ("spike:level=2,target=10", "random-step:level=3,dim=2", "random-spectrum:support=5,dim=2",
                 "indicator-rect:0,0.5,0.25,0.75"):
        f = generate_function(f"{spec}@B=7")
        field, full = quadratic_sums(f), oracles.full_profile_field(f)
        fast = bmo_of_diagonal_sums(field)
        equal += (len(fast.cells) <= field.row_profiles.shape[1]  # 2^l = max(2, K)
                  and np.array_equal(fast.samples.view(np.int64), bmo_of_diagonal_sums(full).samples.view(np.int64))
                  and np.array_equal(oracles.materialize(field), oracles.materialize(full)))
    return equal == 4, f"band-K profiles vs 128-row tables: {equal} of 4 equal, BMO int64-equal on the 2^l cells"


def _check_schipp_v() -> tuple[bool, str]:
    step = generate_function("random-step:level=3,dim=1@B=7", 606)  # orders past its level
    cases = [(random_grid_1d(5, seed=606), 3), (step, 3), (step, 6)]
    gap = max(float(np.abs(type(f).from_cells(f.bits, maximal._schipp_v_values(f.cells, (n,))).samples
                           - oracles.schipp_v_brute(f, n)).max()) for f, n in cases)
    return gap <= 1e-12, f"shell-sum vs direct t-sum gap {gap:.3g}, level-3 step at orders 3 and 6 included"


def _check_dyadic_maximal() -> tuple[bool, str]:
    f = random_grid_2d(3, seed=707)
    gap = float(np.abs(dyadic_maximal(f).samples - oracles.dyadic_maximal_brute(f)).max())
    return gap <= 1e-12, f"pyramid vs block-scan gap {gap:.3g}"


def _check_grid_cells() -> tuple[bool, str]:
    f = generate_function("random-step:level=3,dim=2,amp=4@B=8")  # log+ is live
    fine = DyadicGrid2D(f.bits, f.samples)  # coarsens its 256 x 256 samples at construction
    gap = max(float(np.abs(op(f).samples - maximal._dyadic_maximal(f.samples, axes)).max())
              for op, axes in ((dyadic_maximal, (0, 1)), (hybrid_maximal_1, (0,)), (hybrid_maximal_2, (1,))))
    gauge = abs(entropy_functional(f, 1) - entropy_functional(fine, 1))
    return gap == 0.0 and gauge == 0.0, (f"M, M1, M2 on 8 x 8 cells vs on 256 x 256 samples, gap {gap:.3g}; "
                                         f"gauge from cells vs from samples, gap {gauge:.3g}")


def _check_entropy_gauge() -> tuple[bool, str]:
    f = random_grid_2d(6, seed=1010, amp=4.0)  # log+ is live on 3/4 of the grid
    gap = max(abs(entropy_functional(f, a) / oracles.entropy_brute(f, a) - 1.0) for a in (0, 0.5, 1, 2))
    return gap <= 1e-12, f"in-place gauge vs fsum, relative gap {gap:.3g}"


def _check_square_sums() -> tuple[bool, str]:
    gap = 0.0
    for f in (random_grid_1d(8, seed=1111), generate_function("random-step:level=3,dim=1@B=10", 1111)):
        fast = np.array([np.repeat(q, f.size // len(q)) for q in dyadic_square_sums(f)])
        brute = oracles.dyadic_square_sums_brute(f)  # Q_0 = 0 in both
        gap = max(gap, float((np.abs(fast - brute) / np.maximum(brute, np.finfo(float).tiny)).max()))
    return gap <= 1e-12, f"Paley scan vs partial-sum table, level-3 step past its band, relative gap {gap:.3g}"


def _check_rodin_stream() -> tuple[bool, str]:
    # B = 10: the random grid in 32 blocks of 32 orders, the level-3 step in 2 of 4, then the closed form
    phi, ms, gap = PhiFunction.exp_minus_one(1.0), range(1, 1025), 0.0
    for f in (random_grid_1d(10, seed=909), generate_function("random-step:level=3,dim=1@B=10", 909)):
        fast = np.array([means.samples for _, means in iter_rodin_means(f, phi, ms)])
        brute = oracles.rodin_means_brute(f, phi, ms)
        gap = max(gap, float(np.abs(fast - brute).max() / brute.max()))
    return gap <= 1e-12, f"Paley-block stream vs partial-sum table, level-3 step past its band, relative gap {gap:.3g}"


CHECKS = [
    ("transform-1d", _check_transform_1d),
    ("transform-2d", _check_transform_2d),
    ("transform-resolution", _check_transform_resolution),
    ("orthonormality", _check_orthonormality),
    ("martingale", _check_martingale),
    ("quadratic-sums", _check_quadratic_sums),
    ("bmo-sequence", _check_bmo),
    ("bmo-diagonal", _check_bmo_diagonal),
    ("bmo-support", _check_bmo_band),
    ("bmo-cells", _check_bmo_cells),
    ("schipp-v", _check_schipp_v),
    ("dyadic-maximal", _check_dyadic_maximal),
    ("grid-cells", _check_grid_cells),
    ("entropy-gauge", _check_entropy_gauge),
    ("square-sums", _check_square_sums),
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
