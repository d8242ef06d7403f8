"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Randomness is drawn from the package's pinned portable generator so every
run exercises identical inputs.  Criteria with stated runtime budgets assert
them.
"""
import time

import numpy as np

from conftest import dyadic_rationals
from wss import oracles
from wss.cli import main as cli_main
from wss.dyadic import bit_reverse_permutation, walsh_matrix
from wss.experiments import sch_ratio_max, run_rodin_1d, run_theorem1
from wss.generators import portable_uniforms, random_grid_1d, random_grid_2d
from wss.means import PhiFunction, bmo_sequence_norm, phi_mean_sequence
from wss.sums import partial_sum_1d, quadratic_sums, rectangular_partial_sum
from wss.transform import _synthesis, naive_wht_1d, naive_wht_2d, wht_1d, wht_2d


def _report(num: int, name: str, ok: bool, detail: str):
    print(f"[acceptance] criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_transform_oracle_equivalence():
    start = time.perf_counter()
    picks = portable_uniforms(1001, 400)
    worst_gap = 0.0
    worst_loop = 0.0
    for i in range(120):
        bits = 1 + int(picks[i] * 10)
        f = random_grid_1d(bits, seed=2000 + i)
        worst_gap = max(worst_gap, float(np.abs(wht_1d(f).coeffs - naive_wht_1d(f).coeffs).max()))
        worst_loop = max(
            worst_loop, float(np.abs(_synthesis(wht_1d(f).samples, bits, (f.size,)) - f.samples).max())
        )
    for i in range(80):
        bits = 1 + int(picks[200 + i] * 6)
        f = random_grid_2d(bits, seed=3000 + i)
        worst_gap = max(worst_gap, float(np.abs(wht_2d(f).coeffs - naive_wht_2d(f).coeffs).max()))
        worst_loop = max(
            worst_loop, float(np.abs(_synthesis(wht_2d(f).samples, bits, (f.size,) * 2) - f.samples).max())
        )
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-10 and worst_loop <= 1e-12 and elapsed <= 30.0
    _report(1, "transform-oracle-equivalence", ok,
            f"200 grids, fast-naive {worst_gap:.2e}, round-trip {worst_loop:.2e}, {elapsed:.1f}s")


def test_criterion_2_exact_algebra():
    # Exhaustive at 6 bits.
    idx = np.arange(64, dtype=np.int64)
    x, y = np.meshgrid(idx, idx, indexing="ij")
    laws_small = (
        np.array_equal(x ^ y, y ^ x)
        and np.all((x ^ x) == 0)
        and np.array_equal((x[..., None] ^ y[..., None]) ^ idx, x[..., None] ^ (y[..., None] ^ idx))
    )
    w = walsh_matrix(6)
    character_small = np.array_equal(
        w[:, x ^ y], w[:, idx][:, :, None] * w[:, idx][:, None, :]
    )
    gram = w.astype(np.int64) @ w.astype(np.int64).T
    ortho_small = np.array_equal(gram, 64 * np.eye(64, dtype=np.int64))

    # 1e5 random pairs at 12 bits.
    size = 1 << 12
    u = portable_uniforms(1002, 500_000)
    ks = (u[:100_000] * size).astype(np.int64)
    ls = (u[100_000:200_000] * size).astype(np.int64)
    xs = (u[200_000:300_000] * size).astype(np.int64)
    ys = (u[300_000:400_000] * size).astype(np.int64)
    zs = (u[400_000:] * size).astype(np.int64)
    laws_big = (
        np.array_equal(xs ^ ys, ys ^ xs)
        and np.all((xs ^ xs) == 0)
        and np.array_equal((xs ^ ys) ^ zs, xs ^ (ys ^ zs))
    )
    rev = bit_reverse_permutation(12)
    par = lambda k, i: np.bitwise_count(k & rev[i]).astype(np.int64) & 1
    character_big = np.array_equal(par(ks, xs ^ ys), par(ks, xs) ^ par(ks, ys))
    ortho_big = True
    j = ks ^ ls
    for lo in range(0, 100_000, 1000):
        chunk = j[lo : lo + 1000]
        odd = (np.bitwise_count(chunk[:, None] & rev[None, :]) & 1).astype(np.int64).sum(axis=1)
        sums = size - 2 * odd
        if not np.array_equal(sums, size * (chunk == 0)):
            ortho_big = False
            break
    ok = laws_small and character_small and ortho_small and laws_big and character_big and ortho_big
    _report(2, "exact-algebra", ok,
            "exhaustive at 6 bits, 1e5 random pairs at 12 bits, integer-exact")


def test_criterion_3_martingale_identity():
    f = random_grid_1d(10, seed=1003)
    worst = 0.0
    for k in range(11):
        s = partial_sum_1d(f, 1 << k).samples
        worst = max(worst, float(np.abs(s - oracles.cell_averages_1d(f, k)).max()))
    g = random_grid_2d(6, seed=1003)
    for k in range(7):
        s = rectangular_partial_sum(g, 1 << k, 1 << k).samples
        worst = max(worst, float(np.abs(s - oracles.cell_averages_2d(g, k, k)).max()))
    _report(3, "martingale-identity", worst <= 1e-12, f"max gap {worst:.2e}")


def test_criterion_4_quadratic_incremental_oracle():
    worst = 0.0
    for i in range(50):
        f = random_grid_2d(5, seed=4000 + i)
        cube = oracles.materialize(quadratic_sums(f))
        worst = max(worst, float(np.abs(cube - oracles.diagonal_sums_brute(f)).max()))
    _report(4, "quadratic-sum-oracle", worst <= 1e-10, f"50 grids at 5 bits, max gap {worst:.2e}")


def test_criterion_5_bmo_sequence_norm():
    exact = True
    for i in range(500):
        length = 1 << (1 + i % 8)
        xi = dyadic_rationals(5000 + i, length)
        if bmo_sequence_norm(xi) != oracles.bmo_sequence_brute(xi):
            exact = False
            break
    constants_zero = all(
        bmo_sequence_norm(np.full(1 << m, c)) == 0.0 for m in (1, 4, 8) for c in (-3.5, 0.0, 7.25)
    )
    invariance = True
    shifts = 16.0 * portable_uniforms(1005, 40) - 8.0
    scales = 8.0 * portable_uniforms(1006, 40) + 0.25
    for i in range(40):
        xi = dyadic_rationals(6000 + i, 64)
        base = bmo_sequence_norm(xi)
        if abs(bmo_sequence_norm(xi + shifts[i]) - base) > 1e-12 * (1 + abs(shifts[i])):
            invariance = False
        if abs(bmo_sequence_norm(scales[i] * xi) - scales[i] * base) > 1e-12 * scales[i] * (1 + base):
            invariance = False
    ok = exact and constants_zero and invariance
    _report(5, "bmo-sequence-norm", ok,
            "500 sequences exact vs brute force, constants 0, shift/scale invariant")


def test_criterion_6_schipp_inequality():
    start = time.perf_counter()
    per_b = {}
    for bits in (6, 7, 8):
        best = 0.0
        for i in range(100):
            ratio = sch_ratio_max(random_grid_1d(bits, seed=7000 + i))
            best = max(best, ratio)
        per_b[bits] = best
    elapsed = time.perf_counter() - start
    finite = all(np.isfinite(v) for v in per_b.values())
    growth = per_b[8] / per_b[6]
    ok = finite and growth <= 2.0 and elapsed <= 120.0
    _report(6, "schipp-inequality", ok,
            f"max ratios {per_b[6]:.3f}/{per_b[7]:.3f}/{per_b[8]:.3f} at 6/7/8 bits, "
            f"growth x{growth:.3f}, {elapsed:.1f}s")


def test_criterion_7_weak_type_stability():
    start = time.perf_counter()
    lambdas = np.geomspace(1e-2, 1e4, 49).tolist()
    spreads = []
    details = []
    for target in (1, 10, 100):
        constants = []
        for bits in (5, 6, 7):
            rep = run_theorem1(f"spike:level=2,target={target}@B={bits}", lambdas)
            constants.append(rep.value("empirical_constant"))
        spread = max(constants) / min(constants)
        spreads.append(spread)
        details.append(f"target {target}: x{spread:.3f}")
    elapsed = time.perf_counter() - start
    ok = max(spreads) <= 2.0 and elapsed <= 300.0
    _report(7, "weak-type-stability", ok, f"{'; '.join(details)}; {elapsed:.1f}s")


def test_criterion_8_exponential_summability_decay():
    from wss.generators import generate_function

    f = generate_function("indicator-rect:0,0.5,0,0.5@B=7")
    field = quadratic_sums(f)
    phi = PhiFunction.exp_minus_one(1.0)
    ix = iy = int(0.25 * 128)
    seq = field.sequence_at(ix, iy)
    trajectory = np.array(
        [phi_mean_sequence(seq, f.samples[ix, iy], m, phi) for m in range(4, 129)]
    )
    ratio = trajectory[128 - 4] / trajectory[0]
    tail = trajectory[8 - 4 :]
    nonincreasing = bool(np.all(np.diff(tail) <= 1e-15))

    g = generate_function("random-spectrum:support=8,dim=2@B=6", seed=1008)
    gfield = quadratic_sums(g)
    ms = np.array([8, 16, 32, 64])
    probe = (40, 24)
    gseq = gfield.sequence_at(*probe)
    means = np.array(
        [phi_mean_sequence(gseq, g.samples[probe], m, phi) for m in ms]
    )
    slope = np.polyfit(np.log(ms), np.log(means), 1)[0]
    ok = ratio <= 0.25 and nonincreasing and abs(slope + 1.0) <= 0.01
    _report(8, "exponential-summability-decay", ok,
            f"m=128/m=4 ratio {ratio:.4f}, nonincreasing past m=8: {nonincreasing}, "
            f"fitted exponent {slope:.5f}")


def _rodin_pair_weights(m: int, bits: int) -> np.ndarray:
    """Closed form of m times the Rodin mean of f = w_3 + w_9 on the 2^bits grid.

    S_k f is 0 for k = 1..3, w_3 for k = 4..9 and f for k >= 10, so
    |S_k f - f| is |f| on the first three terms and |w_9| = 1 on the next
    six.  The window k = 1..m therefore sums to
    min(m, 3) (e^|f| - 1) + clip(m - 3, 0, 6) (e - 1), which for m >= 9 is
    C(x) = 3 (e^|f(x)| - 1) + 6 (e - 1), with |f| in {0, 2}.
    """
    i = np.arange(1 << bits)
    r = [1 - 2 * ((i >> (bits - 1 - j)) & 1) for j in range(4)]  # Rademacher r_0..r_3
    f = r[0] * r[1] + r[0] * r[3]  # w_3 = r_0 r_1, w_9 = r_0 r_3
    return min(m, 3) * np.expm1(np.abs(f)) + min(max(m - 3, 0), 6) * np.expm1(1.0)


def test_criterion_9_rodin_1d_summability():
    phi = PhiFunction.exp_minus_one(1.0)
    ms = [4, 16, 64, 256, 1024]
    label = "exceed:eps=0.01:phi=exp_minus_one:1"
    step = run_rodin_1d("random-step:level=3,dim=1@B=10", phi, ms, seed=1009)
    step_measure = step.value(label, 1024)

    # Rodin's theorem bounds only the limit m -> oo.  For w_3 + w_9 the mean
    # is exactly C(x)/m once m >= 9, so {mean > 0.01} has measure 1 up to
    # m = 1030, 1/2 up to m = 2947 and 0 from m = 2948: the bound 0.02 is
    # first met on the dyadic grid at m = 4096, which needs B = 12.
    pair_bits = 12
    pair_ms = ms + [2048, 4096]
    pair = run_rodin_1d(f"walsh-tensor:3+9@B={pair_bits}", phi, pair_ms)
    c_max = float(_rodin_pair_weights(pair_ms[-1], pair_bits).max())
    decay_ok = all(
        np.isclose(pair.value("mean_max", m) * m, c_max, rtol=1e-12, atol=0.0)
        for m in pair_ms if m >= 16
    )
    staircase = [float((_rodin_pair_weights(m, pair_bits) / m > 0.01).mean()) for m in pair_ms]
    measured = [pair.value(label, m) for m in pair_ms]
    pair_measure = measured[-1]
    ok = (
        step_measure <= 0.02
        and decay_ok
        and measured == staircase
        and pair_measure <= 0.02
    )
    _report(9, "rodin-1d-summability", ok,
            f"random step exceedance at m=1024 {step_measure:.4f} (bound 0.02); "
            f"w3+w9 m*mean_max {pair.value('mean_max', 4096) * 4096:.15g} vs C_max {c_max:.15g}, "
            f"exceedance at m={pair_ms} {measured} vs closed form {staircase}, "
            f"{pair_measure:.4f} at m=4096 (bound 0.02)")


def test_criterion_10_deterministic_csv(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[sweep]\n"
        "experiment = theorem1\n"
        "spec = spike:level=2,target=10@B=5\n"
        "lambda = 0.25,0.5,1,2,4,8,16,32\n"
        "seed = 11\n"
        "\n"
        "[weak]\n"
        "experiment = weak_type\n"
        "operator = V\n"
        "spec = random-step:level=4,dim=1@B=6\n"
        "count = 4\n"
        "lambda = 0.05,0.1,0.2,0.5,1\n"
        "\n"
        "[decay]\n"
        "experiment = theorem2\n"
        "spec = indicator-rect:0,0.5,0,0.5@B=6\n"
        "a = 1\n"
        "probes = 0.25,0.25\n"
        "m = 4,8,16,32,64\n"
    )
    assert cli_main(["run", str(cfg), "--out", str(tmp_path / "one"), "--threads", "1"]) == 0
    assert cli_main(["run", str(cfg), "--out", str(tmp_path / "four"), "--threads", "4"]) == 0
    one = (tmp_path / "one" / "report.csv").read_bytes()
    four = (tmp_path / "four" / "report.csv").read_bytes()
    _report(10, "deterministic-csv", one == four and len(one) > 0,
            f"{len(one)} bytes, threads 1 vs 4 byte-identical: {one == four}")
