import inspect
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak_ratio
from wss import experiments, oracles
from wss.dyadic import walsh_matrix, walsh_matrix_f64
from wss.errors import DataError, UsageError
from wss.experiments import (
    ExperimentConfig,
    SummabilityReport,
    default_probes,
    iter_rodin_means,
    load_config,
    run_configured,
    run_rodin_1d,
    run_theorem1,
    run_theorem2,
    run_weak_type_suite,
    sch_ratio_max,
    write_reports_csv,
)
from wss.generators import FunctionSpec, generate_function, random_grid_1d
from wss.means import PhiFunction
from wss.transform import DyadicGrid1D

LAMBDAS = [0.25, 0.5, 1.0, 2.0, 4.0]


def _grid(operator, lambdas=LAMBDAS):
    """`lambdas` for an operator whose row is the superlevel sweep, else None."""
    return lambdas if experiments.OPERATORS[operator][2] == "empirical_constant" else None


def test_theorem1_constant_function_step_measures():
    # f = 1 everywhere: every diagonal sequence is (0, 1, 1, ...), the BMO
    # field is 1/2, and the sweep is a 0/1 step at lambda = 1/2.
    rep = run_theorem1("indicator-rect:0,1,0,1@B=4", LAMBDAS)
    lams, mus = rep.series("measure")
    np.testing.assert_array_equal(mus, (lams < 0.5).astype(float))
    assert rep.value("entropy", 2.0) == 0.0
    assert rep.value("empirical_constant") == pytest.approx(0.25)


def test_theorem1_zero_function():
    rep = run_theorem1("indicator-rect:0,0,0,0@B=3", LAMBDAS)
    _, mus = rep.series("measure")
    assert np.all(mus == 0.0)
    assert rep.value("empirical_constant") == 0.0


def test_theorem1_rejects_1d_specs():
    with pytest.raises(UsageError):
        run_theorem1("walsh-tensor:3@B=4", LAMBDAS)
    with pytest.raises(UsageError):
        run_theorem1("indicator-rect:0,1,0,1@B=3", [1.0, 1.0])


@pytest.mark.parametrize("spec, level", [("spike:level=2,target=10", 2), ("random-step:level=3,dim=2", 3),
                                         ("indicator-rect:0,0.5,0.25,0.75", 2),
                                         ("random-spectrum:support=5,dim=2", 3), ("walsh-tensor:3,6", 3)])
def test_theorem1_rows_are_the_same_at_every_depth_past_the_input_level(spec, level):
    # f on level-L cells: S_nn = S_KK from K = 2^L on, and depths past L + 1
    # add only tail blocks and root merges that cannot raise the BMO, so a
    # kernel that reads B where it should not changes some row
    lambdas = [2.0 ** e for e in range(-6, 7)]
    rows = {bits: [(p, k.hex(), v.hex()) for p, k, v in run_theorem1(f"{spec}@B={bits}", lambdas, seed=5).rows]
            for bits in range(level + 1, 13)}
    assert all(r == rows[level + 1] for r in rows.values())


def test_theorem2_zero_function_and_probes():
    rep = run_theorem2("indicator-rect:0,0,0,0@B=4", 1.0, [2, 4, 8])
    assert rep.value("exceptional_measure") == 0.0
    for param in {p for p, _, _ in rep.rows if p.startswith("phi_mean")}:
        _, vals = rep.series(param)
        assert np.all(vals == 0.0)


def test_theorem2_probe_exclusion_for_indicator():
    probes, excluded = default_probes(FunctionSpec.parse("indicator-rect:0,0.5,0,0.5@B=5"))
    assert excluded == 0.0 and len(probes) == 16  # boundaries on the level-2 grid
    probes, excluded = default_probes(FunctionSpec.parse("indicator-rect:0,0.4,0,0.5@B=5"))
    assert excluded == 0.25 and len(probes) == 12  # x = 0.4 cuts one cell column
    probes, excluded = default_probes(FunctionSpec.parse("spike:level=3,target=5@B=5"))
    assert excluded == pytest.approx(7 / 16)


def test_theorem2_decay_on_quadrant():
    rep = run_theorem2(
        "indicator-rect:0,0.5,0,0.5@B=6", 1.0, [4, 8, 16, 32, 64], probes=[(0.25, 0.25)]
    )
    ms, vals = rep.series("phi_mean:window=B:probe=0.25;0.25")
    c = np.expm1(0.75)  # only S_11 = 1/4 deviates from f = 1 at the probe
    np.testing.assert_allclose(vals, c / ms, rtol=1e-12)


def test_theorem2_materializes_no_walsh_matrix():
    # probe sequences read Walsh rows, never the cached N x N float matrix
    walsh_matrix_f64.cache_clear()
    run_theorem2("random-spectrum:support=64,dim=2@B=10", 1.0, [4, 1024])
    assert walsh_matrix_f64.cache_info().currsize == 0


def test_theorem2_holds_no_grid_of_samples():
    # f on its 4 x 4 cells, the 4 x 4 band, two (4, 4) profile tables and
    # one probe sequence: about 0.0014 of one 2^24 grid measured, so any
    # array of samples fails the bound
    spec = "random-spectrum:support=4,dim=2@B=12"

    def run(_):
        return run_theorem2(spec, 1.0, [4, 64, 4096], seed=3)

    assert traced_peak_ratio(run, generate_function(spec, 3)) < 0.01


def test_theorem1_caches_no_walsh_matrix_beyond_the_band_square():
    # the spike's band is 4 = 2^2: the block stream reads the 4 x 4 matrix, not the 2^10 one
    for cached in (walsh_matrix, walsh_matrix_f64):
        cached.cache_clear()
    run_theorem1("spike:level=2,target=10@B=10", LAMBDAS)
    for cached in (walsh_matrix, walsh_matrix_f64):
        info = cached.cache_info()
        cached(2)
        assert info.currsize == 1 and cached.cache_info().hits == info.hits + 1


def test_rodin_zero_and_validation():
    rep = run_rodin_1d("indicator-rect:0,0@B=5", PhiFunction.exp_minus_one(1.0), [2, 8, 32])
    _, vals = rep.series("exceed:eps=0.01:phi=exp_minus_one:1")
    assert np.all(vals == 0.0)
    with pytest.raises(UsageError):
        run_rodin_1d("indicator-rect:0,1,0,1@B=3", PhiFunction.exp_minus_one(1.0), [2])
    with pytest.raises(UsageError):
        run_rodin_1d("indicator-rect:0,0@B=5", PhiFunction.exp_minus_one(1.0), [2, 64])


def test_rodin_mean_against_brute_force_sum():
    # f = w_3 at 4 bits: the m = 8 exponential mean at each x, by a literal
    # per-order loop over partial sums.
    from wss.generators import generate_function
    from wss.sums import partial_sum_1d

    f = generate_function("walsh-tensor:3@B=4")
    sums = [partial_sum_1d(f, k).samples for k in range(9)]
    brute = np.zeros(16)
    for x in range(16):
        total = 0.0
        for k in range(1, 9):
            total += np.expm1(abs(sums[k][x] - f.samples[x]))
        brute[x] = total / 8.0
    rep = run_rodin_1d("walsh-tensor:3@B=4", PhiFunction.exp_minus_one(1.0), [8])
    assert rep.value("mean_max", 8) == pytest.approx(brute.max(), rel=1e-13)


def test_rodin_spectrum_resolved_decay():
    # f = w_3: S_k = f for k > 3, so the trajectory max decays like C/m.
    rep = run_rodin_1d("walsh-tensor:3@B=6", PhiFunction.exp_minus_one(1.0), [8, 16, 32, 64])
    ms, vals = rep.series("mean_max")
    np.testing.assert_allclose(vals * ms, vals[0] * ms[0], rtol=1e-12)


def _assert_stream_matches_table(f, phi, ms):
    stream = np.array([means.samples for _, means in iter_rodin_means(f, phi, ms)])
    table = oracles.rodin_means_brute(f, phi, ms)
    np.testing.assert_allclose(stream, table, rtol=1e-12)
    np.testing.assert_array_equal((stream > 0.01).mean(axis=1), (table > 0.01).mean(axis=1))


@pytest.mark.parametrize("bits", range(1, 11), ids=lambda b: f"B={b}")
def test_rodin_stream_matches_table(bits):
    # Every m in 1..N, so m = 1, the block edges w - 1, w, w + 1, and N.  A
    # random grid is its own level-B cells, band N: blocks of 2^ceil(B/2)
    # orders, so at B = 10 thirty-two blocks of 2^5 orders are chained.
    f = random_grid_1d(bits, seed=1500 + bits)
    _assert_stream_matches_table(f, PhiFunction.exp_minus_one(1.0), range(1, f.size + 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 8), st.integers(1, 8), st.integers(0, 10_000),
       st.booleans(), st.data())
def test_rodin_stream_matches_table_at_any_block_width(bits, level, s, seed, power, data):
    level = min(level, bits)
    cells = max(1, level)  # the stream's level: a constant f runs on 2 cells
    s = min(s, (cells + 1) // 2)  # the widths the stream takes: 1 <= s <= ceil(l / 2)
    f = generate_function(f"random-step:level={level},dim=1@B={bits}", seed)
    phi = PhiFunction.power(2.0) if power else PhiFunction.exp_minus_one(1.0)
    ms = sorted(data.draw(st.sets(st.integers(1, f.size), min_size=1)))
    with mock.patch.object(experiments, "BLOCK_BYTES", 8 << (cells + s)):  # blocks of 2^s
        _assert_stream_matches_table(f, phi, ms)


@pytest.mark.parametrize("bits", range(1, 11), ids=lambda b: f"B={b}")
def test_rodin_stream_on_the_cells_of_every_level_and_block_width(bits):
    # level L <= B and blocks of 2^s, 1 <= s <= ceil(l / 2), l = max(1, L):
    # the stream runs on the level-l cells, its means match the table at
    # every m, and one sequential cumsum makes them the same bits at every width
    phi = PhiFunction.exp_minus_one(1.0)
    for level in range(bits + 1):
        f = generate_function(f"random-step:level={level},dim=1@B={bits}", 40 + level)
        ms = range(1, f.size + 1)
        table = oracles.rodin_means_brute(f, phi, ms)
        cells = max(1, level)
        first = None
        for s in range(1, (cells + 1) // 2 + 1):
            with mock.patch.object(experiments, "BLOCK_BYTES", 8 << (cells + s)):
                stream = np.array([means.samples for _, means in iter_rodin_means(f, phi, ms)])
            # assert_allclose's test at rtol 1e-12, without its report on a 2^20 array
            assert np.all(np.abs(stream - table) <= 1e-12 * np.abs(table)), (level, 1 << s)
            first = stream if first is None else first
            assert np.array_equal(stream.view(np.int64), first.view(np.int64)), (level, 1 << s)


@pytest.mark.parametrize("s, band", [(1, 8), (2, 8), (2, 64), (3, 64)],
                         ids=["width=2-band=8", "width=4-band=8", "width=4-band=64", "width=8-band=64"])
def test_rodin_stream_past_the_support(s, band):
    # f_hat of w_5 + w_2 ends at order 5 and w_5 lives on level-3 cells, so
    # the band is 8: four blocks of 2 orders (the fourth all exact zeros) or
    # two blocks of 4.  With w_32 (level 6) added f_hat ends at 32 and the
    # band is 64: sixteen blocks of 4 or eight of 8, the later ones all exact
    # zeros.  Every larger m is the closed form.
    f = generate_function("walsh-tensor:5+2@B=10" if band == 8 else "walsh-tensor:5+2+32@B=10")
    assert len(f.cells) == band
    phi = PhiFunction.exp_minus_one(1.0)
    ms = [1, 4, 5, 6, 7, 8, 9, 12, 13, 32, 33, 34, 64, 65, 100, 256, 1024]
    with mock.patch.object(experiments, "BLOCK_BYTES", 8 * band << s):  # blocks of 2^s
        _assert_stream_matches_table(f, phi, ms)


def test_rodin_stream_evaluates_phi_once_per_in_band_block_and_once_past_the_band():
    calls = []

    def counted(t):
        calls.append(t.size)
        return np.expm1(t)

    f = generate_function("walsh-tensor:5@B=10")  # support 6, inside the second block of 4
    cells = 8  # w_5 lives on the level-3 cells: band 8, blocks of 2^ceil(3/2) = 4 by default
    for ms, want in (([3, 6, 7, 1024], [4 * cells] * 2 + [cells]), ([3, 6], [4 * cells] * 2),
                     ([3, 9, 10, 1024], [4 * cells] * 2 + [cells])):
        calls.clear()
        stream = np.array([means.samples for _, means in iter_rodin_means(f, counted, ms)])
        assert calls == want, ms
        np.testing.assert_allclose(stream, oracles.rodin_means_brute(f, np.expm1, ms), rtol=1e-12)


def test_rodin_stream_keys_its_skip_on_the_band():
    calls = []

    def counted(t):
        calls.append(t.size)
        return np.expm1(t)

    f = generate_function("walsh-tensor:5+2@B=10")  # f_hat ends at 5; band 8
    ms = [1, 5, 6, 7, 8, 9, 1024]
    with mock.patch.object(experiments, "BLOCK_BYTES", 8 << (3 + 1)):  # blocks of 2 on 8 cells
        stream = np.array([means.samples for _, means in iter_rodin_means(f, counted, ms)])
    # blocks 0, 2, 4 and 6 (below the band; orders 6 and 7 exact zeros) take
    # the sign-table route on the 8 level-3 cells, and m = 9 and 1024 one
    # closed form past it
    assert calls == [2 * 8] * 4 + [8]
    np.testing.assert_allclose(stream, oracles.rodin_means_brute(f, np.expm1, ms), rtol=1e-12)


def test_rodin_stream_with_grid_rows_past_the_block_budget():
    # At B = 19 one grid row alone is 4 MiB, over BLOCK_BYTES; the stream
    # runs on the level-4 step's 16 cells in blocks of 4 orders whatever B is.
    from wss.sums import partial_sum_1d

    spec = "random-step:level=4,dim=1@B=19"
    f = generate_function(spec, 5)
    phi = PhiFunction.exp_minus_one(1.0)
    terms = [phi(np.abs(partial_sum_1d(f, k).samples - f.samples)) for k in (1, 2, 3)]
    rep = run_rodin_1d(spec, phi, [1, 3], seed=5)
    assert rep.value("mean_max", 1) == pytest.approx(terms[0].max(), rel=1e-12)
    assert rep.value("mean_max", 3) == pytest.approx((sum(terms) / 3).max(), rel=1e-12)


@pytest.mark.parametrize("seed", [0, 11])
def test_rodin_rows_are_the_same_at_every_depth(seed):
    # f is the same level-6 step at every B, and the stream runs on its 64
    # cells in blocks its level sets (8 of 8 orders, Phi on 8 x 64 values
    # each, then once past the band), so every row keeps its bits from B = 6
    # to 24; m = 100 is past the band, so it needs B >= 7
    phi, first = PhiFunction.exp_minus_one(1.0), None
    for bits in range(6, 25):
        ms = [m for m in (4, 16, 64, 100) if m <= 1 << bits]
        spec = f"random-step:level=6,dim=1@B={bits}"
        rep = run_rodin_1d(spec, phi, ms, seed=seed)
        first = first if first and len(first) == len(rep.rows) else rep.rows
        assert [(p, k) for p, k, _ in rep.rows] == [(p, k) for p, k, _ in first]
        assert [v for _, _, v in rep.rows] == [v for _, _, v in first], bits
        calls = []
        list(iter_rodin_means(generate_function(spec, seed), lambda t: calls.append(t.size) or phi(t), ms))
        assert calls == [8 * 64] * 8 + [64] * (bits > 6), bits


def test_rodin_closed_form_overflow_names_its_order():
    # band 2 with every term 1e307: A_2 is finite, and m * 1e307 passes
    # float64 first at m = 18, inside np.errstate, so no RuntimeWarning
    f = generate_function("walsh-tensor:1@B=6")
    stream = iter_rodin_means(f, lambda t: np.full(np.shape(t), 1e307), [2, 3, 17, 18, 64])
    assert [m for m, _ in itertools.islice(stream, 3)] == [2, 3, 17]
    with pytest.raises(DataError, match="overflowed float64 at m = 18"):
        next(stream)


def test_weak_type_constant_function():
    rep = run_weak_type_suite("M", "indicator-rect:0,1,0,1@B=4", lambda_grid=LAMBDAS)
    lams, vals = rep.series("normalized_max")
    np.testing.assert_allclose(vals, np.where(lams < 1.0, lams, 0.0))
    assert rep.value("suite_max") <= 1.0


def test_weak_type_zero_function():
    rep = run_weak_type_suite("V", "indicator-rect:0,0@B=5", lambda_grid=LAMBDAS)
    assert rep.value("suite_max") == 0.0


def test_weak_type_validation():
    with pytest.raises(UsageError):
        run_weak_type_suite("W", "indicator-rect:0,1,0,1@B=3", lambda_grid=LAMBDAS)
    for count in (0, experiments.MAX_COUNT + 1):
        with pytest.raises(UsageError, match="count must be within"):
            run_weak_type_suite("M", "indicator-rect:0,1,0,1@B=3", count, LAMBDAS)
    with pytest.raises(UsageError):
        run_weak_type_suite("V", "indicator-rect:0,1,0,1@B=3", lambda_grid=LAMBDAS)  # needs 1D
    with pytest.raises(UsageError, match="^operator M needs a lambda grid$"):
        run_weak_type_suite("M", "indicator-rect:0,1,0,1@B=3", lambda_grid=None)
    with pytest.raises(UsageError, match="^operator M1 takes no lambda grid$"):  # refused, not dropped
        run_weak_type_suite("M1", "indicator-rect:0,1,0,1@B=3", lambda_grid=LAMBDAS)


@pytest.mark.parametrize("call", [
    lambda: run_theorem2("indicator-rect:0,0.5,0,0.5@B=4", 1.0, [4, 99]),
    lambda: run_theorem2("indicator-rect:0,0.5,0,0.5@B=4", 1.0, [4], [(0.25, 1.5)]),
    lambda: run_theorem2("indicator-rect:0,0.5,0,0.5@B=4", 1.0, [4], [(0.1, 0.1), (0.1000001, 0.1)]),
    lambda: run_theorem2("indicator-rect:0,0.5,0,0.5@B=4", 1.0, [4], [(0.25, 0.5), (0.25, 0.5)]),
    lambda: run_rodin_1d("random-step:level=3,dim=1@B=4", PhiFunction.exp_minus_one(1.0), [4, 99]),
    lambda: run_weak_type_suite("V", "random-step:level=3,dim=1@B=4"),
    lambda: run_weak_type_suite("M1", "random-step:level=3,dim=2@B=4", 1, [0.5, 1]),
    lambda: run_weak_type_suite("M2", "random-step:level=3,dim=2@B=4", 1, [0.5, 1]),
    lambda: run_weak_type_suite("Sch-ratio", "random-step:level=3,dim=1@B=4", 1, [0.5, 1]),
], ids=["theorem2-m", "theorem2-probe", "theorem2-probe-label", "theorem2-probe-repeat", "rodin-m",
        "V-no-lambda", "M1-lambda", "M2-lambda", "Sch-ratio-lambda"])
def test_runners_check_every_argument_before_generation(monkeypatch, call):
    def refuse(*args):
        raise AssertionError("generate_function called")

    monkeypatch.setattr(experiments, "generate_function", refuse)
    with pytest.raises(UsageError):
        call()


@pytest.mark.parametrize("operator, spec", [
    ("M", "random-step:level=3,dim=2@B=4"), ("M1", "random-step:level=3,dim=1@B=5"),
    ("M2", "random-step:level=3,dim=2@B=4"), ("V", "random-step:level=4,dim=1@B=5"),
    ("V1", "random-step:level=3,dim=2@B=4"), ("V2", "random-step:level=3,dim=1@B=5"),
    ("Sch-ratio", "random-step:level=4,dim=1@B=5")])
def test_weak_type_instance_i_is_the_single_run_at_seed_plus_i(operator, spec):
    lambdas = _grid(operator)
    suite = run_weak_type_suite(operator, spec, 3, lambdas, seed=9)
    singles = [run_weak_type_suite(operator, spec, 1, lambdas, seed=9 + i) for i in range(3)]
    assert suite.spec == f"{spec}#x3" and singles[0].spec == spec
    (param,) = {p for p, _, _ in singles[0].rows if p not in ("normalized_max", "suite_max")}
    assert param == experiments.OPERATORS[operator][2]  # the table's row, and a sweep only on that row
    assert suite.series("normalized_max")[0].tolist() == (lambdas or [])
    assert suite.series(param)[0].tolist() == [0.0, 1.0, 2.0]
    assert suite.series(param)[1].tolist() == [single.value(param, 0) for single in singles]
    assert suite.value("suite_max") == max(single.value("suite_max") for single in singles)


def test_weak_type_integral_ratios():
    rep = run_weak_type_suite("M1", "random-step:level=3,dim=2@B=4", 3, seed=5)
    _, vals = rep.series("integral_ratio")
    assert len(vals) == 3 and np.all(vals > 0)
    rep2 = run_weak_type_suite("Sch-ratio", "random-step:level=4,dim=1@B=5", 3, seed=6)
    _, ratios = rep2.series("sch_ratio")
    assert np.all(np.isfinite(ratios)) and rep2.value("suite_max") == ratios.max()


STEP_2D, STEP_1D = "random-step:level=4,dim=2@B=10", "random-step:level=6,dim=1@B=20"


@pytest.mark.parametrize("operator, spec", [("M", STEP_2D), ("M1", STEP_2D), ("M2", STEP_2D), ("V1", STEP_2D),
                                            ("V2", STEP_2D), ("V", STEP_1D), ("Sch-ratio", STEP_1D)])
def test_weak_type_instances_do_not_overlap(operator, spec):
    # each instance holds f, the operator and the gauge on the 16 x 16 (or 64)
    # cells, and no grid of samples: at most about 0.0035 of one 8 MiB grid
    # measured (V1, Sch-ratio), so a bound of 0.01 grids leaves a margin of
    # about 3x and fails on any grid of samples; the next instance's f comes
    # after the last one's arrays are gone
    lambdas = _grid(operator)

    def run(_):
        return run_weak_type_suite(operator, spec, 2, lambdas, seed=11)

    assert traced_peak_ratio(run, generate_function(spec, 11)) <= 0.01


def test_rodin_means_stay_on_the_cells():
    # the stream and every mean live on the 64 cells: no grid of 2^20 samples
    def run(_):
        return run_rodin_1d(STEP_1D, PhiFunction.exp_minus_one(1.0), [4, 16, 64], seed=11)

    assert traced_peak_ratio(run, generate_function(STEP_1D, 11)) <= 0.01


def test_weak_type_constants_stable_across_bits():
    # Recorded empirical constants should move by less than a factor of two
    # between neighboring bit depths on a fixed random-step family.
    lam = np.geomspace(1e-2, 1e2, 17).tolist()
    for operator, dim in (("M", 2), ("V", 1), ("M1", 2)):
        maxima = []
        for bits in (5, 6, 7):
            level = min(bits, 4) if dim == 2 else bits
            spec = f"random-step:level={level},dim={dim}@B={bits}"
            rep = run_weak_type_suite(operator, spec, 10, _grid(operator, lam), seed=17)
            maxima.append(rep.value("suite_max"))
        assert max(maxima) / min(maxima) <= 2.0, (operator, maxima)


def test_report_invariant_validation():
    rep = SummabilityReport("x", "spec", 3, 0)
    rep.add("measure", 1.0, 0.2)
    rep.add("measure", 2.0, 0.5)  # increases: violates superlevel monotonicity
    with pytest.raises(UsageError):
        rep.validate()
    rep2 = SummabilityReport("x", "spec", 3, 0)
    rep2.add("measure", 1.0, 1.5)  # outside [0, 1]
    with pytest.raises(UsageError):
        rep2.validate()
    rep3 = SummabilityReport("x", "spec", 3, 0)
    rep3.add("mean_max", 4, 0.5)
    rep3.add("mean_max", 8, 0.5)
    rep3.validate()
    rep3.add("mean_max", 4, 0.25)  # a second row at (mean_max, 4)
    with pytest.raises(UsageError, match="repeats a"):
        rep3.validate()


def test_csv_format_stability(tmp_path):
    rep = SummabilityReport("demo", "spike:level=2,target=10@B=5", 5, 7)
    rep.add("measure", 0.5, 1.0)
    rep.add("value", 3.0, 1.0 / 3.0)
    write_reports_csv([rep], tmp_path / "report.csv")
    got = (tmp_path / "report.csv").read_bytes().decode()
    assert got.endswith("\n") and "\r" not in got
    lines = got.splitlines()
    assert lines[0] == "experiment,spec,B,seed,param,lambda_or_m,value"
    assert lines[1] == 'demo,"spike:level=2,target=10@B=5",5,7,measure,0.5,1'
    assert lines[2] == 'demo,"spike:level=2,target=10@B=5",5,7,value,3,0.33333333333333331'


def test_config_loading_and_dispatch(tmp_path):
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(
        "[first]\n"
        "experiment = theorem1\n"
        "spec = indicator-rect:0,1,0,1@B=3\n"
        "lambda = 0.25,0.5,1\n"
        "\n"
        "[second]\n"
        "experiment = rodin\n"
        "spec = walsh-tensor:3@B=5\n"
        "phi = exp_minus_one:1\n"
        "m = 4,16,32\n"
    )
    configs = load_config(cfg_path)
    assert [c.name for c in configs] == ["first", "second"]
    reports = [run_configured(c, default_seed=3) for c in configs]
    assert reports[0].experiment == "first"
    assert reports[1].experiment == "second"
    with pytest.raises(UsageError):
        run_configured(ExperimentConfig("bad", {"experiment": "nope"}))
    with pytest.raises(UsageError):
        run_configured(ExperimentConfig("bad", {}))
    with pytest.raises(UsageError):
        load_config(tmp_path / "missing.ini")


# each kind: a section with every key set, as config text and as the runner's
# Python arguments; each optional key is set away from its default
SECTION_CASES = {
    "theorem1": ({"spec": "spike:level=2,target=10@B=5", "lambda": "0.5,1,2", "mode": "auto"},
                 {"spec": "spike:level=2,target=10@B=5", "lambda_grid": [0.5, 1.0, 2.0]}),
    "theorem2": ({"spec": "indicator-rect:0,0.5,0,0.5@B=5", "a": "0.5", "m": "2,4,8", "probes": "0.25,0.25,0.75,0.5"},
                 {"spec": "indicator-rect:0,0.5,0,0.5@B=5", "a": 0.5, "m_grid": [2, 4, 8],
                  "probes": [(0.25, 0.25), (0.75, 0.5)]}),
    "rodin": ({"spec": "random-step:level=3,dim=1@B=6", "phi": "power:2", "m": "2,8,64", "eps": "0.05"},
              {"spec": "random-step:level=3,dim=1@B=6", "phi": PhiFunction.power(2.0), "m_grid": [2, 8, 64],
               "eps": 0.05}),
    "weak_type": ({"spec": "random-step:level=2,dim=2@B=4", "operator": "V1", "count": "3", "lambda": "0.5,1"},
                  {"spec": "random-step:level=2,dim=2@B=4", "operator": "V1", "count": 3, "lambda_grid": [0.5, 1.0]}),
}
# the defaults of the keys whose runner parameter has none, as the README documents them
DOCUMENTED = {"a": 1.0, "phi": PhiFunction.exp_minus_one(1.0)}
OPTIONAL_ROWS = [(kind, row) for kind, (_, _, rows) in experiments.SECTIONS.items()
                 for row in rows if row[2] and row[3] is not experiments.REQUIRED]


def test_every_optional_key_has_a_case():
    assert sorted(f"{kind}.{row[0]}" for kind, row in OPTIONAL_ROWS) == [
        "rodin.eps", "rodin.phi", "theorem2.a", "theorem2.probes", "weak_type.count", "weak_type.lambda"]
    assert set(SECTION_CASES) == set(experiments.SECTIONS)


@pytest.mark.parametrize("kind, row", OPTIONAL_ROWS, ids=[f"{kind}-{row[0]}" for kind, row in OPTIONAL_ROWS])
def test_a_section_without_an_optional_key_runs_the_runners_default(tmp_path, kind, row):
    # pins each table default to its runner's: the section's report is the
    # runner's, called without that argument, byte for byte
    key, param = row[:2]
    options, kwargs = (dict(case) for case in SECTION_CASES[kind])
    del options[key], kwargs[param]
    if (kind, key) == ("weak_type", "lambda"):  # V1's sweep needs its grid: without one, run M1's ratio
        options["operator"] = kwargs["operator"] = "M1"
    runner = getattr(experiments, experiments.SECTIONS[kind][0])
    if inspect.signature(runner).parameters[param].default is inspect.Parameter.empty:
        kwargs[param] = DOCUMENTED[param]
    write_reports_csv([run_configured(ExperimentConfig(kind, {"experiment": kind, **options}), 7)],
                      tmp_path / "section.csv")
    write_reports_csv([runner(**kwargs, seed=7)], tmp_path / "runner.csv")
    assert (tmp_path / "section.csv").read_bytes() == (tmp_path / "runner.csv").read_bytes()


@pytest.mark.parametrize("kind", SECTION_CASES)
def test_a_full_section_is_the_runner_on_its_arguments(tmp_path, kind):
    options, kwargs = SECTION_CASES[kind]
    section = ExperimentConfig(kind, {"experiment": kind, **options})
    assert set(section.call.keywords) == set(kwargs)  # theorem1's `mode` feeds nothing
    write_reports_csv([run_configured(section, 7)], tmp_path / "section.csv")
    write_reports_csv([getattr(experiments, experiments.SECTIONS[kind][0])(**kwargs, seed=7)],
                      tmp_path / "runner.csv")
    assert (tmp_path / "section.csv").read_bytes() == (tmp_path / "runner.csv").read_bytes()


@pytest.mark.parametrize("kind", SECTION_CASES)
def test_a_runner_rebound_after_import_is_the_one_a_section_calls(monkeypatch, kind):
    # a tracer rebinds module names: the table holds the runner's name, not the function
    name = experiments.SECTIONS[kind][0]
    runner, calls = getattr(experiments, name), []
    monkeypatch.setattr(experiments, name, lambda *args, **kwargs: calls.append(kwargs) or runner(*args, **kwargs))
    report = run_configured(ExperimentConfig(kind, {"experiment": kind, **SECTION_CASES[kind][0]}), 5)
    assert len(calls) == 1 and calls[0]["seed"] == 5 and report.experiment == kind


@pytest.mark.parametrize("shift", [600, -600])
def test_sch_ratio_is_scale_invariant_at_extreme_amplitudes(shift):
    f = random_grid_1d(8, seed=11)
    scaled = DyadicGrid1D(f.bits, np.ldexp(f.samples, shift))
    assert sch_ratio_max(scaled) == sch_ratio_max(f) > 0
