from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wss import experiments, oracles
from wss.errors import UsageError
from wss.experiments import (
    ExperimentConfig,
    SummabilityReport,
    default_probes,
    iter_rodin_means,
    load_config,
    reports_csv_bytes,
    run_configured,
    run_rodin_1d,
    run_theorem1,
    run_theorem2,
    run_weak_type_suite,
    sch_ratio_max,
)
from wss.generators import FunctionSpec, generate_function, random_grid_1d
from wss.means import PhiFunction
from wss.transform import DyadicGrid1D

LAMBDAS = [0.25, 0.5, 1.0, 2.0, 4.0]


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
    stream = np.array([means for _, means in iter_rodin_means(f, phi, ms)])
    table = oracles.rodin_means_brute(f, phi, ms)
    np.testing.assert_allclose(stream, table, rtol=1e-12)
    np.testing.assert_array_equal((stream > 0.01).mean(axis=1), (table > 0.01).mean(axis=1))


@pytest.mark.parametrize("bits", range(1, 11), ids=lambda b: f"B={b}")
def test_rodin_stream_matches_table(bits):
    # Every m in 1..N, so m = 1, the block edges w - 1, w, w + 1, and N.  Up
    # to B = 9 the default block is the whole table (s clipped to B); at
    # B = 10 four blocks of 2^8 orders are chained.
    f = random_grid_1d(bits, seed=1500 + bits)
    _assert_stream_matches_table(f, PhiFunction.exp_minus_one(1.0), range(1, f.size + 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 8), st.integers(1, 8), st.integers(0, 10_000),
       st.booleans(), st.data())
def test_rodin_stream_matches_table_at_any_block_width(bits, level, s, seed, power, data):
    level, s = min(level, bits), min(s, bits)
    f = generate_function(f"random-step:level={level},dim=1@B={bits}", seed)
    phi = PhiFunction.power(2.0) if power else PhiFunction.exp_minus_one(1.0)
    ms = sorted(data.draw(st.sets(st.integers(1, f.size), min_size=1)))
    with mock.patch.object(experiments, "BLOCK_BYTES", 8 << (bits + s)):  # blocks of 2^s
        _assert_stream_matches_table(f, phi, ms)


def test_rodin_stream_with_grid_rows_past_the_block_budget():
    # At B = 19 one grid row alone is 4 MiB, over BLOCK_BYTES: blocks of 2 orders.
    from wss.sums import partial_sum_1d

    spec = "random-step:level=4,dim=1@B=19"
    f = generate_function(spec, 5)
    phi = PhiFunction.exp_minus_one(1.0)
    terms = [phi(np.abs(partial_sum_1d(f, k).samples - f.samples)) for k in (1, 2, 3)]
    rep = run_rodin_1d(spec, phi, [1, 3], seed=5)
    assert rep.value("mean_max", 1) == pytest.approx(terms[0].max(), rel=1e-12)
    assert rep.value("mean_max", 3) == pytest.approx((sum(terms) / 3).max(), rel=1e-12)


def test_weak_type_constant_function():
    rep = run_weak_type_suite("M", ["indicator-rect:0,1,0,1@B=4"], LAMBDAS)
    lams, vals = rep.series("normalized_max")
    np.testing.assert_allclose(vals, np.where(lams < 1.0, lams, 0.0))
    assert rep.value("suite_max") <= 1.0


def test_weak_type_zero_function():
    rep = run_weak_type_suite("V", ["indicator-rect:0,0@B=5"], LAMBDAS)
    assert rep.value("suite_max") == 0.0


def test_weak_type_validation():
    with pytest.raises(UsageError):
        run_weak_type_suite("W", ["indicator-rect:0,1,0,1@B=3"], LAMBDAS)
    with pytest.raises(UsageError):
        run_weak_type_suite("M", [], LAMBDAS)
    with pytest.raises(UsageError):
        run_weak_type_suite("V", ["indicator-rect:0,1,0,1@B=3"], LAMBDAS)  # needs 1D
    with pytest.raises(UsageError):
        run_weak_type_suite("M", ["indicator-rect:0,1,0,1@B=3"], None)


def test_weak_type_integral_ratios():
    rep = run_weak_type_suite("M1", ["random-step:level=3,dim=2@B=4"] * 3, seed=5)
    _, vals = rep.series("integral_ratio")
    assert len(vals) == 3 and np.all(vals > 0)
    rep2 = run_weak_type_suite("Sch-ratio", ["random-step:level=4,dim=1@B=5"] * 3, seed=6)
    _, ratios = rep2.series("sch_ratio")
    assert np.all(np.isfinite(ratios)) and rep2.value("suite_max") == ratios.max()


def test_weak_type_constants_stable_across_bits():
    # Recorded empirical constants should move by less than a factor of two
    # between neighboring bit depths on a fixed random-step family.
    lam = np.geomspace(1e-2, 1e2, 17).tolist()
    for operator, dim in (("M", 2), ("V", 1), ("M1", 2)):
        maxima = []
        for bits in (5, 6, 7):
            level = min(bits, 4) if dim == 2 else bits
            specs = [f"random-step:level={level},dim={dim}@B={bits}"] * 10
            rep = run_weak_type_suite(
                operator, specs, lam if operator in ("M", "V") else None, seed=17
            )
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


def test_csv_format_stability():
    rep = SummabilityReport("demo", "spike:level=2,target=10@B=5", 5, 7)
    rep.add("measure", 0.5, 1.0)
    rep.add("value", 3.0, 1.0 / 3.0)
    got = reports_csv_bytes([rep]).decode()
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


@pytest.mark.parametrize("shift", [600, -600])
def test_sch_ratio_is_scale_invariant_at_extreme_amplitudes(shift):
    f = random_grid_1d(8, seed=11)
    scaled = DyadicGrid1D(f.bits, np.ldexp(f.samples, shift))
    assert sch_ratio_max(scaled) == sch_ratio_max(f) > 0
