import contextlib
import csv
import gc
import io
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import traced_peak_ratio
from wss.cli import main
from wss.errors import UsageError
from wss.experiments import CSV_FIELDS, MAX_COUNT, OPERATORS, _fmt, load_config
from wss.generators import FunctionSpec, generate_function
from wss.sums import partial_sum_1d
from wss.transform import DyadicGrid2D

ROOT = Path(__file__).resolve().parents[1]

CONFIG = """\
[t1]
experiment = theorem1
spec = spike:level=2,target=10@B=4
lambda = 0.5,1,2,4,8,16
seed = 7

[weak]
experiment = weak_type
operator = M
spec = random-step:level=3,dim=2@B=4
count = 3
lambda = 0.1,0.2,0.5,1,2
"""


# two B = 12 sections on their 4 x 4 and 8 x 8 cells
B12_CONFIG = "".join(f"[{name}]\nexperiment = theorem1\nspec = {spec}@B=12\nlambda = 0.5,1,2,4,8,16\n\n"
                     for name, spec in (("spike", "spike:level=2,target=10"), ("step", "random-step:level=3,dim=2")))


@pytest.mark.parametrize("config, threads", [(CONFIG, 4), (B12_CONFIG, 2)], ids=["demo", "b12"])
def test_run_writes_report_and_is_thread_invariant(tmp_path, capsys, config, threads):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(config)
    assert main(["run", str(cfg), "--out", str(tmp_path / "a"), "--seed", "3"]) == 0
    assert main([
        "run", str(cfg), "--out", str(tmp_path / "b"), "--seed", "3", "--threads", str(threads),
    ]) == 0
    a = (tmp_path / "a" / "report.csv").read_bytes()
    b = (tmp_path / "b" / "report.csv").read_bytes()
    assert a == b
    out = capsys.readouterr().out
    assert all(f"{name}:" in out for name in re.findall(r"^\[(\w+)\]", config, re.M))


def test_a_failed_section_cancels_the_queued_ones(tmp_path, capsys, monkeypatch):
    # at --threads 2, section 1 fails at once while sections 0 and 2 run: the
    # sections still queued when its error is read never start
    cfg = tmp_path / "six.ini"
    cfg.write_text("".join(f"[s{i}]\nexperiment = theorem1\nspec = spike:level=2,target=10@B=4\nlambda = 1\n\n"
                           for i in range(6)))
    started = []

    def run(section, seed):
        started.append(section.name)
        if section.name == "s1":
            raise UsageError("section s1 failed")
        time.sleep(0.2)

    monkeypatch.setattr("wss.cli.run_configured", run)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out"), "--threads", "2"]) == 2
    assert capsys.readouterr().err == "error: section s1 failed\n"
    assert "s1" in started and len(started) < 6
    assert not (tmp_path / "out" / "report.csv").exists()


def test_gen_dump_round_trip(tmp_path):
    target = tmp_path / "grid.csv"
    assert main(["gen", "walsh-tensor:3,6@B=3", "--out", str(target)]) == 0
    with open(target, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 64
    grid = generate_function("walsh-tensor:3,6@B=3")
    for row in rows:
        i = int(row["param"].split("=", 1)[1])
        j = int(row["lambda_or_m"])
        assert float(row["value"]) == grid.samples[i, j]


def test_gen_dump_of_a_1d_grid(tmp_path):
    spec, target = "random-step:level=3,dim=1@B=4", tmp_path / "grid.csv"
    assert main(["gen", spec, "--seed", "2", "--out", str(target)]) == 0
    with open(target, newline="") as handle:
        rows = [(row["param"], int(row["lambda_or_m"]), float(row["value"])) for row in csv.DictReader(handle)]
    assert rows == [("grid1d", j, v) for j, v in enumerate(generate_function(spec, 2).samples)]


def test_gen_dump_writes_each_row_as_it_is_formatted(tmp_path):
    # the grid's 4 x 4 cells and the row in hand, no list of rows and no
    # 2^18 samples: about 0.12 grids measured, where one csv row per sample
    # read 1.2 and one report row per sample 46
    spec, target = "spike:level=2,target=10@B=9", tmp_path / "grid.csv"

    def run(_):
        assert main(["gen", spec, "--out", str(target)]) == 0

    assert traced_peak_ratio(run, generate_function(spec)) <= 0.5
    with open(target, newline="") as handle:
        assert sum(1 for _ in handle) == 1 + (1 << 18)


@pytest.mark.parametrize("spec", ["spike:level=1,target=2@B=2", "random-step:level=2,dim=1@B=4"])
def test_gen_negative_seed_exits_2_before_generation(tmp_path, capsys, monkeypatch, spec):
    def refuse(*args):
        raise AssertionError("generate_function called")

    monkeypatch.setattr("wss.cli.generate_function", refuse)
    target = tmp_path / "g.csv"
    assert main(["gen", spec, "--seed", "-3", "--out", str(target)]) == 2
    assert capsys.readouterr().err == "error: --seed must be nonnegative, got -3\n"
    assert not target.exists()


def test_gen_writes_the_grid_and_refuses_dump(tmp_path, capsys):
    # gen writes the grid; --dump is no option of it
    target = tmp_path / "g.csv"
    assert main(["gen", "walsh-tensor:3@B=3", "--out", str(target)]) == 0
    with open(target, newline="") as handle:
        rows = [(row["param"], int(row["lambda_or_m"]), float(row["value"])) for row in csv.DictReader(handle)]
    assert rows == [("grid1d", j, v) for j, v in enumerate([1, 1, -1, -1, -1, -1, 1, 1])]  # w_3 on 8 points
    assert main(["gen", "walsh-tensor:3@B=3", "--dump"]) == 2
    assert capsys.readouterr() == ("", "error: unrecognized arguments: --dump\n")


def test_gen_1d_dump(tmp_path):
    target = tmp_path / "g1.csv"
    assert main(["gen", "indicator-rect:0,0.5@B=3", "--out", str(target)]) == 0
    with open(target, newline="") as handle:
        rows = list(csv.DictReader(handle))
    values = np.array([float(r["value"]) for r in rows])
    np.testing.assert_array_equal(values, [1, 1, 1, 1, 0, 0, 0, 0])


def test_bad_spec_reports_usage_error(capsys):
    assert main(["gen", "walsh-tensor:99@B=3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_config_reports_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[x]\nexperiment = theorem1\nspec = walsh-tensor:3@B=4\nlambda = 1,2\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "error:" in capsys.readouterr().err


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 8 and "FAIL" not in out


def test_demo_report_matches_golden(tmp_path):
    # tests/data/demo_report.csv was written by the table-based Sch-ratio and
    # the per-n transform V; a faster kernel may change the rounding only.
    assert main(["run", str(ROOT / "configs" / "demo.ini"), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "report.csv", newline="") as handle:
        got = list(csv.reader(handle))
    with open(ROOT / "tests" / "data" / "demo_report.csv", newline="") as handle:
        want = list(csv.reader(handle))
    assert [row[:-1] for row in got] == [row[:-1] for row in want]
    np.testing.assert_allclose(
        [float(row[-1]) for row in got[1:]], [float(row[-1]) for row in want[1:]], rtol=1e-12
    )


def test_sch_ratio_runs_past_the_walsh_matrix_cap(tmp_path):
    cfg = tmp_path / "deep.ini"
    cfg.write_text(
        "[deep]\nexperiment = weak_type\noperator = Sch-ratio\n"
        "spec = random-step:level=6,dim=1@B=14\n"
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "report.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [r["param"] for r in rows] == ["sch_ratio", "suite_max"]
    assert float(rows[0]["value"]) > 0


def test_rodin_runs_past_the_old_table_cap(tmp_path):
    spec = "random-step:level=3,dim=1@B=14"
    cfg = tmp_path / "deep.ini"
    cfg.write_text(f"[deep]\nexperiment = rodin\nspec = {spec}\nm = 4,16\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "report.csv", newline="") as handle:
        rows = [r for r in csv.DictReader(handle) if r["param"] == "mean_max"]
    f = generate_function(spec, int(rows[0]["seed"]))
    terms = [np.expm1(np.abs(partial_sum_1d(f, k).samples - f.samples)) for k in range(1, 17)]
    assert [r["lambda_or_m"] for r in rows] == ["4", "16"]
    for row in rows:
        m = int(row["lambda_or_m"])
        defining = float((sum(terms[:m]) / m).max())
        np.testing.assert_allclose(float(row["value"]), defining, rtol=1e-12)


@pytest.mark.parametrize(
    "text",
    [
        "[s]\nexperiment = rodin\nspec = random-step:level=3,dim=1,amp=1000@B=6\n"
        "phi = exp_minus_one:1\nm = 4,8\n",
        "[s]\nexperiment = rodin\nspec = random-step:level=3,dim=1,amp=1000@B=6\n"
        "phi = power:400\nm = 4,8\n",
        "[s]\nexperiment = rodin\nspec = random-step:level=3,dim=1,amp=1000@B=14\n"
        "phi = exp_minus_one:1\nm = 4,8\n",
        "[s]\nexperiment = rodin\nspec = random-step:level=3,dim=1,amp=1.5e154@B=6\n"
        "phi = power:2\nm = 4,8\n",
        "[s]\nexperiment = theorem2\nspec = random-step:level=2,dim=2,amp=1000@B=5\nm = 4,8\n",
    ],
    ids=["rodin-exp", "rodin-power", "rodin-past-old-cap", "rodin-finite-terms", "theorem2"],
)
def test_overflowed_phi_means_exit_2(tmp_path, capsys, text):
    cfg = tmp_path / "huge.ini"
    cfg.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning would be a leak too
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "overflowed float64" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "report.csv").exists()


THEOREM2 = "[s]\nexperiment = theorem2\nspec = indicator-rect:0,0.5,0,0.5@B=4\nm = 4,8\n"
RODIN = "[s]\nexperiment = rodin\nspec = random-step:level=3,dim=1@B=5\nm = 4,8\n"
WEAK = "[s]\nexperiment = weak_type\noperator = V\nspec = random-step:level=3,dim=1@B=5\n"

# spellings int() and float() would stretch to read: "1_0" as 10, Arabic-Indic "16" as 16
STRETCHED = {"underscore": "1_0", "exponent-underscore": "1e1_0",
             "arabic-indic": "\u0661\u0666", "arabic-indic-fraction": "\u0663.5"}
# each config key that reads a number: its section with the number as {}, and what the number must be
INTEGER, FINITE = "an integer", "a finite number"
NUMBER_KEYS = {
    "m": (THEOREM2.replace("m = 4,8", "m = 4,{}"), INTEGER),
    "lambda": ("[s]\nexperiment = theorem1\nspec = spike:level=2,target=10@B=4\nlambda = 0.5,{}\n", FINITE),
    "a": (THEOREM2 + "a = {}\n", FINITE),
    "eps": (RODIN + "eps = {}\n", FINITE),
    "count": (WEAK + "lambda = 0.5,1\ncount = {}\n", INTEGER),
    "seed": (THEOREM2 + "seed = {}\n", INTEGER),
    "probes": (THEOREM2 + "probes = 0.25,{}\n", FINITE),
    "phi": (RODIN + "phi = power:{}\n", FINITE),
}
STRETCHED_IDS = [f"{key}-{name}" for key in NUMBER_KEYS for name in STRETCHED]


def _stretched_error(key: str, text: str) -> str:
    """The one line a stretched number under `key` in section 's' exits with."""
    what = f"phi parameter of 'power:{text}'" if key == "phi" else f"{key!r} in section 's'"
    return f"error: {what} must be {NUMBER_KEYS[key][1]}, got {text!r}\n"


# (config, the error line that names its key and text) for every key and spelling
STRETCHED_CONFIGS = [(section.format(text), _stretched_error(key, text))
                     for key, (section, _) in NUMBER_KEYS.items() for text in STRETCHED.values()]


@pytest.mark.parametrize(
    "text, error",
    [*((text, None) for text in [
        "[s]\nexperiment = theorem1\nspec = spike:level=2,target=10@B=4\nlambda = 0.5,abc\n",
        THEOREM2.replace("m = 4,8", "m = 4,x"),
        THEOREM2.replace("m = 4,8", "m = 4.7"),
        THEOREM2 + "a = fast\n",
        THEOREM2 + "probes = 0.25,y\n",
        THEOREM2 + "seed = q\n",
        THEOREM2.replace("0,0.5,0,0.5", "0,nan,0,0.5"),
        RODIN + "seed = -1\n",
        RODIN + "eps = tiny\n",
        RODIN + "phi = power:x\n",
        RODIN.replace("dim=1@", "dim=1,seed=q@"),
        RODIN.replace("level=3", "level=three"),
        WEAK + "lambda = 0.5,1\ncount = two\n",
        WEAK.replace("level=3,dim=1", "level=3,dim=1,amp=big") + "lambda = 0.5\n",
        "[s\nexperiment = theorem1\n",
        THEOREM2 + "[broken\nm = 4\n",
    ]), *STRETCHED_CONFIGS],
    ids=[
        "lambda", "m-word", "m-fraction", "a", "probes", "seed-word", "spec-nan",
        "seed-negative", "eps", "phi", "spec-seed", "spec-level", "count", "spec-amp",
        "header-first", "header-later", *STRETCHED_IDS,
    ],
)
def test_config_grammar_errors_exit_2(tmp_path, capsys, monkeypatch, text, error):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text, encoding="utf-8")
    ran = []
    monkeypatch.setattr("wss.cli.run_configured", lambda *a: ran.append(a))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not ran and not (tmp_path / "out").exists()
    assert error is None or err == error  # a stretched number: its key and text, in the one reader's words


@pytest.mark.parametrize(
    "text, key, kind",
    [
        ("[s]\nexperiment = theorem1\nspec = spike:level=2,target=10@B=4\nlambdas = 1,2\n",
         "lambdas", "theorem1"),
        (THEOREM2 + "probe = 0.25,0.25\n", "probe", "theorem2"),
        (RODIN + "epsilon = 0.5\n", "epsilon", "rodin"),
        (WEAK + "lambda = 0.5,1\ncounts = 5\n", "counts", "weak_type"),
        ("[ok]\n" + CONFIG.split("\n", 1)[1] + "\n" + THEOREM2.replace("[s]", "[late]")
         + "mode = streaming\n", "mode", "theorem2"),
    ],
    ids=["theorem1", "theorem2", "rodin", "weak_type", "mode-outside-theorem1"],
)
def test_misspelled_config_key_exits_2_before_any_section(tmp_path, capsys, monkeypatch,
                                                           text, key, kind):
    # a key the kind does not read would leave its default in force unnoticed
    cfg = tmp_path / "typo.ini"
    cfg.write_text(text)
    ran = []
    monkeypatch.setattr("wss.cli.run_configured", lambda *a: ran.append(a))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    section = "late" if key == "mode" else "s"
    assert err.startswith(f"error: unknown key {key!r} in section {section!r}: a {kind} section takes")
    assert err.count("\n") == 1 and "experiment, seed, spec" in err and not ran


@pytest.mark.parametrize("spec, bad", [
    ("indicator-rect:0,0.5,0,0.5@B=4", "m = 4.7"),
    ("indicator-rect:0,0.5,0,0.5@B=4", "m = 4,8\nprobes = 0.25"),
    ("indicator-rect:0,0.5,0,0.5@B=4", "m = 4,8\nseed = q"),
    ("indicator-rect:0,0.5,0,0.5@B=4", "m = 4,8\na = fast"),
    ("spike:level=2,target=10,level@B=4", "m = 4,8"),
], ids=["m-fraction", "probes-odd", "seed-word", "a-word", "spec"])
def test_a_bad_value_in_a_later_section_exits_2_before_any_section(tmp_path, capsys, monkeypatch, spec, bad):
    # every value is parsed at load: the valid theorem1 section does not run
    # first, and the output directory is never made
    cfg = tmp_path / "late.ini"
    cfg.write_text("[ok]\nexperiment = theorem1\nspec = random-step:level=8,dim=2@B=8\nlambda = 1\n\n"
                   f"[late]\nexperiment = theorem2\nspec = {spec}\n{bad}\n")
    ran = []
    monkeypatch.setattr("wss.cli.run_configured", lambda *a: ran.append(a))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and not ran
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("late", [
    "experiment = theorem2\nspec = indicator-rect:0,0.5,0,0.5@B=4\nm = 4,99",
    "experiment = theorem2\nspec = indicator-rect:0,0.5,0,0.5@B=4\nm = 4\na = 0",
    "experiment = theorem2\nspec = indicator-rect:0,0.5,0,0.5@B=4\nm = 4\nprobes = 0.25,1.5",
    "experiment = theorem2\nspec = indicator-rect:0,0.5,0,0.5@B=4\nm = 4\nprobes = 0.1,0.1,0.1000001,0.1",
    "experiment = theorem2\nspec = random-step:level=2,dim=1@B=4\nm = 4",
    "experiment = theorem1\nspec = spike:level=2,target=10@B=4\nlambda = 0.5,0.1",
    "experiment = rodin\nspec = random-step:level=3,dim=1@B=4\nm = 4,99",
    "experiment = rodin\nspec = random-step:level=3,dim=1@B=4\nm = 4\neps = 0",
    "experiment = weak_type\noperator = Q\nspec = random-step:level=3,dim=1@B=4",
    "experiment = weak_type\noperator = V\nspec = random-step:level=3,dim=1@B=4\nlambda = 0.5,0.1",
    "experiment = weak_type\noperator = V\nspec = random-step:level=3,dim=1@B=4",
    "experiment = weak_type\noperator = M1\nspec = random-step:level=3,dim=2@B=4\ncount = 0",
    "experiment = rodin\nspec = random-step:level=3,dim=1@B=4\nm = 4\nseed = -3",
    *(f"experiment = theorem1\nspec = {spec}\nlambda = 1" for spec in (
        "random-step:level=99,dim=2@B=4",
        "random-spectrum:support=0,dim=2@B=4",
        "random-spectrum:support=17,dim=2@B=4",
        "random-step:level=2,amp=abc,dim=2@B=4",
        "spike:level=2,target=-1@B=4",
        "random-step:level=2,seed=-2,dim=2@B=4",
        "random-step:level=2,dim=2@B=13",
        "walsh-tensor:3,16@B=4",
        "walsh-tensor:3,-1@B=4",
        "spike:target=10@B=4",
        "random-step:level=1,level=3,dim=2@B=4",
    )),
    *(config.split("\n", 1)[1].rstrip("\n") for config, _ in STRETCHED_CONFIGS),
], ids=["theorem2-m", "theorem2-a", "theorem2-probe", "theorem2-probe-label", "theorem2-dim", "theorem1-lambda", "rodin-m",
        "rodin-eps", "operator", "weak-lambda", "weak-no-lambda", "weak-count", "section-seed",
        "spec-level", "spec-support-0", "spec-support-2^B+1", "spec-amp", "spec-target", "spec-seed",
        "spec-2d-bits", "spec-walsh-2^B", "spec-walsh-negative", "spec-no-level", "spec-repeated-key",
        *STRETCHED_IDS])
def test_a_bad_range_in_a_later_section_exits_2_before_any_section(tmp_path, capsys, monkeypatch, late):
    # the runners' own argument checks and the spec parse, which checks every
    # range of the spec, run at load, so the valid theorem1 section does not
    # run first and the output directory is never made
    cfg = tmp_path / "late.ini"
    cfg.write_text("[ok]\nexperiment = theorem1\nspec = random-step:level=8,dim=2@B=8\nlambda = 1\n\n"
                   f"[late]\n{late}\n", encoding="utf-8")
    ran = []
    monkeypatch.setattr("wss.cli.run_configured", lambda *a: ran.append(a))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and not ran
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("operator", [op for op, (_, _, row) in OPERATORS.items() if row != "empirical_constant"])
@pytest.mark.parametrize("first", [True, False], ids=["first", "later"])
def test_a_lambda_grid_an_operator_would_ignore_exits_2_at_load(tmp_path, capsys, monkeypatch, operator, first):
    # M1, M2 and Sch-ratio read no grid: one given is refused before any section runs
    weak = (f"[weak]\nexperiment = weak_type\noperator = {operator}\n"
            f"spec = random-step:level=3,dim={OPERATORS[operator][1] or 2}@B=4\nlambda = 0.5,1\n\n")
    ok = "[ok]\nexperiment = theorem1\nspec = random-step:level=3,dim=2@B=4\nlambda = 1\n\n"
    cfg = tmp_path / "grid.ini"
    cfg.write_text(weak + ok if first else ok + weak)
    ran = []
    monkeypatch.setattr("wss.cli.run_configured", lambda *a: ran.append(a))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: operator {operator} takes no lambda grid\n" and not ran
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("count", [10**30, MAX_COUNT + 1])
def test_a_weak_type_count_past_the_cap_exits_2_at_load(tmp_path, capsys, monkeypatch, count):
    # checked at load, before any section runs
    cfg = tmp_path / "count.ini"
    cfg.write_text(f"[weak]\nexperiment = weak_type\noperator = M1\n"
                   f"spec = random-step:level=3,dim=2@B=4\ncount = {count}\n")
    ran = []
    monkeypatch.setattr("wss.cli.run_configured", lambda *a: ran.append(a))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: weak-type count must be within [1, {MAX_COUNT}], got {count}\n" and not ran
    cfg.write_text(cfg.read_text().replace(f"count = {count}", f"count = {MAX_COUNT}"))
    (section,) = load_config(str(cfg))
    assert section.call.keywords["count"] == MAX_COUNT


def _python(*args, cwd=None):
    """A fresh interpreter on this checkout's wss."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path), cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_run_does_not_import_the_oracles():
    # `wss run` never reaches the selftest battery, so importing the CLI
    # leaves it and its brute-force oracles unloaded; nor does it load the
    # thread pool (and its logging) or dataclasses, which only cost start-up
    done = _python("-c", "import sys, wss.cli; print(*sys.modules)")
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert "wss.cli" in loaded and "wss.selftest" not in loaded and "wss.oracles" not in loaded
    assert not {"dataclasses", "concurrent.futures", "logging", "numpy.random"} & set(loaded)


@pytest.mark.parametrize("section", [
    "experiment = theorem1\nspec = spike:level=2,target=10@B=4\nlambda = 1,2\n\n"
    "[ind]\nexperiment = theorem2\nspec = indicator-rect:0,0.5,0,0.5@B=4\nm = 4,8\n\n"
    "[walsh]\nexperiment = rodin\nspec = walsh-tensor:3+9@B=5\nm = 4,16\n",
    "experiment = theorem1\nspec = random-step:level=2,dim=2@B=4\nlambda = 1,2\n",
    "experiment = theorem2\nspec = random-spectrum:support=5,dim=2@B=4\nm = 4,8\n",
], ids=["spike-indicator-walsh", "random-step", "random-spectrum"])
def test_run_never_loads_numpy_random(tmp_path, section):
    # wss draws its PCG64 stream itself: numpy.random, and the secrets, hashlib and
    # OpenSSL it pulls in, cost 10-12 ms and about 6 MB of every run that loads them
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[s]\n" + section)
    code = ("import sys; from wss.cli import main\n"
            "assert main(['run', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "print(*sorted({'numpy.random', 'secrets', '_hashlib'} & set(sys.modules)))\n")
    done = _python("-c", code, str(cfg), str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == ""


def test_the_thread_pool_loads_only_past_one_thread(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(CONFIG)
    code = (
        "import sys; from wss.cli import main\n"
        "for threads in ('1', '2'):\n"
        "    assert main(['run', sys.argv[1], '--out', threads, '--threads', threads]) == 0\n"
        "    print('concurrent.futures' in sys.modules)\n")
    done = _python("-c", code, str(cfg), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert [line for line in done.stdout.splitlines() if line in ("True", "False")] == ["False", "True"]
    assert (tmp_path / "1" / "report.csv").read_bytes() == (tmp_path / "2" / "report.csv").read_bytes()


def test_main_called_in_process_freezes_nothing(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(CONFIG)
    before = gc.get_freeze_count()
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert main(["run", str(tmp_path / "missing.ini")]) == 2
    assert gc.get_freeze_count() == before


def test_wss_run_as_a_program_writes_the_in_process_report(tmp_path, capsys):
    # the program path freezes the import-time objects before it runs
    cfg = tmp_path / "exp.ini"
    cfg.write_text(CONFIG)
    assert main(["run", str(cfg), "--out", str(tmp_path / "in"), "--seed", "5"]) == 0
    done = _python("-m", "wss.cli", "run", str(cfg), "--out", str(tmp_path / "child"), "--seed", "5")
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith(f"wrote {tmp_path / 'child' / 'report.csv'}\n") and not done.stderr
    assert (tmp_path / "child" / "report.csv").read_bytes() == (tmp_path / "in" / "report.csv").read_bytes()

    cfg.write_text("experiment = theorem1\n")  # no section header
    done = _python("-m", "wss.cli", "run", str(cfg), "--out", str(tmp_path / "bad"))
    assert done.returncode == 2 and not done.stdout
    assert re.fullmatch(r"error: config file .* is malformed: .*\n", done.stderr), done.stderr


def test_a_negative_seed_flag_exits_2_before_any_section(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "seed.ini"
    cfg.write_text("[ok]\nexperiment = theorem1\nspec = random-step:level=3,dim=2@B=4\nlambda = 1\n")
    ran = []
    monkeypatch.setattr("wss.cli.run_configured", lambda *a: ran.append(a))
    assert main(["run", str(cfg), "--seed", "-1", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: --seed must be nonnegative, got -1\n" and not ran
    assert not (tmp_path / "out").exists()


# "-1_0" and "-x" as their own argument: argparse took them for options and printed its usage block
BAD_FLAG_VALUES = {**STRETCHED, "word": "x", "negative-underscore": "-1_0", "dash-word": "-x"}


@pytest.mark.parametrize("text", BAD_FLAG_VALUES.values(), ids=BAD_FLAG_VALUES.keys())
@pytest.mark.parametrize("flag", ["--seed", "--threads"])
def test_a_bad_run_flag_exits_2_before_any_section(tmp_path, capsys, monkeypatch, flag, text):
    # argparse's type=int read "1_0" as 10, accepted an Arabic-Indic "1" and
    # answered a word with its usage block
    cfg = tmp_path / "flag.ini"
    cfg.write_text("[ok]\nexperiment = theorem1\nspec = random-step:level=3,dim=2@B=4\nlambda = 1\n")
    ran = []
    monkeypatch.setattr("wss.cli.run_configured", lambda *a: ran.append(a))
    assert main(["run", str(cfg), flag, text, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {flag} must be an integer, got {text!r}\n" and not ran
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", BAD_FLAG_VALUES.values(), ids=BAD_FLAG_VALUES.keys())
def test_a_bad_gen_seed_exits_2_before_generation(tmp_path, capsys, monkeypatch, text):
    def refuse(*args):
        raise AssertionError("generate_function called")

    monkeypatch.setattr("wss.cli.generate_function", refuse)
    target = tmp_path / "g.csv"
    assert main(["gen", "random-step:level=2,dim=1@B=4", "--seed", text, "--out", str(target)]) == 2
    assert capsys.readouterr().err == f"error: --seed must be an integer, got {text!r}\n"
    assert not target.exists()


@pytest.mark.parametrize("argv", [["--se", "-1_0"], ["--th", "-1_0"], ["--seed=-1_0"], ["--threads", "-1_0"]])
def test_a_flag_value_after_a_dash_reaches_the_number_reader_as_a_program(tmp_path, argv):
    # spelled as argparse accepts the flag: whole, abbreviated or joined by "="
    cfg = tmp_path / "flag.ini"
    cfg.write_text("[ok]\nexperiment = theorem1\nspec = random-step:level=3,dim=2@B=4\nlambda = 1\n")
    done = _python("-m", "wss.cli", "run", str(cfg), *argv, "--out", str(tmp_path / "out"))
    flag = "--seed" if argv[0].startswith("--s") else "--threads"
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: {flag} must be an integer, got '-1_0'\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["run"], ["run", "exp.ini", "--no-such-flag"], [],
                                  ["gen", "walsh-tensor:3@B=3", "--threads", "2"],
                                  ["gen", "walsh-tensor:3@B=3", "--threads", "-1_0"], ["selftest", "--seed", "1"],
                                  ["--seed", "-1_0", "run", "x.ini"], ["run", "x.ini", "--seed", "x", "--bogus"]],
                         ids=["no-config", "unknown-flag", "no-command", "gen-threads", "gen-threads-dash",
                              "selftest-seed", "seed-before-command", "bad-seed-and-unknown-flag"])
def test_a_wss_argparse_fault_is_one_error_line(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc")
@pytest.mark.parametrize("setting, threads", [(None, 1), ("2", 2)], ids=["default", "user-set"])
def test_importing_the_cli_starts_no_blas_worker(setting, threads):
    # no wss path calls BLAS, and OpenBLAS's idle worker spins; a user's setting stands
    if threads > 1 and (os.cpu_count() or 1) < 2:
        pytest.skip("OpenBLAS starts no worker on a 1-core host")
    if threads > 1 and "openblas" not in np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]:
        pytest.skip("numpy is not built on OpenBLAS")
    env = {key: value for key, value in _env().items() if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update({"OPENBLAS_NUM_THREADS": setting} if setting else {})
    done = subprocess.run([sys.executable, "-c", "import os, wss.cli; print(len(os.listdir('/proc/self/task')))"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, f"{threads}\n"), done.stderr


def test_importing_the_library_leaves_blas_alone():
    # the cap is the command's: a program that imports wss keeps numpy's own
    # BLAS threads, and perfbench's set-up child among them
    env = {key: value for key, value in _env().items() if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    code = ("import os, {}; task = '/proc/self/task'; "
            "print('OPENBLAS_NUM_THREADS' in os.environ, len(os.listdir(task)) if os.path.isdir(task) else None)")
    library, numpy_only = (subprocess.run([sys.executable, "-c", code.format(module)], env=env, capture_output=True,
                                          text=True, timeout=120) for module in ("wss.experiments", "numpy"))
    assert library.returncode == 0 and library.stdout.startswith("False "), library.stderr
    if not Path("/proc/self/task").is_dir():
        pytest.skip("counts threads in /proc")
    assert library.stdout == numpy_only.stdout, numpy_only.stderr


def _env():
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)


def test_shipped_configs_pass_the_key_check():
    from wss.experiments import load_config

    paths = sorted(ROOT.glob("configs/**/*.ini")) + sorted((ROOT / "perfbench" / "workloads").glob("*.ini"))
    assert len(paths) >= 7
    for path in paths:
        assert load_config(path)


@pytest.mark.parametrize("amp", ["1e200", "1e-200"])
def test_theorem1_at_extreme_amplitudes(tmp_path, amp):
    cfg = tmp_path / "amp.ini"
    scale = float(amp)
    cfg.write_text(
        f"[amp]\nexperiment = theorem1\nspec = random-step:level=3,dim=2,amp={amp}@B=5\n"
        f"lambda = {0.1 * scale:g},{scale:g}\n"
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "report.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    values = [float(r["value"]) for r in rows]
    assert np.isfinite(values).all()
    # a random step of amplitude A has pointwise BMO well above A / 10
    assert [float(r["value"]) for r in rows if r["param"] == "measure"][0] > 0


def _weak_type_extremes(amp):
    scale = float(amp)
    sections = [("v", "V", 1), ("v1", "V1", 2), ("v2", "V2", 2)]
    text = "".join(
        f"[{name}]\nexperiment = weak_type\noperator = {op}\n"
        f"spec = random-step:level=3,dim={dim},amp={amp}@B=6\n"
        f"lambda = {0.1 * scale!r},{0.3 * scale!r}\n"
        for name, op, dim in sections
    )
    return text + (
        "[sch]\nexperiment = weak_type\noperator = Sch-ratio\n"
        f"spec = random-step:level=4,dim=1,amp={amp}@B=8\n"
    )


def _report_values(tmp_path, text, name, capsys):
    cfg = tmp_path / f"{name}.ini"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--out", str(tmp_path / name)]) == 0
    assert capsys.readouterr().err == ""
    with open(tmp_path / name / "report.csv", newline="") as handle:
        return [(r["experiment"], r["param"], float(r["value"])) for r in csv.DictReader(handle)]


@pytest.mark.parametrize("amp", ["1e200", "1e-200"])
def test_schipp_operators_at_extreme_amplitudes(tmp_path, capsys, amp):
    # lambda scales with the amplitude, so every reported value is scale-free
    base = _report_values(tmp_path, _weak_type_extremes("1"), "base", capsys)
    got = _report_values(tmp_path, _weak_type_extremes(amp), "amp", capsys)
    assert [row[:2] for row in got] == [row[:2] for row in base]
    values = np.array([row[2] for row in got])
    assert np.isfinite(values).all() and values.max() > 0
    np.testing.assert_allclose(values, [row[2] for row in base], rtol=1e-12, atol=0)


def _run_quietly(tmp_path, text):
    """Exit code of `wss run` on `text`, with any numpy warning raised as an error."""
    cfg = tmp_path / "huge.ini"
    cfg.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(["run", str(cfg), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize(
    "section",
    [
        "operator = M\nspec = random-step:level=4,amp=1e300@B=10\nlambda = 1e295,1e299\n",
        "operator = M1\nspec = random-step:level=4,amp=1e302@B=10\n",
        "operator = V\nspec = random-step:level=6,dim=1,amp=1e305@B=16\nlambda = 1e300,1e304\n",
    ],
    ids=["M", "M1", "V"],
)
def test_weak_type_constants_at_huge_amplitudes(tmp_path, capsys, section):
    # each gauge is a mean that fits in float64 although the sum behind it does not
    assert _run_quietly(tmp_path, "[s]\nexperiment = weak_type\n" + section) == 0
    assert capsys.readouterr().err == ""
    with open(tmp_path / "out" / "report.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    constants = [float(r["value"]) for r in rows if r["param"] != "normalized_max"]
    assert constants and all(0 < c < np.inf for c in constants)


@pytest.mark.parametrize(
    "section, needs",
    [
        ("experiment = theorem1\nspec = walsh-tensor:3@B=4\nlambda = 1", "theorem1 experiment needs a 2D"),
        ("experiment = theorem1\nspec = random-spectrum:support=1024,dim=1@B=24\nlambda = 1",
         "theorem1 experiment needs a 2D"),
        ("experiment = theorem2\nspec = random-step:level=1,dim=1@B=4\nm = 1", "theorem2 experiment needs a 2D"),
        ("experiment = rodin\nspec = spike:level=1,target=2@B=4\nm = 1", "rodin experiment needs a 1D"),
        ("experiment = weak_type\noperator = M\nspec = random-step:level=1,dim=1@B=4\nlambda = 1",
         "operator M needs a 2D"),
        ("experiment = weak_type\noperator = M2\nspec = indicator-rect:0,0.5@B=4", "operator M2 needs a 2D"),
        ("experiment = weak_type\noperator = V\nspec = random-step:level=1@B=4\nlambda = 1",
         "operator V needs a 1D"),
        ("experiment = weak_type\noperator = Sch-ratio\nspec = walsh-tensor:1,2@B=4", "operator Sch-ratio needs a 1D"),
        ("experiment = weak_type\noperator = M1\nspec = random-step:level=1,dim=3@B=13", "dim must be 1 or 2, got 3"),
    ],
)
def test_a_spec_of_the_wrong_dimension_exits_2_before_generation(tmp_path, capsys, monkeypatch, section, needs):
    def refuse(*args):
        raise AssertionError("generate_function called")

    monkeypatch.setattr("wss.experiments.generate_function", refuse)
    assert _run_quietly(tmp_path, "[s]\n" + section + "\n") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needs in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "text, gauge",
    [
        ("[s]\nexperiment = weak_type\noperator = M\n"
         "spec = random-step:level=4,amp=1e308@B=6\nlambda = 1e300\n", "alpha=1"),
        ("[s]\nexperiment = theorem1\nspec = random-step:level=3,dim=2,amp=1e305@B=5\n"
         "lambda = 1e300\n", "alpha=2"),
    ],
    ids=["M-1e308", "theorem1-1e305"],
)
def test_gauge_beyond_float64_exits_2_naming_it(tmp_path, capsys, text, gauge):
    assert _run_quietly(tmp_path, text) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: entropy gauge") and gauge in err and "Traceback" not in err


@pytest.mark.parametrize(
    "spec, message",
    [
        ("random-step:level=2,sead=7,dim=2@B=3", "unknown key 'sead'"),
        ("indicator-rect:0,0.5,0,0.5,color=3@B=3", "unknown key 'color'"),
        ("random-step:level=3,dim=2,amp=1e308@B=5", "Walsh transform overflows float64"),
        ("random-step:level=3,dim=2,7@B=5", "takes key=value items only, got '7'"),
    ],
    ids=["misspelt-seed", "indicator-key", "butterfly-overflow", "stray-positional"],
)
def test_bad_spec_exits_2_with_one_error_line(tmp_path, capsys, spec, message):
    text = f"[s]\nexperiment = theorem1\nspec = {spec}\nlambda = 1\n"
    gen_spec = spec.replace("random-step:level=3,dim=2", "random-spectrum:support=4,dim=1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning would be a leak
        assert _run_quietly(tmp_path, text) == 2
        run_err = capsys.readouterr().err
        assert main(["gen", gen_spec, "--out", str(tmp_path / "g.csv")]) == 2
        gen_err = capsys.readouterr().err
    for err in (run_err, gen_err):
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not (tmp_path / "out" / "report.csv").exists() and not (tmp_path / "g.csv").exists()


def test_gen_dump_to_stdout_equals_the_file(tmp_path, capsys):
    for spec in ("walsh-tensor:3,6@B=3", "indicator-rect:0,0.5@B=3"):
        assert main(["gen", spec, "--seed", "4", "--out", str(tmp_path / "g.csv")]) == 0
        capsys.readouterr()
        assert main(["gen", spec, "--seed", "4"]) == 0
        assert capsys.readouterr().out == (tmp_path / "g.csv").read_text()


def _per_sample_dump(spec, seed, grid):
    """The dump as it was once written: one csv row, two `_fmt` calls, per sample."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    samples, head = grid.samples, ["gen", spec, str(FunctionSpec.parse(spec).bits), str(seed)]
    lines = [("grid1d", samples)] if samples.ndim == 1 else (
        (f"grid2d:row={i}", row) for i, row in enumerate(samples))
    writer.writerows(head + [param, _fmt(j), _fmt(v)] for param, line in lines for j, v in enumerate(line))
    return out.getvalue()


# the last spec is dumped from a grid holding -0.0 and 0.0 side by side
NEGATIVE_ZERO = DyadicGrid2D.from_cells(3, [[-0.0, 1.5], [0.0, -1e-300]])


@pytest.mark.parametrize("spec, grid", [
    ("random-step:level=6,dim=1@B=6", None),  # 1D, full resolution
    ("random-step:level=2,dim=2,amp=1e200@B=5", None),  # 2D, coarse step
    ("spike:level=2,target=10@B=6", None),
    ("walsh-tensor:3@B=4", None),  # a prefix with no comma to quote
    ("walsh-tensor:1,2@B=3", NEGATIVE_ZERO),
], ids=["1d-full", "2d-step", "spike", "unquoted", "negative-zero"])
def test_gen_dump_bytes_match_the_per_sample_writer(tmp_path, capsys, monkeypatch, spec, grid):
    if grid is not None:
        monkeypatch.setattr("wss.cli.generate_function", lambda *args: grid)
    expected = _per_sample_dump(spec, 5, grid or generate_function(spec, 5))
    assert main(["gen", spec, "--seed", "5", "--out", str(tmp_path / "g.csv")]) == 0
    with open(tmp_path / "g.csv", newline="") as handle:
        assert handle.read() == expected
    capsys.readouterr()
    assert main(["gen", spec, "--seed", "5"]) == 0
    assert capsys.readouterr().out == expected


def test_run_out_that_is_a_file_exits_2_before_any_section(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(CONFIG)
    blocker = tmp_path / "taken"
    blocker.write_text("")
    ran = []
    monkeypatch.setattr("wss.cli.run_configured", lambda *a: ran.append(a))
    assert main(["run", str(cfg), "--out", str(blocker)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert ran == []


def test_run_out_with_report_path_taken_exits_2(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(CONFIG)
    (tmp_path / "out" / "report.csv").mkdir(parents=True)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_gen_out_in_a_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "dir" / "x.csv"
    assert main(["gen", "walsh-tensor:3,6@B=3", "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not target.parent.exists()


# --- fuzz of the config and spec grammar -----------------------------------
# Sections start from a valid config of each experiment kind; up to two edits
# then swap a value or one token of it for a malformed one, drop a line or add
# a stray one, so runs reach the kernels as well as every parser.

_JUNK = st.sampled_from(["", "x", "-1", "0", "7", "4.7", "nan", "inf", "1e200", "1e-200",
                         "-0.25", "1,2", "q=1", "+", "@", "=", "3+", "[s]", "theorem3", "V3"])


def _increasing(values, min_size=1):
    return st.lists(values, min_size=min_size, max_size=4, unique=True).map(
        lambda v: ",".join(repr(x) for x in sorted(v)))


@st.composite
def _spec(draw, bits, dims):
    size = 1 << bits
    level = f"level={draw(st.integers(0, bits))}"
    kinds = ["random-step", "random-spectrum", "indicator-rect", "walsh-tensor"]
    kind = draw(st.sampled_from(kinds + ["spike"] * (dims == 2)))
    index = st.integers(0, size - 1).map(str)
    params = {
        "random-step": f"{level},dim={dims},amp={draw(st.sampled_from(['1', '1e200', '-3']))}",
        "random-spectrum": f"support={draw(st.integers(1, size))},dim={dims}",
        "spike": f"{level},target={draw(st.floats(0.1, 100.0))!r}",
        "indicator-rect": ",".join(repr(corner) for _ in range(dims)  # each pair in order
                                   for corner in sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))),
        "walsh-tensor": draw(st.lists(index, min_size=dims, max_size=dims).map(",".join)),
    }[kind]
    return f"{kind}:{params}@B={bits}"


@st.composite
def _section(draw, name):
    bits = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["theorem1", "theorem2", "rodin", "weak_type"]))
    lambdas = _increasing(st.floats(1e-3, 1e3))
    ms = _increasing(st.integers(1, 1 << bits))
    keys = {"experiment": st.just(kind), "seed": st.integers(0, 99).map(str)}
    if kind == "theorem1":
        keys.update(spec=_spec(bits, 2), mode=st.sampled_from(["auto", "full", "streaming", "cube"]),
                    **{"lambda": lambdas})
    elif kind == "theorem2":
        keys.update(spec=_spec(bits, 2), m=ms, a=st.floats(0.1, 4.0).map(repr),
                    probes=st.lists(st.floats(0.0, 0.99).map(repr), min_size=2, max_size=4)
                    .map(lambda v: ",".join(v[: len(v) // 2 * 2])))
    elif kind == "rodin":
        keys.update(spec=_spec(bits, 1), m=ms, eps=st.floats(1e-4, 1.0).map(repr),
                    phi=st.sampled_from(["exp_minus_one:1", "power:2", "power:0.5"]))
    else:
        operator = draw(st.sampled_from(list(OPERATORS)))
        _, dims, row = OPERATORS[operator]
        keys.update(operator=st.just(operator), count=st.integers(1, 3).map(str), spec=_spec(bits, dims or 2),
                    **({"lambda": lambdas} if row == "empirical_constant" else {}))
    lines = [[key, draw(value)] for key, value in keys.items()]
    for edit, at, junk in draw(st.lists(
            st.tuples(st.sampled_from(["value", "token", "drop", "line"]),
                      st.integers(0, len(lines) - 1), _JUNK), max_size=2)):
        if edit in ("value", "token") and len(lines[at]) < 2:
            continue  # that line is already dropped or replaced
        if edit == "value":
            lines[at][1] = junk
        elif edit == "token":
            tokens = re.split(r"([,:@=+])", lines[at][1])
            tokens[draw(st.integers(0, len(tokens) - 1))] = junk
            lines[at][1] = "".join(tokens)
        elif edit == "drop":
            lines[at] = []
        else:
            lines[at] = [draw(st.sampled_from(["junk", "[half", "", "  more", "k: v"]))]
    return f"[{name}]\n" + "\n".join(" = ".join(line) for line in lines) + "\n"


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=2, unique=True).flatmap(
    lambda names: st.tuples(*(_section(name) for name in names))).map("\n".join))
def test_fuzzed_configs_run_or_exit_2_with_a_message(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.ini"
        cfg.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", str(cfg), "--out", str(Path(tmp) / "out")])
    assert code in (0, 2), text
    if code == 2:
        assert err.getvalue().startswith("error: "), text
