import csv
from pathlib import Path

import numpy as np
import pytest

from wss.cli import main
from wss.generators import generate_function

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


def test_run_writes_report_and_is_thread_invariant(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(CONFIG)
    assert main(["run", str(cfg), "--out", str(tmp_path / "a"), "--seed", "3"]) == 0
    assert main([
        "run", str(cfg), "--out", str(tmp_path / "b"), "--seed", "3", "--threads", "4",
    ]) == 0
    a = (tmp_path / "a" / "report.csv").read_bytes()
    b = (tmp_path / "b" / "report.csv").read_bytes()
    assert a == b
    out = capsys.readouterr().out
    assert "t1:" in out and "weak:" in out


def test_gen_dump_round_trip(tmp_path):
    target = tmp_path / "grid.csv"
    assert main(["gen", "walsh-tensor:3,6@B=3", "--dump", "--out", str(target)]) == 0
    with open(target, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 64
    grid = generate_function("walsh-tensor:3,6@B=3")
    for row in rows:
        i = int(row["param"].split("=", 1)[1])
        j = int(row["lambda_or_m"])
        assert float(row["value"]) == grid.samples[i, j]


def test_gen_requires_dump(capsys):
    assert main(["gen", "walsh-tensor:3@B=3"]) == 2
    assert "--dump" in capsys.readouterr().err


def test_gen_1d_dump(tmp_path):
    target = tmp_path / "g1.csv"
    assert main(["gen", "indicator-rect:0,0.5@B=3", "--dump", "--out", str(target)]) == 0
    with open(target, newline="") as handle:
        rows = list(csv.DictReader(handle))
    values = np.array([float(r["value"]) for r in rows])
    np.testing.assert_array_equal(values, [1, 1, 1, 1, 0, 0, 0, 0])


def test_bad_spec_reports_usage_error(capsys):
    assert main(["gen", "walsh-tensor:99@B=3", "--dump"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_config_reports_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[x]\nexperiment = theorem1\nspec = walsh-tensor:3@B=4\nlambda = 1,2\n")
    assert main(["run", str(cfg)]) == 2
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


def test_rodin_past_the_table_cap_names_its_limit(tmp_path, capsys):
    cfg = tmp_path / "deep.ini"
    cfg.write_text("[deep]\nexperiment = rodin\nspec = random-step:level=3,dim=1@B=14\nm = 4\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "error: rodin experiment needs B <= 13" in err and "Traceback" not in err


THEOREM2 = "[s]\nexperiment = theorem2\nspec = indicator-rect:0,0.5,0,0.5@B=4\nm = 4,8\n"
RODIN = "[s]\nexperiment = rodin\nspec = random-step:level=3,dim=1@B=5\nm = 4,8\n"
WEAK = "[s]\nexperiment = weak_type\noperator = V\nspec = random-step:level=3,dim=1@B=5\n"


@pytest.mark.parametrize(
    "text",
    [
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
    ],
    ids=[
        "lambda", "m-word", "m-fraction", "a", "probes", "seed-word", "spec-nan",
        "seed-negative", "eps", "phi", "spec-seed", "spec-level", "count", "spec-amp",
        "header-first", "header-later",
    ],
)
def test_config_grammar_errors_exit_2(tmp_path, capsys, text):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
