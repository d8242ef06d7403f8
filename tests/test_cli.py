import contextlib
import csv
import io
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wss.cli import main
from wss.generators import generate_function
from wss.sums import partial_sum_1d

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
        "[s]\nexperiment = theorem2\nspec = random-step:level=2,dim=2,amp=1000@B=5\nm = 4,8\n",
    ],
    ids=["rodin-exp", "rodin-power", "rodin-past-old-cap", "theorem2"],
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
    assert main(["gen", "walsh-tensor:3,6@B=3", "--dump", "--out", str(target)]) == 2
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
        "indicator-rect": ",".join(repr(draw(st.floats(0.0, 1.0))) for _ in range(2 * dims)),
        "walsh-tensor": draw(st.lists(index, min_size=dims, max_size=dims).map(",".join)),
    }[kind]
    return f"{kind}:{params}@B={bits}"


@st.composite
def _section(draw, name):
    bits = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["theorem1", "theorem2", "rodin", "weak_type"]))
    lambdas = _increasing(st.floats(1e-3, 1e3))
    ms = _increasing(st.integers(1, 1 << bits))
    keys = {"experiment": st.just(kind), "seed": st.integers(0, 99).map(str),
            "mode": st.sampled_from(["auto", "full", "streaming", "cube"])}
    if kind == "theorem1":
        keys.update(spec=_spec(bits, 2), **{"lambda": lambdas})
    elif kind == "theorem2":
        keys.update(spec=_spec(bits, 2), m=ms, a=st.floats(0.1, 4.0).map(repr),
                    probes=st.lists(st.floats(0.0, 0.99).map(repr), min_size=2, max_size=4)
                    .map(lambda v: ",".join(v[: len(v) // 2 * 2])))
    elif kind == "rodin":
        keys.update(spec=_spec(bits, 1), m=ms, eps=st.floats(1e-4, 1.0).map(repr),
                    phi=st.sampled_from(["exp_minus_one:1", "power:2", "power:0.5"]))
    else:
        operator = draw(st.sampled_from(["M", "M1", "M2", "V", "V1", "V2", "Sch-ratio"]))
        keys.update(operator=st.just(operator), count=st.integers(1, 3).map(str),
                    spec=_spec(bits, 1 if operator in ("V", "Sch-ratio") else 2),
                    **{"lambda": lambdas})
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
