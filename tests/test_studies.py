"""The study configs in `configs/studies/` run under `wss run`, give the same
report at any `--threads`, and show what their header comments say."""
import csv
from pathlib import Path

import numpy as np
import pytest

from wss.cli import main
from wss.experiments import load_config

STUDIES = Path(__file__).resolve().parents[1] / "configs" / "studies"


def _report(tmp_path, name, *flags):
    out = tmp_path / "-".join([name, *flags])
    assert main(["run", str(STUDIES / name), "--out", str(out), *flags]) == 0
    return out / "report.csv"


@pytest.mark.parametrize("name", sorted(path.name for path in STUDIES.glob("*.ini")))
def test_a_study_report_does_not_depend_on_threads(tmp_path, capsys, name):
    one, two = (_report(tmp_path, name, "--threads", threads) for threads in ("1", "2"))
    assert one.read_bytes() == two.read_bytes()


def test_resolved_phi_means_decay_as_one_over_m_past_the_support(tmp_path, capsys):
    # finitely many coefficients, all below the support: S_nn f = f for n >= support,
    # so every later term of the mean is Phi(0) = 0 and m * phi_mean stops moving
    (section,) = [cfg for cfg in load_config(STUDIES / "theorem2-decay.ini") if cfg.name == "resolved"]
    support = section.call.keywords["spec"]["support"]
    with open(_report(tmp_path, "theorem2-decay.ini"), newline="") as handle:
        rows = [row for row in csv.DictReader(handle) if row["experiment"] == "resolved"]
    probes = sorted({row["param"] for row in rows if row["param"].startswith("phi_mean")})
    assert len(probes) == 16
    for param in probes:
        tail = [(float(row["lambda_or_m"]), float(row["value"])) for row in rows
                if row["param"] == param and float(row["lambda_or_m"]) >= support]
        assert len(tail) >= 2
        scaled = np.array([m * value for m, value in tail])
        np.testing.assert_allclose(scaled, scaled[0], rtol=1e-12, err_msg=param)


def _sections(name):
    """The sections of study `name`, each as a config of its own: [(section, text)]."""
    blocks = (STUDIES / name).read_text().split("\n[")[1:]  # [0] is the header comment
    return [(block.split("]", 1)[0], "[" + block) for block in blocks]


def _rows(path):
    """A report's rows after the header, grouped by section: {section: [row, ...]}."""
    rows = {}
    with open(path, newline="") as handle:
        for row in list(csv.reader(handle))[1:]:
            rows.setdefault(row[0], []).append(row)
    return rows


@pytest.fixture(scope="module")
def study_rows(tmp_path_factory):
    """`_rows` of a study's report, each study run once at its defaults."""
    cache = {}

    def rows(name):
        if name not in cache:
            cache[name] = _rows(_report(tmp_path_factory.mktemp("study"), name))
        return cache[name]
    return rows


@pytest.mark.parametrize("name, section, text", [
    pytest.param(path.name, section, text, id=f"{path.stem}:{section}")
    for path in sorted(STUDIES.glob("*.ini")) for section, text in _sections(path.name)])
def test_a_study_section_run_alone_writes_its_rows_in_the_study(tmp_path, capsys, study_rows, name, section, text):
    # a section copied out of its study reruns that one cell: no section reads another's state
    config = tmp_path / "alone.ini"
    config.write_text(text)
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 0
    assert _rows(tmp_path / "out" / "report.csv") == {section: study_rows(name)[section]}


@pytest.mark.parametrize("name, family", [
    *(("theorem1-spike.ini", f"target-{target}") for target in (1, 10, 100)),
    *(("weak-type-levels.ini", operator) for operator in ("M", "M1")),
], ids=lambda value: value.removesuffix(".ini"))
def test_a_b_sweep_that_its_header_calls_constant_repeats_every_row(study_rows, name, family):
    # the spike is one level-2 step at every B, and M and M1 see 2^min(B, 4) cells a side:
    # every row after the spec and B columns is the B = 5 row, not only the constant read
    rows = study_rows(name)
    first = [row[3:] for row in rows[f"{family}-B5"]]
    for bits in (6, 7):
        assert [row[3:] for row in rows[f"{family}-B{bits}"]] == first, f"{family}-B{bits}"
