"""The benchmark's oracle spot checks hold on its reference reports.

perfbench/checks.py reads wss by name (grid attributes, operator and
transform functions, the `mode` keyword of `quadratic_sums`).  Running its
spot checks here makes a refactor that breaks one of those names fail the
test suite, not only the benchmark.  checks.py is imported by path and used
as it is.  The tracer's own tests pin the wss names and block counts it
reads (`walsh_matrix_f64`, `iter_sequence_blocks`, the whole-stream count),
so they run here too, in a child pytest, and the tracer's `transform.points`
count of a small theorem2 run is pinned from the shapes of its transforms.
Each workload also runs afresh at the reference seed and must stay within
the benchmark's REFERENCE_RTOL of its reference report.
"""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = sorted((PERFBENCH / "workloads").glob("*.ini"))
REFERENCE_SEED = 1503


def _load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_workload_has_a_reference():
    assert WORKLOADS
    for config in WORKLOADS:
        assert (PERFBENCH / "reference" / f"{config.stem}.csv").is_file()


@pytest.mark.parametrize("config", WORKLOADS, ids=lambda path: path.stem)
def test_spot_checks_pass_on_the_reference_report(config):
    checks = _load_checks()
    reference = (PERFBENCH / "reference" / f"{config.stem}.csv").read_bytes()
    problems = checks.spot_checks(config, REFERENCE_SEED, reference)
    assert problems, f"no sections checked in {config.name}"
    assert {name: found for name, found in problems.items() if found} == {}


@pytest.mark.parametrize("config", WORKLOADS, ids=lambda path: path.stem)
def test_a_fresh_run_stays_on_the_reference_report(config, tmp_path):
    # the benchmark's reference gate, run here: drift from a changed summation
    # order shows in the test suite before it shows in the benchmark
    checks = _load_checks()
    result = subprocess.run([sys.executable, "-m", "wss.cli", "run", str(config), "--seed", str(REFERENCE_SEED),
                             "--out", str(tmp_path)], env=_env(), capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]
    reference = (PERFBENCH / "reference" / f"{config.stem}.csv").read_bytes()
    report = (tmp_path / "report.csv").read_bytes()
    names = checks.report_sections(reference)
    failed, drift = checks.reference_drift(report, reference, names)
    assert failed == set() and drift <= checks.REFERENCE_RTOL, (failed, drift)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PERFBENCH.parent / "src"), env.get("PYTHONPATH")]))
    return env


def test_tracer_pins_pass():
    root = PERFBENCH.parent
    env = _env()
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                             "perfbench/tests/test_tracer.py"],
                            cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]


def _traced_counters(tmp_path, section: str) -> dict:
    """perfbench's tracer counters for `wss run` on one config section."""
    config = tmp_path / "section.ini"
    config.write_text("[s]\n" + section)
    spans = tmp_path / "spans.json"
    result = subprocess.run([sys.executable, str(PERFBENCH / "tracer.py"), "--spans", str(spans), "--",
                             "run", str(config), "--seed", "7", "--out", str(tmp_path / "out")],
                            env=_env(), capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]
    return json.loads(spans.read_text())["counters"]


def test_theorem2_transforms_run_at_the_spectrum_level(tmp_path):
    # random-spectrum:support=4 at B=6 is constant on level-2 cells (k = 4 of
    # them per axis) and its profile support is K = 4: generation
    # synthesizes both axes on the k x k cells, the analysis runs both
    # passes on them, and the row and column profiles each synthesize one
    # k x K table.  A pass over the 2^6 samples of an axis anywhere breaks
    # the count.
    bits, support = 6, 4
    k = 1 << (support - 1).bit_length()
    counters = _traced_counters(tmp_path, "experiment = theorem2\n"
                                f"spec = random-spectrum:support={support},dim=2@B={bits}\nm = 4,16,64\n")
    assert counters["transform.points"] == 2 * k * k + 2 * k * k + 2 * k * support


def test_sch_ratio_transforms_its_band_only(tmp_path):
    # a level-6 step at B=16: the square sums take one analysis on its 64
    # cells and no other transform, and the tracer counts V's 2^16 points
    counters = _traced_counters(tmp_path, "experiment = weak_type\noperator = Sch-ratio\n"
                                "spec = random-step:level=6,dim=1@B=16\n")
    assert counters["transform.points"] == 64
    assert counters["maximal.operator_points"] == 2**16
