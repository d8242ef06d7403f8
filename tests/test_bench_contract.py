"""The benchmark's oracle spot checks hold on its reference reports.

perfbench/checks.py reads wss by name (grid attributes, operator and
transform functions, the `mode` keyword of `quadratic_sums`).  Running its
spot checks here makes a refactor that breaks one of those names fail the
test suite, not only the benchmark.  checks.py is imported by path and used
as it is.  The tracer's own tests pin the wss names and block counts it
reads (`walsh_matrix_f64`, `iter_sequence_blocks`, the whole-stream count),
so they run here too, in a child pytest.
"""
import importlib.util
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


def test_tracer_pins_pass():
    root = PERFBENCH.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                             "perfbench/tests/test_tracer.py"],
                            cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]
