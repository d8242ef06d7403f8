"""The benchmark's oracle spot checks hold on its reference reports.

perfbench/checks.py reads wss by name (grid attributes, operator and
transform functions, the `mode` keyword of `quadratic_sums`).  Running its
spot checks here makes a refactor that breaks one of those names fail the
test suite, not only the benchmark.  checks.py is imported by path and used
as it is.
"""
import importlib.util
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
