"""The benchmark's metric tables, report gates and the one-command output."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

REPORT = b"""experiment,spec,B,seed,param,lambda_or_m,value
a,s@B=4,4,1,measure,0.5,0.25
a,s@B=4,4,1,measure,1,0.125
b,t@B=4,4,1,sch_ratio,0,1.5
"""


def test_benchmark_json_names_what_run_py_measures():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


def test_every_workload_has_a_config_and_a_reference():
    for name in run.WORKLOADS:
        assert (run.BENCH_DIR / "workloads" / f"{name}.ini").is_file()
        assert (run.BENCH_DIR / "reference" / f"{name}.csv").is_file()


def test_byte_identity_is_judged_per_section():
    changed = REPORT.replace(b"1.5\n", b"1.5000000000000002\n")
    assert checks.differing_sections(REPORT, REPORT, ["a", "b"]) == set()
    assert checks.differing_sections(changed, REPORT, ["a", "b"]) == {"b"}
    assert checks.differing_sections(b"other header\n", REPORT, ["a", "b"]) == {"a", "b"}


def test_reference_drift_uses_a_relative_tolerance():
    near = REPORT.replace(b"0.125\n", b"0.12500000000000003\n")
    failed, drift = checks.reference_drift(near, REPORT, ["a", "b"])
    assert failed == set() and 0 < drift < checks.REFERENCE_RTOL
    far = REPORT.replace(b"0.125\n", b"0.1251\n")
    failed, drift = checks.reference_drift(far, REPORT, ["a", "b"])
    assert failed == {"a"} and drift > 1e-4
    relabelled = REPORT.replace(b"sch_ratio", b"other")
    assert checks.reference_drift(relabelled, REPORT, ["a", "b"])[0] == {"b"}


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in run.BENCH_DIR.rglob("*"):
        if path.is_file() and "__pycache__" not in path.parts:
            target = tmp_path / "perfbench" / path.relative_to(run.BENCH_DIR)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectral-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0 and done.stdout == ""


@pytest.fixture(scope="module")
def all_workloads():
    """One real `--workload all` pass at the shortest run length (about 90 s)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "3", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_one_command_prints_every_metric_with_its_unit(all_workloads):
    text = "\n".join(all_workloads)
    for workload in run.WORKLOADS:
        block = text.split(f"[{workload}]")
        assert len(block) == 3  # an untraced and a traced block
        for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            pattern = f"  {metric['name']} "
            lines = [ln for b in block[1:] for ln in b.splitlines() if ln.startswith(pattern)]
            assert lines and lines[0].rstrip().endswith(metric["unit"]), metric
    result = json.loads(all_workloads[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert all(line.split()[1] == "0" for line in all_workloads if line.startswith("  fail_rate"))
    for workload in run.WORKLOADS:
        assert result["metrics"][f"{workload}/run_s"]["value"] > 0
        assert result["metrics"][f"{workload}/trace.coverage"]["unit"] == "ratio"
