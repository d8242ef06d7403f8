"""The study scripts run end to end at tiny sizes, so an API change that
breaks one of them shows up here."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["theorem1_stability.py", "--bits", "4", "--targets", "1", "--lambdas", "5"],
        ["theorem2_decay.py", "--bits", "4"],
        ["weak_type_constants.py", "--operators", "M", "M1", "M2", "V", "V1", "V2",
         "Sch-ratio", "--bits", "4", "--count", "2"],
    ],
    ids=["theorem1", "theorem2", "weak-type"],
)
def test_study_script_runs(argv):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
