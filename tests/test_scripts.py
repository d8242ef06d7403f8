"""The study scripts run end to end at tiny sizes, so an API change that
breaks one of them shows up here."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wss.experiments import OPERATORS

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["theorem1_stability.py", "--bits", "4", "--targets", "1", "--lambdas", "5"],
        ["theorem2_decay.py", "--bits", "4"],
        ["weak_type_constants.py", "--operators", *OPERATORS, "--bits", "4", "--count", "2"],
    ],
    ids=["theorem1", "theorem2", "weak-type"],
)
def test_study_script_runs(argv):
    done = _script(argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


@pytest.mark.parametrize(
    "argv, error",
    [
        (["theorem1_stability.py", "--targets", "1", "1e1_0"], "--targets must be a finite number, got '1e1_0'"),
        (["theorem2_decay.py", "--bits", "4", "--support", "4", "--seed", "1_0"],
         "--seed must be an integer, got '1_0'"),
        (["weak_type_constants.py", "--bits", "4", "\u0665"], "--bits must be an integer, got '\u0665'"),
        (["weak_type_constants.py", "--bits", "4", "--count", "0"], "weak-type count must be within [1, 4096], got 0"),
    ],
    ids=["theorem1", "theorem2", "weak-type", "weak-type-runner-check"],
)
def test_study_script_reads_its_numbers_with_the_one_reader(argv, error):
    # argparse's type=int/float read "1_0" as 10 and an Arabic-Indic digit as its
    # value, and a runner's UsageError ended the script with a traceback
    done = _script(argv)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize(
    "argv, error",
    [
        (["theorem1_stability.py", "--targets", "-1_0"], "argument --targets: expected at least one argument"),
        (["theorem2_decay.py", "--bits", "-1_0"], "argument --bits: expected one argument"),
        (["weak_type_constants.py", "--bits", "4", "--count", "-1_0"], "argument --count: expected one argument"),
        (["weak_type_constants.py", "--operators", "Q"], "argument --operators: invalid choice: 'Q'"),
    ],
    ids=["theorem1-nargs", "theorem2", "weak-type", "weak-type-operator"],
)
def test_study_script_flag_that_argparse_refuses_is_one_error_line(argv, error):
    # argparse takes a value such as -1_0 for a flag; its usage block is not printed
    done = _script(argv)
    assert (done.returncode, done.stdout, done.stderr.count("\n")) == (2, "", 1)
    assert done.stderr.startswith(f"error: {error}")


def _script(argv):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          env=env, capture_output=True, text=True, timeout=120)
