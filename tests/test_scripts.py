"""The study scripts run end to end at tiny sizes, so an API change that
breaks one of them shows up here; every entry point, `wss` and each script in
`scripts/`, reads its flags and reports its faults through `wss.cli.Parser`."""
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wss.cli import Parser, main
from wss.experiments import OPERATORS

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(path.name for path in (ROOT / "scripts").glob("*.py"))


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
        (["theorem1_stability.py", "--targets", "-1_0"], "--targets must be a finite number, got '-1_0'"),
        (["theorem2_decay.py", "--bits", "-1_0"], "--bits must be an integer, got '-1_0'"),
        (["weak_type_constants.py", "--bits", "4", "--count", "-1_0"], "--count must be an integer, got '-1_0'"),
        (["weak_type_constants.py", "--operators", "Q"], "argument --operators: invalid choice: 'Q'"),
    ],
    ids=["theorem1-nargs", "theorem2", "weak-type", "weak-type-operator"],
)
def test_study_script_flag_that_argparse_refuses_is_one_error_line(argv, error):
    # argparse alone takes a value such as -1_0 for a flag; the front end hands it to
    # the number reader, and argparse's own faults print no usage block
    done = _script(argv)
    assert (done.returncode, done.stdout, done.stderr.count("\n")) == (2, "", 1)
    assert done.stderr.startswith(f"error: {error}")


@pytest.mark.parametrize(
    "argv, error",
    [
        (["theorem2_decay.py", "--bits", "4", "--a", "1000"],
         "phi_mean:window=B:probe=0.25;0.25 at 4 overflowed float64"),
        (["theorem1_stability.py", "--lambdas", "-1"], "--lambdas must be >= 1, got -1"),
        (["theorem1_stability.py", "--lambdas", "0"], "--lambdas must be >= 1, got 0"),
    ],
    ids=["theorem2-overflow", "theorem1-negative-grid", "theorem1-empty-grid"],
)
def test_study_script_fault_is_one_error_line(argv, error):
    # a runner's DataError and numpy's geomspace ValueError ended these in a traceback
    done = _script(argv)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("name", SCRIPTS)
def test_every_script_runs_through_the_front_end(name):
    assert isinstance(_load(name).get("PARSER"), Parser), f"{name} has no wss.cli.Parser named PARSER"
    done = _script([name, "--help"])
    assert (done.returncode, done.stderr) == (0, "") and done.stdout.startswith("usage:")
    done = _script([name, "--no-such-flag"])
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: unrecognized arguments: --no-such-flag\n")


@pytest.mark.parametrize("text", ["1_0", "-1_0", "\u0661"], ids=["underscore", "negative-underscore", "arabic-indic"])
@pytest.mark.parametrize("name", SCRIPTS)
def test_every_number_flag_of_every_script_gives_wss_seed_message(name, text, capsys):
    # the message `wss run --seed` gives, with "a finite number" for a float flag, also for a
    # list flag's later value (`--targets 1 -1_0` once named no flag: "unrecognized arguments")
    script = _load(name)
    parser = script["PARSER"]
    assert parser.numbers
    for flag, (dest, kind) in parser.numbers.items():
        noun = "an integer" if kind is int else "a finite number"
        for argv in [[flag, text]] + [[flag, "1", text]] * isinstance(parser.get_default(dest), list):
            assert parser.run(script["main"], argv) == 2
            assert capsys.readouterr() == ("", f"error: {flag} must be {noun}, got {text!r}\n")


@pytest.mark.parametrize("argv", [["run"], ["run", "exp.ini", "--no-such-flag"], []],
                         ids=["no-config", "unknown-flag", "no-command"])
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


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc")
@pytest.mark.parametrize("name", SCRIPTS)
def test_loading_a_script_starts_no_blas_worker(name):
    # a script that imports numpy before wss.cli sets the cap too late (2 threads)
    env = {key: value for key, value in _env().items() if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    code = "import os, runpy, sys; runpy.run_path(sys.argv[1], run_name='probe'); print(len(os.listdir('/proc/self/task')))"
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "scripts" / name)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, "1\n"), done.stderr


def _load(name):
    """The script's globals, without running its `__main__` block."""
    return runpy.run_path(str(ROOT / "scripts" / name))


def _env():
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)


def _script(argv):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          env=_env(), capture_output=True, text=True, timeout=120)
