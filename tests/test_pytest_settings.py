"""The suite's own pytest settings let every test report.

`pyproject.toml` turns each DeprecationWarning into an error. A failing
`@given` test makes hypothesis's report hook import libcst, whose import
raises mypy_extensions' TypedDict DeprecationWarning; as an error inside the
hook that ended the session with INTERNALERROR, and the tests after it were
never reported.
"""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

THREE_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_hypothesis_fails(x):
    assert x != x


def test_plain_fails():
    assert False


def test_passes():
    assert True
'''


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_three.py").write_text(THREE_TESTS)
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
                           "--rootdir", str(tmp_path), "test_three.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.stdout.strip().splitlines()[-1].startswith("2 failed, 1 passed")
