"""A failing hypothesis test is reported as a failure, and the tests after
it still run (see the patch-writer import in conftest.py)."""
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

_NESTED = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_a_failing_given_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_nested.py").write_text(_NESTED)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join([str(TESTS), str(TESTS.parent / "src")])
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-W", "error", "-p", "conftest",
         "-p", "no:cacheprovider", "test_nested.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    ).stdout
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
