"""The repository's pytest settings keep a session going past a failing
``hypothesis`` test."""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_failing_given_test_does_not_end_the_session(tmp_path):
    # with filterwarnings = ["error"], a DeprecationWarning that hypothesis's
    # plugin raises while reporting the failure became an INTERNALERROR,
    # and test_passes never ran
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c",
         os.path.join(REPO, "pyproject.toml"), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
    assert proc.returncode == 1
