"""The suite's own pytest settings: ``filterwarnings = ["error"]`` in
``pyproject.toml`` turns every warning into an error, so a warning raised
inside pytest's or a plugin's reporting would end the session instead of
a test."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 0
'''


def test_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    # On a failure hypothesis's plugin imports its source-patching helper,
    # whose dependencies emit a DeprecationWarning on import; under the
    # repo's settings that must not turn the failure into an INTERNALERROR.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "1 failed" in out
    assert "INTERNALERROR" not in out
