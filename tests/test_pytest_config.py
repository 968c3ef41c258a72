"""The pytest settings in pyproject.toml: a failing property test is reported
as one failure and the run goes on.

With `filterwarnings = ["error"]`, the DeprecationWarning that hypothesis
triggers by importing libcst to explain a failing example turned into an
INTERNALERROR: pytest stopped with exit code 3 and reported no later test.
"""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MODULE = textwrap.dedent("""
    from hypothesis import given, strategies as st


    @given(st.integers())
    def test_fails(x):
        assert x < 10


    def test_passes():
        assert True
""")


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    (tmp_path / "test_module.py").write_text(MODULE, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_module.py"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1
    assert re.search(r"\b1 failed, 1 passed\b", proc.stdout)
