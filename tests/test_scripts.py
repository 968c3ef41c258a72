"""Smoke runs of the scripts in scripts/: exit 0 and the summary line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, timeout=300, cwd=ROOT, env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_run_dimension_sweep():
    code, out, err = run_script("run_dimension_sweep.py", "-m", "1:2", "-g", "2", "-n", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "group,m,g,n,dimH,dimM,prym,dimN,verdict"
    assert err.strip().endswith("6 passed, 0 failed")


@pytest.mark.parametrize("args,message", [
    (("-g", "1:2"), "need m >= 1, g >= 2, n >= 1"),
    (("--groups", "foo"), "unknown group 'foo'"),
    (("-m", "x"), "-m: bad range 'x'"),
    (("--groups", "so-odd", "--deg-m", "1"), "so-odd needs even deg(M)"),
])
def test_run_dimension_sweep_argument_errors(args, message):
    """A bad argument prints one `error:` line and exits 2, as `sweep` does."""
    assert run_script("run_dimension_sweep.py", *args) == (2, "", f"error: {message}\n")


def test_pfaffian_space_report():
    code, out, _ = run_script("pfaffian_space_report.py", "-m", "1:2", "-g", "2", "-n", "1:2")
    assert code == 0
    assert out.splitlines()[-1] == (
        "4 tuples: adopted reading matches the closed form on all; "
        "literal reading exceeds it by exactly n on all tuples."
    )


def test_random_field_audit():
    code, out, _ = run_script("random_field_audit.py", "--samples", "2", "--seed", "3", "--max-m", "2", "--deg-bound", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "clean"
    # so-odd involution is checked on the cofactor curve, not counted blindly
    assert "involution=2/2" in next(line for line in lines if line.startswith("so-odd"))
