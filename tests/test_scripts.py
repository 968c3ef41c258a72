"""Smoke runs of the scripts in scripts/: exit 0 and the summary line, and
exit 2 with one `error:` line on a bad argument."""

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


@pytest.mark.parametrize("name,args,message", [
    ("pfaffian_space_report.py", ("-m", "x"), "-m: bad range 'x'"),
    ("pfaffian_space_report.py", ("-m", "0"), "m must be >= 1"),
    ("pfaffian_space_report.py", ("-g", "1"), "genus must be >= 2"),
    ("pfaffian_space_report.py", ("-n", "3:1"), "-n: empty range '3:1'"),
    ("random_field_audit.py", ("--max-m", "0"), "--max-m must be >= 1"),
    ("random_field_audit.py", ("--deg-bound", "-1"), "--deg-bound must be >= 0"),
    ("random_field_audit.py", ("--samples", "-1"), "--samples must be >= 1"),
    ("random_field_audit.py", ("--samples", "0"), "--samples must be >= 1"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_bad_argument_exits_2(name, args, message):
    assert run_script(name, *args) == (2, "", f"error: {message}\n")
