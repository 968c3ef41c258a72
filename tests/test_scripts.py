"""Smoke runs of the scripts in scripts/: exit 0 and the summary line."""

import os
import subprocess
import sys
from pathlib import Path

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
