"""Smoke runs of the scripts in scripts/: exit 0 and the summary line, and
exit 2 with one `error:` line on a bad argument; and the Pfaffian-space
report's summary and exit code when a reading fails."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import load_script

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


@pytest.mark.parametrize("name,args,message", [
    ("pfaffian_space_report.py", ("-m", "x"), "-m: bad range 'x'"),
    ("pfaffian_space_report.py", ("-m", "0"), "m must be >= 1"),
    ("pfaffian_space_report.py", ("-g", "1"), "genus must be >= 2"),
    ("pfaffian_space_report.py", ("-n", "3:1"), "-n: empty range '3:1'"),
    ("pfaffian_space_report.py", ("-o", "scripts"), "[Errno 21] Is a directory: 'scripts'"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_bad_argument_exits_2(name, args, message):
    assert run_script(name, *args) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("reading,summary", [
    ("literal", "adopted reading matches the closed form on all; literal reading exceeds it by exactly n on 2 tuples."),
    ("adopted", "adopted reading matches the closed form on 2; literal reading exceeds it by exactly n on all tuples."),
], ids=["literal", "adopted"])
def test_pfaffian_space_report_counts_each_reading(monkeypatch, capsys, reading, summary):
    # one reading made wrong at m = 2 only: the summary counts the two
    # readings apart and the report exits 1
    report = load_script("pfaffian_space_report")
    if reading == "literal":
        literal = report.so_even_hitchin_dim_literal
        monkeypatch.setattr(report, "so_even_hitchin_dim_literal", lambda m, p: literal(m, p) + (m == 2))
    else:
        sweep = report.sweep_reports
        monkeypatch.setattr(report, "sweep_reports", lambda *box: [
            r._replace(dim_hitchin=r.dim_hitchin + (r.m == 2)) for r in sweep(*box)
        ])
    assert report.main(["-m", "1:2", "-g", "2", "-n", "1:2"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == f"4 tuples: {summary}"
