"""Every `parahiggs` command in the README's CLI block, and every script
command in its Scripts block, runs in order from a temporary working
directory within a wall-clock bound and exits 0."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SECONDS_PER_COMMAND = 20
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}


def readme_commands(section: str, prefix: str) -> list[list[str]]:
    """The lines of the first ```sh block under `## section` that start with prefix."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split(f"## {section}\n", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.splitlines() if line.startswith(prefix)]


def run_in(tmp_path, argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(argv, capture_output=True, text=True, timeout=SECONDS_PER_COMMAND,
                          cwd=tmp_path, env=ENV)


def test_readme_commands_exit_0_in_bounded_time(tmp_path):
    commands = readme_commands("CLI", "parahiggs ")
    assert {argv[1] for argv in commands} == {"dims", "sweep", "gen", "analyze", "reduce-odd"}
    for argv in commands:
        # later commands read the files that earlier ones write into tmp_path
        proc = run_in(tmp_path, [sys.executable, "-m", "parahiggs", *argv[1:]])
        assert proc.returncode == 0, (argv, proc.stderr)


def test_readme_scripts_exit_0_in_bounded_time(tmp_path):
    commands = readme_commands("Scripts", "python3 scripts/")
    assert sorted(argv[1] for argv in commands) == sorted(
        f"scripts/{path.name}" for path in (ROOT / "scripts").glob("*.py"))
    for argv in commands:
        proc = run_in(tmp_path, [sys.executable, str(ROOT / argv[1]), *argv[2:]])
        assert proc.returncode == 0, (argv, proc.stderr)
