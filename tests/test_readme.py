"""Every `parahiggs` command in the README's CLI block runs, in order, within a
wall-clock bound and exits 0."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SECONDS_PER_COMMAND = 20


def readme_cli_commands() -> list[list[str]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## CLI", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.splitlines() if line.startswith("parahiggs ")]


def test_readme_commands_exit_0_in_bounded_time(tmp_path):
    commands = readme_cli_commands()
    assert {argv[1] for argv in commands} == {"dims", "sweep", "gen", "analyze", "reduce-odd"}
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    for argv in commands:
        # later commands read the files that earlier ones write into tmp_path
        proc = subprocess.run(
            [sys.executable, "-m", "parahiggs", *argv[1:]],
            capture_output=True, text=True, timeout=SECONDS_PER_COMMAND, cwd=tmp_path, env=env,
        )
        assert proc.returncode == 0, (argv, proc.stderr)
