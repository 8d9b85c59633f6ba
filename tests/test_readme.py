"""The README's examples run as written: the library snippet and every
command-line example."""

import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
# what the `translink` console script runs
CLI_SHIM = "import sys; from translink.cli import main; sys.exit(main(sys.argv[1:]))"


def _code_block(section: str, language: str) -> str:
    """The first fenced `language` block of the README section `## section`."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return body.split(f"```{language}\n", 1)[1].split("```", 1)[0]


COMMANDS = [
    shlex.split(line, comments=True)
    for line in _code_block("Command line", "sh").splitlines()
    if line.strip()
]


def test_library_snippet_runs():
    exec(compile(_code_block("Library", "python"), "README.md", "exec"), {})


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a[1:3]) for a in COMMANDS])
def test_command_line_example_runs(tmp_path, argv):
    assert argv[0] == "translink"
    shutil.copytree(ROOT / "examples", tmp_path / "examples")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", CLI_SHIM, *argv[1:]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout
