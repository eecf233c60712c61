"""The README's commands and library example, run as a reader runs them:
every ``symp`` line of the CLI block and every line of the experiment
scripts block exits 0 with nothing on stderr, and every
``expr  # value`` line of the example evaluates to the value its comment
shows."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# a trailing note in parentheses after the value, e.g. "2  (exact, ...)"
NOTE = re.compile(r"\s+\([^()]*\)$")


def code_block(heading: str, language: str) -> list[str]:
    """The lines of the first ``language`` block under ``heading``."""
    text = README.read_text()
    section = text[text.index(heading) :]
    start = section.index(f"```{language}\n") + len(f"```{language}\n")
    return section[start : section.index("```", start)].splitlines()


def commands() -> list[list[str]]:
    """argv of each README command, ``symp`` run as ``python -m symp.cli``."""
    cli = [line for line in code_block("## CLI", "sh") if line.startswith("symp ")]
    scripts = code_block("## Experiment scripts", "sh")
    assert cli and scripts
    out = [[sys.executable, "-m", "symp.cli", *shlex.split(line, comments=True)[1:]] for line in cli]
    for line in scripts:
        python, *argv = shlex.split(line, comments=True)
        assert python == "python", line
        out.append([sys.executable, *argv])
    return out


@pytest.mark.parametrize("argv", commands(), ids=lambda argv: " ".join(argv[1:]))
def test_readme_command_runs(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout


def test_readme_library_example_values():
    namespace: dict = {}
    checked = 0
    for line in code_block("## Library example", "python"):
        code, _, comment = line.partition("#")
        if not comment:
            exec(code, namespace)
            continue
        shown = NOTE.sub("", comment.strip())
        value = eval(code, namespace)
        if isinstance(value, float):
            decimals = len(shown.partition(".")[2])
            assert f"{value:.{decimals}f}" == shown, line
        else:
            assert repr(value) == shown, line
        checked += 1
    assert checked, "no expr  # value line in the example"
