"""The README's examples run as written.

The "Python API" block is executed as it stands, and the Quick start
commands of ``invariants`` and ``sweep`` run through ``cli.main`` with the
output lines the README shows.  The ``gap-report --resolution 16`` example
is left to acceptance criterion 8, which checks the same sweep and takes
about ten seconds.
"""

import re
import shlex
from pathlib import Path

from torifan import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def quick_start_examples():
    """``(argv, output lines)`` per ``$ torifan`` command shown with output."""
    block = README.split("## Quick start", 1)[1].split("```", 2)[1]
    examples = []
    lines = iter(block.splitlines())
    for line in lines:
        while line.endswith("\\"):
            line = line[:-1] + next(lines)
        if line.startswith("$ torifan "):
            examples.append((shlex.split(line.removeprefix("$ torifan ")), []))
        elif line:
            examples[-1][1].append(line)
    return [(argv, output) for argv, output in examples if output]


def python_api_block():
    """The code of the README's "Python API" block."""
    section = README.split("## Python API", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_python_api_block_runs():
    exec(compile(python_api_block(), "README.md (Python API)", "exec"), {})


def test_quick_start_outputs_match(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    examples = {argv[0]: (argv, lines) for argv, lines in quick_start_examples()}
    assert {"invariants", "sweep", "gap-report"} <= examples.keys()
    for name in ("invariants", "sweep"):
        argv, lines = examples[name]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.splitlines() == lines, argv
