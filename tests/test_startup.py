"""A fresh process imports only what its command runs.

Loading a fan, a divisor or a catalog needs ``toric``, ``ratgeom``,
``jsonio``, ``catalog`` and ``errors``; ``cli`` imports every other module
inside the command that uses it, so ``validate`` starts without the
evaluators.  No module of the package imports ``dataclasses``, which
would add ``inspect``, ``ast``, ``dis`` and ``tokenize`` to every start,
nor ``importlib.resources``, which the bundled catalog does not need.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_catalog import SRC

from torifan import catalog

TESTS = Path(__file__).resolve().parent
P2 = str(Path(catalog.__file__).parent / "data" / "catalog" / "p2.json")
DIVISOR = str(TESTS / "p2_q_divisor.json")
HEAVY = [
    "dataclasses",
    "torifan._sweep_pure",
    "torifan.harness",
    "torifan.invariants",
    "torifan.okounkov",
    "torifan.ratpoly",
    "torifan.sweep",
]


def imported_after(script):
    """The HEAVY modules that ``script``, run in a fresh interpreter, adds
    to ``sys.modules``; those the interpreter's own start-up imported do
    not count."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{script}"
        f"print(__import__('json').dumps([m for m in {HEAVY!r} "
        "if m in sys.modules and m not in before]))\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop(catalog.CATALOG_ENV, None)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_loading_the_inputs_imports_no_evaluator():
    script = (
        "import torifan.cli\n"
        "from torifan import jsonio\n"
        "from torifan.catalog import load_catalog\n"
        "assert len(load_catalog()) == 11\n"
        f"jsonio.load_divisor({DIVISOR!r}, jsonio.load_fan({P2!r}))\n"
    )
    assert imported_after(script) == []


def test_loading_the_catalog_imports_no_importlib_resources():
    """The bundled catalog is a directory beside ``catalog.py``: reading it
    needs ``os.path`` alone.  Under ``python -S`` no site hook has imported
    ``importlib.resources`` before the package does."""
    code = (
        "import sys\n"
        "import torifan.cli\n"
        "from torifan.catalog import load_catalog\n"
        "assert len(load_catalog()) == 11\n"
        "print('importlib.resources' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop(catalog.CATALOG_ENV, None)
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def test_validate_imports_no_evaluator(tmp_path):
    out = tmp_path / "p2.out.json"
    script = (
        "from torifan import cli\n"
        f"assert cli.main(['validate', {P2!r}, '--out', {str(out)!r}]) == 0\n"
    )
    assert imported_after(script) == []
    assert json.loads(out.read_text())["valid"] is True


def test_the_probe_sees_a_command_that_needs_the_evaluators():
    script = (
        "import contextlib, io\n"
        "from torifan import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['invariants', {P2!r}]) == 0\n"
    )
    # invariants needs no sweep: harness imports it inside verify_theorem
    unused = ("dataclasses", "torifan.sweep")
    assert imported_after(script) == [m for m in HEAVY if m not in unused]
