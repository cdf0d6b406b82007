"""Fans of many rays or of huge entries: bounded time, memory and text.

``validate`` reads every wall value off the ``Wall`` records, so its work
and memory grow linearly with the fan; no table of walls x rays is built.
A refusal names rays and cones by index, prints an integer of more than
20 digits as its digit count and cuts the repr of an entry that is not an
integer to 40 characters, so its one line stays short however large the
entries.
"""

import json
import os
import subprocess
import sys

import pytest
from big_fans import strip_surface
from test_catalog import SRC

from torifan import cli
from torifan.errors import format_integer


def run(args, timeout=120):
    """``python args`` in a fresh interpreter with the package on its path."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, *args],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


def test_validate_on_4004_rays_peaks_under_60_mb(tmp_path, capsys):
    """The child reports its own peak RSS: RUSAGE_CHILDREN in this process
    would keep the largest child of the whole session."""
    fan = tmp_path / "strip.json"
    fan.write_text(json.dumps(strip_surface(2000)))
    out = tmp_path / "strip.out.json"
    script = (
        "import resource\n"
        "from torifan import cli\n"
        f"rc = cli.main(['validate', {str(fan)!r}, '--out', {str(out)!r}])\n"
        "print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    done = run(["-c", script])
    assert done.returncode == 0, done.stderr
    rc, peak_kb = map(int, done.stdout.split())
    assert rc == 0
    assert peak_kb < 60 * 1024, f"validate peaked at {peak_kb // 1024} MB"
    payload = json.loads(out.read_text())
    assert payload["valid"] is True and payload["n_walls"] == 4004
    assert payload["anticanonical_ample"] is False
    assert cli.main(["invariants", str(fan)]) == 2
    out, err = capsys.readouterr()
    assert not out and err.startswith(f"error: {fan}: not Fano: -K.C = ")


def test_format_integer_prints_long_integers_as_their_digit_count():
    assert format_integer(10**20 - 1) == str(10**20 - 1)
    assert format_integer(-(10**20) + 1) == str(-(10**20) + 1)
    assert format_integer(10**20) == "an integer of 21 digits"
    for digits in (21, 22, 100, 4300, 4301, 9000):
        for x in (10 ** (digits - 1), 10**digits - 1, -(10**digits) + 1):
            assert format_integer(x) == f"an integer of {digits} digits"


HUGE = 7 * 10**2499 + 1  # 2,500 digits, odd
P2_CONES = [[1, 2], [0, 2], [0, 1]]
HOSTILE = {
    # the repr of a 3,000-character string, cut to 37 characters and "..."
    "malformed fan JSON: str '" + "x" * 36 + "... is not an integer": {
        "rays": [["x" * 3000, 0], [0, 1], [-1, -1]],
    },
    "ray 0 is not primitive": {"rays": [[2 * HUGE, 2], [0, 1], [-1, -1]]},
    "ray 1 is repeated: it equals ray 0": {"rays": [[HUGE, 1], [HUGE, 1], [-1, -1]]},
    # |det| of cone 0 = 10**3999 + 1, 4,000 digits
    "cone 0 with rays [0, 1] has |det| = an integer of 4000 digits": {
        "rays": [[1, 0], [1, 10**3999 + 1], [-1, -1]],
        "max_cones": [[0, 1], [1, 2], [2, 0]],
    },
}


@pytest.mark.parametrize("message", HOSTILE)
def test_huge_entries_give_one_short_error_line(tmp_path, message):
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps({"dim": 2, "max_cones": P2_CONES, **HOSTILE[message]}))
    done = run(["-m", "torifan.cli", "validate", str(fan)])
    assert done.returncode == 2 and not done.stdout
    assert "Traceback" not in done.stderr
    (line,) = done.stderr.splitlines()
    assert line == f"error: {fan}: {message}" and len(line) <= 300, line


def test_a_huge_divisor_gives_one_short_error_line(tmp_path):
    """A refused class prints each coefficient's numerator and denominator
    past 20 digits as its digit count, its sign kept."""
    p2 = tmp_path / "p2.json"
    p2.write_text(json.dumps({"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
                              "max_cones": P2_CONES, "name": "P2"}))
    divisor = tmp_path / "divisor.json"
    # degree -1: not ample
    coeffs = [f"{10**2000}/{3**50}", f"-{10**2000}/{3**50}", "-1"]
    divisor.write_text(json.dumps({"coeffs": coeffs}))
    done = run(["-m", "torifan.cli", "invariants", str(p2), "--divisor", str(divisor)])
    assert done.returncode == 2 and not done.stdout
    assert "Traceback" not in done.stderr
    (line,) = done.stderr.splitlines()
    big, den = "an integer of 2001 digits", "an integer of 24 digits"
    expected = f"error: divisor ({big}/{den}, -{big}/{den}, -1/1) on P2 is not ample"
    assert line == expected and len(line) <= 300, line
