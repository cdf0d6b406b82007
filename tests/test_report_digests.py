"""SHA-256 digests of every CLI report's bytes over the bundled catalog.

``report_digests.json`` pins the stdout of ``sweep --include-samples`` on
every bundled fan file, of ``verify-theorem``, of ``gap-report --dimension
2`` and of ``gap-report`` over every dimension; of ``validate`` and of
``invariants`` (on -K) on every fan file, plus ``invariants`` of one
Q-divisor on P2; of ``okounkov --check-translation 1/2`` on every fan file;
of ``blowup --cone 0`` and ``okounkov --flag 0:<reversed cone 0>`` on every
fan file of dimension at least 2; and of ``okounkov --flag 1`` on P1, the
one flag given by its cone alone.  Each report is recorded in
``json`` and ``csv`` wherever the subcommand has ``--format``.  A change that
alters any byte of these reports fails here.  Re-recording is a deliberate
edit of the JSON file, printed by

    PYTHONPATH=src python3 tests/test_report_digests.py > tests/report_digests.json
"""

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from torifan import cli, jsonio

CATALOG = Path(__file__).resolve().parents[1] / "src/torifan/data/catalog"
DIGESTS = Path(__file__).with_name("report_digests.json")
Q_DIVISOR = Path(__file__).with_name("p2_q_divisor.json")


def cases():
    """Case name -> CLI argv, in a fixed order."""
    out = {}
    for fmt in ("json", "csv"):
        for path in sorted(CATALOG.glob("*.json")):
            out[f"sweep {path.stem} {fmt}"] = [
                "sweep", str(path), "--resolution", "3",
                "--include-samples", "--format", fmt,
            ]
        out[f"verify-theorem {fmt}"] = [
            "verify-theorem", "--resolution", "3", "--format", fmt,
        ]
        out[f"gap-report {fmt}"] = [
            "gap-report", "--dimension", "2", "--resolution", "4",
            "--format", fmt,
        ]
        out[f"gap-report all dimensions {fmt}"] = [
            "gap-report", "--resolution", "3", "--format", fmt,
        ]
    fans = sorted(CATALOG.glob("*.json"))
    for path in fans:
        out[f"validate {path.stem}"] = ["validate", str(path)]
    surfaces = [
        path for path in fans
        if json.loads(path.read_text(encoding="utf-8"))["dim"] >= 2
    ]
    for fmt in ("json", "csv"):
        for path in fans:
            out[f"invariants {path.stem} {fmt}"] = [
                "invariants", str(path), "--format", fmt,
            ]
        out[f"invariants p2 q-divisor {fmt}"] = [
            "invariants", str(CATALOG / "p2.json"),
            "--divisor", str(Q_DIVISOR), "--format", fmt,
        ]
        for path in surfaces:
            out[f"blowup {path.stem} {fmt}"] = [
                "blowup", str(path), "--cone", "0", "--format", fmt,
            ]
        for path in fans:
            out[f"okounkov {path.stem} translation {fmt}"] = [
                "okounkov", str(path), "--check-translation", "1/2",
                "--format", fmt,
            ]
        for path in surfaces:
            cone = json.loads(path.read_text(encoding="utf-8"))["max_cones"][0]
            order = ",".join(str(i) for i in reversed(cone))
            out[f"okounkov {path.stem} flag {fmt}"] = [
                "okounkov", str(path), "--flag", f"0:{order}",
                "--format", fmt,
            ]
        out[f"okounkov p1 flag 1 {fmt}"] = [
            "okounkov", str(CATALOG / "p1.json"), "--flag", "1", "--format", fmt,
        ]
    return out


def digest(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:  # not an assert, so that a run under -O still checks it
        raise RuntimeError(f"{argv} exited {code}")
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", list(cases()))
def test_report_bytes_are_pinned(name):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert digest(cases()[name]) == expected[name]


def test_every_case_has_a_digest():
    """The table holds one digest per case, in case order, laid out as the
    re-record command prints it, so re-recording reproduces the committed
    file exactly while every report is unchanged.  A re-record is a
    deliberate edit: CHANGES.md names each digest it changes and why.
    """
    text = DIGESTS.read_text(encoding="utf-8")
    expected = json.loads(text)
    assert list(expected) == list(cases())
    assert text == json.dumps(expected, indent=2) + "\n"


def test_every_table_cell_is_json_safe(monkeypatch):
    """``jsonio.dumps`` writes a ``jsonio.Table``'s cells unescaped, so each
    must be JSON-safe: on every case, each is -?digits/digits."""
    real = jsonio._write_table
    tables = []

    def recording(table, out, newline):
        tables.append(table)
        real(table, out, newline)

    monkeypatch.setattr(jsonio, "_write_table", recording)
    json_tables = 0
    for name, argv in cases().items():
        digest(argv)
        json_tables += name.startswith(("blowup ", "okounkov ")) and "json" in argv
    assert len(tables) == json_tables > 0
    ratio = re.compile(r"-?\d+/\d+", re.ASCII)
    cells = [cell for table in tables for row in table.rows for cell in row]
    assert cells and all(ratio.fullmatch(cell) for cell in cells)


if __name__ == "__main__":
    table = {name: digest(argv) for name, argv in cases().items()}
    sys.stdout.write(json.dumps(table, indent=2) + "\n")
