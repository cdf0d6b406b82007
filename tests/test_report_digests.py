"""SHA-256 digests of the sweep reports' bytes over the bundled catalog.

``report_digests.json`` pins the stdout of ``sweep --include-samples`` on
every bundled fan file, of ``verify-theorem`` and of ``gap-report
--dimension 2``, each in ``json`` and ``csv``.  A change that alters any
byte of these reports fails here.  Re-recording is a deliberate edit of the
JSON file, printed by

    PYTHONPATH=src python3 tests/test_report_digests.py > tests/report_digests.json
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from torifan import cli

CATALOG = Path(__file__).resolve().parents[1] / "src/torifan/data/catalog"
DIGESTS = Path(__file__).with_name("report_digests.json")


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
    return out


def digest(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0, argv
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", list(cases()))
def test_report_bytes_are_pinned(name):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert digest(cases()[name]) == expected[name]


def test_every_case_has_a_digest():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert sorted(expected) == sorted(cases())


if __name__ == "__main__":
    table = {name: digest(argv) for name, argv in cases().items()}
    sys.stdout.write(json.dumps(table, indent=2) + "\n")
