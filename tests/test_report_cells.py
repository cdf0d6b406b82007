"""Report cells in JSON and CSV against the Fraction reference.

``BlowupReport.cells`` and ``OkounkovReport.cells`` format every table cell
from the integer grid, one gcd per cell (as ``jsonio.format_ratio``), and
feed ``json_dict`` (as a ``jsonio.Table``) and ``csv_text``; the JSON cells
are read back from the text ``jsonio.dumps`` writes.  The reports and their
references are the seeded cases of ``tests/test_report_tables.py``, built
once for both files: every JSON and every CSV cell must equal
``format_rational`` of the reference, and the cases must reach a negative
lower bound, a zero read at the domain end over a denominator above 1 and
pairs not in lowest terms.
"""

import csv
import io
import json
from math import gcd

from test_report_tables import BLOWUP_COLUMNS, blowup_cases, okounkov_cases

from torifan import jsonio


def csv_cells(text, header):
    head, *rows = csv.reader(io.StringIO(text))
    assert head == list(header)
    return [tuple(row) for row in rows]


def json_table(report, key):
    """The table ``key`` of the report's JSON text, as parsed back."""
    return json.loads(jsonio.dumps(report.json_dict()))[key]


def reducible(pairs):
    """How many (num, den) pairs are not in lowest terms."""
    return sum(gcd(num, den) > 1 for num, den in pairs)


def test_blowup_cells_match_the_fraction_reference():
    negative = zero_end = unreduced = 0
    for _, _, _, report, expected in blowup_cases():
        rows = json_table(report, "rows")
        assert all(tuple(row) == BLOWUP_COLUMNS for row in rows)
        got = [tuple(row[key] for key in BLOWUP_COLUMNS) for row in rows]
        assert got == expected
        assert csv_cells(report.csv_text(), BLOWUP_COLUMNS) == expected
        negative += any(lb.startswith("-") for _, _, lb, _ in got)
        # the x = domain_end row: 0 over a denominator above 1
        zero_end += got[-1][1] == "0/1" and report.values[-1] != (0, 1)
        den, nums = report.grid
        unreduced += reducible(report.values) + reducible((x, den) for x in nums)
    assert negative and zero_end and unreduced


def test_okounkov_cells_match_the_fraction_reference():
    unreduced = 0
    for profile, report, expected in okounkov_cases():
        samples = json_table(report, "slice_samples")
        assert all(tuple(row) == ("r", "area") for row in samples)
        assert [(row["r"], row["area"]) for row in samples] == expected
        assert csv_cells(report.csv_text(), ("r", "slice_area")) == expected
        unreduced += reducible(report.values)
        # past the support the profile reads (0, 1), the cell "0/1"
        den, nums = profile.grid(1)
        (past,) = profile.values_at([nums[-1] + 1], den)
        assert past == (0, 1)
        assert jsonio.format_ratio(*past) == "0/1"
    assert unreduced
