"""Report cells formatted from integers against the Fraction reference.

``BlowupReport.cells`` and ``OkounkovReport.cells`` format every table cell
from the integer grid, one gcd per cell (``jsonio.format_ratio``).  The
reference is ``format_rational`` of the Fraction rows that
``tests/test_report_tables.py`` rebuilds on its own.  Every JSON and every
CSV cell must be equal to it.
"""

import csv
import io
import random
from fractions import Fraction as F
from math import gcd

from test_ratpoly import catalog_classes
from test_report_tables import formatted, reference_blowup_rows, reference_slice_rows

from torifan import harness, invariants, jsonio, okounkov

COUNTS = (1, 7, 100)
BLOWUP_COLUMNS = ("x", "volume", "lower_bound", "margin")


def csv_cells(text, header):
    head, *rows = csv.reader(io.StringIO(text))
    assert head == list(header)
    return [tuple(row) for row in rows]


def counts_for(d, step):
    """Every count for -K; one per cone for the seeded classes, in rotation."""
    if d == d.variety.anticanonical():
        return COUNTS
    return (COUNTS[step % len(COUNTS)],)


def reducible(pairs):
    """How many (num, den) pairs are not in lowest terms."""
    return sum(gcd(num, den) > 1 for num, den in pairs)


def test_format_ratio_is_format_rational_of_the_fraction():
    rng = random.Random(20261203)
    pairs = [(0, 1), (0, 49), (-8, 1), (-18, 98), (6, 4), (7, 7), (10**30, 6)]
    pairs += [(rng.randint(-999, 999), rng.randint(1, 999)) for _ in range(500)]
    for num, den in pairs:
        assert jsonio.format_ratio(num, den) == jsonio.format_rational(F(num, den))


def test_blowup_cells_match_the_fraction_reference():
    checked = step = negative = zero_end = unreduced = 0
    for v, d in catalog_classes(random.Random(20261205)):
        for cone in range(len(v.max_cones)):
            profile, _ = invariants.fujita_profile(v, cone, d)
            for count in counts_for(d, step):
                report = harness.blowup_command(v, cone, d, samples=count)
                expected = formatted(reference_blowup_rows(profile, count))
                rows = report.json_dict()["rows"]
                assert all(tuple(row) == BLOWUP_COLUMNS for row in rows)
                got = [tuple(row[key] for key in BLOWUP_COLUMNS) for row in rows]
                assert got == expected
                assert csv_cells(report.csv_text(), BLOWUP_COLUMNS) == expected
                negative += any(lb.startswith("-") for _, _, lb, _ in got)
                # the x = domain_end row: 0 over a denominator above 1
                zero_end += got[-1][1] == "0/1" and report.values[-1] != (0, 1)
                den, nums = report.grid
                unreduced += reducible(report.values) + reducible(
                    (x, den) for x in nums
                )
                checked += 1
            step += 1
    assert checked == 39 * (3 + 2)
    assert negative and zero_end and unreduced


def test_okounkov_cells_match_the_fraction_reference():
    checked = step = unreduced = 0
    for v, d in catalog_classes(random.Random(20261206)):
        for cone in range(len(v.max_cones)):
            flag = okounkov.default_flag(v, cone)
            profile = okounkov.slice_profile(okounkov.okounkov_body(d, flag))
            for count in counts_for(d, step):
                report = harness.okounkov_command(v, d, flag=flag, samples=count)
                expected = formatted(reference_slice_rows(profile, count))
                samples = report.json_dict()["slice_samples"]
                assert all(tuple(row) == ("r", "area") for row in samples)
                assert [(row["r"], row["area"]) for row in samples] == expected
                assert csv_cells(report.csv_text(), ("r", "slice_area")) == expected
                unreduced += reducible(report.values)
                checked += 1
            step += 1
        # past the support the profile reads (0, 1), the cell "0/1"
        den, nums = profile.grid(1)
        (past,) = profile.values_at([nums[-1] + 1], den)
        assert past == (0, 1)
        assert jsonio.format_ratio(*past) == "0/1"
    assert checked == 39 * (3 + 2)
    assert unreduced
