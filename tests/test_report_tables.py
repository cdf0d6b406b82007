"""Report tables on integers against the Fraction rows they replace.

``blowup_command`` and ``okounkov_command`` read their rows from
``Piecewise.grid`` and ``Piecewise.values_at``: integer numerators over one
denominator and a homogeneous integer Horner, formatted once by ``cells``.
The reference here is the computation they replace: the sorted set of
Fraction sample points, a bisection over Fraction breakpoints and Fraction
Horner (``sturm_oracle.horner``), with ``vol - x^n`` and the margin as
Fraction differences.  Every cell must be ``format_rational`` of the
reference, which is injective, so equal cells are equal Fractions.
``cells`` formats each cell from integers, one gcd per cell
(``jsonio.format_ratio``).  ``blowup_cases`` and ``okounkov_cases`` build
each seeded report and its reference once; ``tests/test_report_cells.py``
checks the JSON and CSV cells of the same reports.
"""

import random
from bisect import bisect_left
from fractions import Fraction as F
from functools import cache

from sturm_oracle import horner
from test_ratpoly import catalog_classes, set_sample_points

from torifan import harness, invariants, jsonio, okounkov, ratpoly
from torifan.errors import format_rational
from torifan.invariants import VolumeProfile
from torifan.okounkov import SliceProfile

COUNTS = (1, 2, 3, 7, 32, 100)
BLOWUP_COLUMNS = ("x", "volume", "lower_bound", "margin")

def reference_value(profile, x):
    """The covering piece at x by Fraction Horner; 0 off the support."""
    points = profile.breakpoints
    if not profile.pieces or x < points[0] or x > points[-1]:
        return F(0)
    return horner(profile.pieces[max(bisect_left(points, x) - 1, 0)], x)


def reference_blowup_rows(profile, count):
    rows = []
    for x in set_sample_points(F(0), profile.domain_end, profile.breakpoints, count):
        value = F(0) if x >= profile.domain_end else reference_value(profile, x)
        lower = profile.total - x**profile.dim
        rows.append((x, value, lower, value - lower))
    return tuple(rows)


def reference_slice_rows(profile, count):
    lo, hi = profile.support
    points = set_sample_points(lo, hi, profile.breakpoints, count)
    return tuple((r, reference_value(profile, r)) for r in points)


def formatted(rows):
    return [tuple(map(format_rational, row)) for row in rows]


def table(profile, count):
    """The (x, value) rows the integer core gives."""
    den, nums = profile.grid(count)
    return [(F(n, den), F(*v)) for n, v in zip(nums, profile.values_at(nums, den))]


def counts_for(d, step):
    """All counts for -K; two per cone for the seeded classes, in rotation."""
    if d.coeffs == d.variety.anticanonical().coeffs:
        return COUNTS
    return (COUNTS[step % len(COUNTS)], COUNTS[(step + 3) % len(COUNTS)])


@cache
def blowup_cases():
    """(class, profile, count, report, reference cells), seed 20261201."""
    cases, step = [], 0
    for v, d in catalog_classes(random.Random(20261201)):
        for cone in range(len(v.max_cones)):
            profile, _ = invariants.fujita_profile(v, cone, d)
            for count in counts_for(d, step):
                report = harness.blowup_command(v, cone, d, samples=count)
                expected = formatted(reference_blowup_rows(profile, count))
                cases.append((d, profile, count, report, expected))
            step += 1
    return tuple(cases)


@cache
def okounkov_cases():
    """(profile, report, reference cells), seed 20261202."""
    cases, step = [], 0
    for v, d in catalog_classes(random.Random(20261202)):
        for cone in range(len(v.max_cones)):
            flag = okounkov.default_flag(v, cone)
            profile = okounkov.slice_profile(okounkov.okounkov_body(d, flag))
            for count in counts_for(d, step):
                report = harness.okounkov_command(v, d, flag=flag, samples=count)
                expected = formatted(reference_slice_rows(profile, count))
                cases.append((profile, report, expected))
            step += 1
    return tuple(cases)


def test_format_ratio_is_format_rational_of_the_fraction():
    rng = random.Random(20261203)
    pairs = [(0, 1), (0, 49), (-8, 1), (-18, 98), (6, 4), (7, 7), (10**30, 6)]
    pairs += [(rng.randint(-999, 999), rng.randint(1, 999)) for _ in range(500)]
    for num, den in pairs:
        assert jsonio.format_ratio(num, den) == format_rational(F(num, den))


def test_blowup_rows_match_the_fraction_reference():
    cases = blowup_cases()
    for _, profile, count, report, expected in cases:
        cells = report.cells()
        assert cells == expected
        # the x = domain_end row, where VolumeProfile reads 0
        assert cells[-1][:2] == (format_rational(profile.domain_end), "0/1")
        assert len(cells) >= count + 1
    classes = {id(d): d for d, *_ in cases}.values()
    # a Fraction class may reduce to integers
    assert sum(any(c.denominator > 1 for c in d.coeffs) for d in classes) >= 6
    assert len(cases) == 39 * (6 + 2 * 2)


def test_okounkov_slice_rows_match_the_fraction_reference():
    cases = okounkov_cases()
    for _, report, expected in cases:
        assert report.cells() == expected
    assert len(cases) == 39 * (6 + 2 * 2)


def test_values_at_and_grid_on_degenerate_profiles():
    third = F(1, 3)
    profiles = [
        SliceProfile(2, (third, third), ()),  # no pieces, lo == hi
        SliceProfile(3, (F(0), F(1, 2), F(2)), (ratpoly.ZERO, ratpoly.ZERO)),
        SliceProfile(1, (F(5, 7), F(5, 7)), ((F(1),),)),  # a point body
        SliceProfile(
            2, (F(-3, 2), F(0), F(4, 3)), ((F(3, 2), F(1)), (F(3, 2), F(-9, 8)))
        ),
        VolumeProfile(2, F(7, 2), (F(0), F(1, 2)), ((F(7, 2), F(-1), F(-12)),)),
    ]
    for profile in profiles:
        lo, hi = profile.breakpoints[0], profile.breakpoints[-1]
        for count in COUNTS:
            got = table(profile, count)
            points = set_sample_points(lo, hi, profile.breakpoints, count)
            assert got == [(x, reference_value(profile, x)) for x in points]
            den, nums = profile.grid(count)
            assert [F(n, den) for n in nums] == points
    assert table(profiles[0], 7) == [(third, 0)]
    assert table(profiles[2], 3) == [(F(5, 7), 1)]
    assert all(value == 0 for _, value in table(profiles[1], 32))
    # the volume profile's last piece vanishes at its end
    assert table(profiles[4], 1)[-1] == (F(1, 2), 0)
    # off the support and between grids, piece_value reads the same core
    slopes = profiles[3]
    for x in (F(-2), F(-3, 2), F(-1, 5), F(0), F(1, 7), F(4, 3), F(2)):
        assert slopes.piece_value(x) == reference_value(slopes, x)
