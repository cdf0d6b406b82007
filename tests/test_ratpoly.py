import random
from dataclasses import dataclass
from fractions import Fraction as F

import pytest

from torifan import catalog, invariants, okounkov, ratpoly


def poly(*coeffs):
    return tuple(F(c) for c in coeffs)


def test_evaluate_horner():
    p = poly(1, -2, 3)  # 1 - 2x + 3x^2
    assert ratpoly.evaluate(p, F(2)) == 9
    assert ratpoly.evaluate(p, F(1, 2)) == F(3, 4)


def test_arithmetic():
    p = poly(1, 1)
    q = poly(-1, 1)
    assert ratpoly.multiply(p, q) == poly(-1, 0, 1)
    assert ratpoly.add(p, q) == poly(0, 2)
    assert ratpoly.subtract(p, q) == poly(2)
    assert ratpoly.scale(p, F(3)) == poly(3, 3)


def test_derivative_and_integral():
    p = poly(0, 0, 3)  # 3x^2
    assert ratpoly.derivative(p) == poly(0, 6)
    assert ratpoly.integrate(p, 0, 2) == 8
    assert ratpoly.integrate(poly(), 0, 5) == 0
    assert ratpoly.antiderivative(p) == poly(0, 0, 0, 1)
    assert ratpoly.antiderivative(poly(1, 1)) == poly(0, 1, F(1, 2))
    assert ratpoly.antiderivative(poly()) == ratpoly.ZERO


def test_interpolate_recovers_polynomial():
    p = poly(2, -1, 0, 5)
    nodes = [F(k, 3) for k in range(4)]
    q = ratpoly.interpolate([(x, ratpoly.evaluate(p, x)) for x in nodes])
    assert ratpoly.equal(p, q)


def test_interpolate_rejects_duplicate_nodes():
    with pytest.raises(ValueError):
        ratpoly.interpolate([(F(0), F(1)), (F(0), F(2))])


def test_count_roots_quadratic():
    p = poly(-1, 0, 1)  # roots at -1 and 1
    assert ratpoly.count_roots(p, F(-2), F(2)) == 2
    assert ratpoly.count_roots(p, F(0), F(2)) == 1
    # the interval is half open: the right endpoint counts
    assert ratpoly.count_roots(p, F(0), F(1)) == 1
    assert ratpoly.count_roots(p, F(3, 2), F(2)) == 0


def test_count_roots_multiple_root_counted_once():
    p = ratpoly.multiply(poly(-1, 1), poly(-1, 1))  # (x-1)^2
    sf = ratpoly.squarefree(p)
    assert ratpoly.count_roots(sf, F(0), F(2)) == 1


def test_nonnegative_on_simple_cases():
    assert ratpoly.nonnegative_on(poly(0), F(0), F(1))
    assert ratpoly.nonnegative_on(poly(1, -1), F(0), F(1))
    assert not ratpoly.nonnegative_on(poly(-1, 1), F(0), F(1))
    # touches zero in the middle but stays nonnegative
    square = ratpoly.multiply(poly(F(-1, 2), 1), poly(F(-1, 2), 1))
    assert ratpoly.nonnegative_on(square, F(0), F(1))


def test_nonnegative_on_catches_sign_dip_next_to_root():
    # -x(1-x)^2 vanishes at both ends of [0,1] but is negative inside
    p = ratpoly.multiply(poly(0, -1), ratpoly.multiply(poly(1, -1), poly(1, -1)))
    assert not ratpoly.nonnegative_on(p, F(0), F(1))


def test_nonnegative_on_negative_only_at_endpoint():
    # x^3 is negative just left of 0
    p = poly(0, 0, 0, 1)
    assert ratpoly.nonnegative_on(p, F(0), F(1))
    assert not ratpoly.nonnegative_on(p, F(-1), F(1))


def test_nonnegative_on_irrational_roots():
    # x^2 - 2 dips below zero between the irrational roots
    p = poly(-2, 0, 1)
    assert not ratpoly.nonnegative_on(p, F(0), F(2))
    assert ratpoly.nonnegative_on(p, F(2), F(3))


def test_nonnegative_on_random_sum_of_squares():
    rng = random.Random(4242)
    for _ in range(20):
        a = poly(*[rng.randint(-5, 5) for _ in range(4)])
        b = poly(*[rng.randint(-5, 5) for _ in range(3)])
        s = ratpoly.add(ratpoly.multiply(a, a), ratpoly.multiply(b, b))
        assert ratpoly.nonnegative_on(s, F(-3), F(3))
        if not ratpoly.is_zero(s):
            flipped = ratpoly.scale(s, F(-1))
            # a nonzero sum of squares cannot be nonnegative after flipping
            # unless it vanishes identically on the interval
            if ratpoly.evaluate(s, F(-3)) > 0 and ratpoly.count_roots(
                ratpoly.squarefree(s), F(-3), F(3)
            ) == 0:
                assert not ratpoly.nonnegative_on(flipped, F(-3), F(3))


def test_gcd_and_squarefree():
    p = ratpoly.multiply(poly(-1, 1), poly(-2, 1))
    q = ratpoly.multiply(poly(-1, 1), poly(3, 1))
    g = ratpoly.gcd_poly(p, q)
    assert ratpoly.equal(g, poly(-1, 1))
    cube = ratpoly.multiply(ratpoly.multiply(poly(-1, 1), poly(-1, 1)), poly(-1, 1))
    assert ratpoly.equal(ratpoly.squarefree(cube), poly(-1, 1))


# ---------------------------------------------------------------------------
# piecewise polynomials


@dataclass(frozen=True)
class Pieces(ratpoly.Piecewise):
    breakpoints: tuple
    pieces: tuple


def pieces(points, *polys):
    return Pieces(tuple(F(b) for b in points), polys)


def test_piece_value_reads_the_left_piece_at_a_breakpoint():
    jump = pieces((0, 1, 2), poly(1), poly(0, 5))  # 1, then 5x
    assert jump.piece_value(0) == 1
    assert jump.piece_value(1) == 1
    assert jump.piece_value(F(3, 2)) == F(15, 2)
    assert jump.piece_value(2) == 10
    assert jump.piece_value(F(-1, 2)) == jump.piece_value(3) == 0
    assert Pieces((F(1), F(1)), ()).piece_value(1) == 0


def test_integral_below_inside_and_past_the_support():
    ramp = pieces((1, 2, 4), poly(-1, 1), poly(1))  # x - 1, then 1
    assert ramp.integral() == F(5, 2)
    assert ramp.integral(0) == ramp.integral(1) == 0
    assert ramp.integral(F(3, 2)) == F(1, 8)
    assert ramp.integral(3) == F(3, 2)
    assert ramp.integral(10) == ramp.integral(4) == F(5, 2)


def test_all_nonnegative_with_a_transform_and_continuity():
    tent = pieces((0, 1, 2), poly(0, 1), poly(2, -1))
    assert tent.all_nonnegative()
    assert tent.is_continuous()
    # the derivative is 1 then -1: the tent rises, then falls
    assert not tent.all_nonnegative(ratpoly.derivative)
    assert not tent.all_nonnegative(lambda p: ratpoly.scale(ratpoly.derivative(p), -1))
    falling = pieces((1, 2), poly(2, -1))
    assert falling.all_nonnegative(lambda p: ratpoly.scale(ratpoly.derivative(p), -1))
    assert pieces((0, 1), poly(-1)).all_nonnegative(lambda p: ratpoly.scale(p, -1))
    assert not pieces((0, 1, 2), poly(1), poly(2)).is_continuous()
    assert pieces((0, 1), poly(3)).is_continuous()


def test_has_root_inside_ignores_roots_at_the_endpoints():
    ends = ratpoly.multiply(poly(0, 1), poly(-1, 1))  # x(x - 1)
    assert not ratpoly.has_root_inside(ends, 0, 1)
    assert ratpoly.has_root_inside(ends, F(-1, 2), 1)
    assert ratpoly.has_root_inside(ends, 0, 2)
    mid = ratpoly.multiply(ends, poly(F(-1, 2), 1))
    assert ratpoly.has_root_inside(mid, 0, 1)
    assert not ratpoly.has_root_inside(mid, F(1, 2), 1)
    double = ratpoly.multiply(poly(F(-1, 3), 1), poly(F(-1, 3), 1))
    assert ratpoly.has_root_inside(double, 0, 1)
    assert not ratpoly.has_root_inside(double, F(1, 3), 1)
    assert ratpoly.has_root_inside(poly(-2, 0, 1), 1, 2)  # sqrt 2
    assert not ratpoly.has_root_inside(poly(3), 0, 1)
    assert not ratpoly.has_root_inside(ends, 1, 1)


def set_sample_points(lo, hi, breakpoints, samples):
    """The report tables' points as they were first built: a sorted set."""
    points = set(breakpoints)
    points.add(lo)
    points.add(hi)
    span = hi - lo
    for j in range(samples + 1):
        points.add(lo + span * F(j, samples))
    return sorted(points)


def test_sample_points_match_the_set_reference_on_catalog_profiles():
    checked = 0
    for variety in catalog.bundled_catalog():
        if not 2 <= variety.dim <= 4:
            continue
        divisor = variety.anticanonical()
        body = okounkov.okounkov_body(divisor, okounkov.default_flag(variety, 0))
        slices = okounkov.slice_profile(body)
        volume, _ = invariants.fujita_profile(variety, 0, divisor)
        for profile, (lo, hi) in (
            (slices, slices.support),
            (volume, (F(0), volume.domain_end)),
        ):
            for count in (1, 2, 3, 7, 32, 100):
                assert profile.sample_points(count) == set_sample_points(
                    lo, hi, profile.breakpoints, count
                )
                checked += 1
    assert checked == 8 * 2 * 6
