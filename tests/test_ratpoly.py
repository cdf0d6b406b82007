import random
from fractions import Fraction as F

import pytest

from torifan import ratpoly


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
