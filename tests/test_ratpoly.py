import random
from dataclasses import dataclass
from fractions import Fraction as F
from math import factorial

import pytest
import sturm_oracle
from test_score_oracle import ample_class

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


def fraction_integral(p, a, b):
    """int_a^b p by the power rule on Fractions: the oracle of ``integral``."""
    terms = (c * (b ** (j + 1) - a ** (j + 1)) / (j + 1) for j, c in enumerate(p))
    return sum(terms, F(0))


def test_derivative_and_integral():
    p = poly(0, 0, 3)  # 3x^2
    assert ratpoly.derivative(p) == poly(0, 6)
    assert pieces((0, 2), p).integral() == 8
    assert pieces((0, 5), poly()).integral() == 0
    # (c / k!, Q): 1/2 * 2x^3, 1/2 * (2x + x^2) and 1 * 0
    assert pieces((0, 1), p).primitives == ((F(1, 2), (0, 0, 0, 2)),)
    assert pieces((0, 1), poly(1, 1)).primitives == ((F(1, 2), (0, 2, 1)),)
    assert pieces((0, 1), poly()).primitives == ((F(1), (0, 0)),)


def test_interpolate_recovers_polynomial():
    p = poly(2, -1, 0, 5)
    nodes = [F(k, 3) for k in range(4)]
    q = ratpoly.interpolate([(x, ratpoly.evaluate(p, x)) for x in nodes])
    assert ratpoly.trim(p) == ratpoly.trim(q)


def test_factorial_interpolate_is_lagrange_times_m_factorial():
    rng = random.Random(20261207)
    for m in range(6):
        for _ in range(40):
            values = [rng.randint(-(10**6), 10**6) for _ in range(m + 1)]
            ints = ratpoly.factorial_interpolate(values)
            assert all(type(c) is int for c in ints) and len(ints) == m + 1
            lagrange = ratpoly.interpolate(list(enumerate(values)))
            assert ratpoly.trim(F(c, factorial(m)) for c in ints) == lagrange
    # t^3 - t = 6 binom(t+1, 3): values 0, 0, 6, 24 give 3! (t^3 - t)
    assert ratpoly.factorial_interpolate([0, 0, 6, 24]) == [0, -6, 0, 6]


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
    assert ratpoly.count_roots(p, F(0), F(2)) == 1


def test_nonnegative_on_simple_cases():
    assert ratpoly.nonnegative_on(poly(0), F(0), F(1))
    assert ratpoly.nonnegative_on(poly(1, -1), F(0), F(1))
    assert not ratpoly.nonnegative_on(poly(-1, 1), F(0), F(1))
    # touches zero in the middle but stays nonnegative
    square = ratpoly.multiply(poly(F(-1, 2), 1), poly(F(-1, 2), 1))
    assert ratpoly.nonnegative_on(square, F(0), F(1))


def test_nonnegative_on_refuses_an_empty_interval():
    with pytest.raises(ValueError, match="empty interval"):
        ratpoly.nonnegative_on(poly(1), 1, 0)


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
                s, F(-3), F(3)
            ) == 0:
                assert not ratpoly.nonnegative_on(flipped, F(-3), F(3))


def squared_roots(*roots):
    """prod (x - r)^2: nonnegative, with a double root at each r."""
    p = poly(1)
    for r in roots:
        p = ratpoly.multiply(p, ratpoly.multiply(poly(-r, 1), poly(-r, 1)))
    return p


def roots_with_multiplicity(*roots):
    """prod (x - r)^m over the (r, m) pairs."""
    p = poly(1)
    for r, m in roots:
        for _ in range(m):
            p = ratpoly.multiply(p, poly(-r, 1))
    return p


@pytest.mark.parametrize(
    "roots, a, b, builds",
    [
        # double roots only: G_0 = p and G_1 = (x - 1)...(x - 4) are built
        (((1, 2), (2, 2), (3, 2), (4, 2)), 0, 5, 2),
        # the triple root -1 outside [0, 4] adds G_2 = x + 1; the midpoint 2
        # and then 1 are roots, so the sign is read at 1/2
        (((1, 2), (2, 2), (3, 2), (-1, 3)), 0, 4, 3),
    ],
)
def test_nonnegative_on_builds_each_sturm_sequence_once(
    monkeypatch, roots, a, b, builds
):
    """One Sturm sequence per nonconstant G_k, the deepest multiplicity."""
    real = ratpoly._sturm_sequence
    calls = []

    def counting(P, Q):
        calls.append(P)
        return real(P, Q)

    monkeypatch.setattr(ratpoly, "_sturm_sequence", counting)
    assert ratpoly.nonnegative_on(roots_with_multiplicity(*roots), F(a), F(b))
    assert len(calls) == builds
    assert len(set(calls)) == builds


def test_nonnegative_on_sturm_builds_do_not_grow_with_the_roots(monkeypatch):
    """One Sturm sequence per G_k = gcd(G_(k-1), G_(k-1)'), whatever the
    number of roots: no root is isolated."""
    real = ratpoly._sturm_sequence
    calls = []

    def counting(P, Q):
        calls.append(P)
        return real(P, Q)

    monkeypatch.setattr(ratpoly, "_sturm_sequence", counting)
    builds = []
    for roots in (range(1, 5), range(1, 7)):
        calls.clear()
        assert ratpoly.nonnegative_on(squared_roots(*roots), F(0), F(7))
        builds.append(len(calls))
    assert builds == [2, 2]


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


def test_integral_and_primitives_match_the_power_rule_on_seeded_pieces():
    rng = random.Random(20261106)
    degrees = set()
    for _ in range(60):
        points = sorted({F(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(5)})
        polys = []
        for _ in points[1:]:
            degree = rng.randint(0, 5)
            degrees.add(degree)
            coeffs = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(degree)]
            lead = F(rng.choice((-1, 1)), rng.randint(1, 4))
            polys.append((*coeffs, lead))
        profile = Pieces(tuple(points), tuple(polys))
        spans = list(zip(points, points[1:]))
        mids = [(a + b) / 2 for a, b in spans]
        for hi in (points[0] - 1, *points, *mids, points[-1] + F(1, 3)):
            parts = [
                fraction_integral(p, a, min(b, hi))
                for (a, b), p in zip(spans, polys)
                if a < hi
            ]
            want = sum(parts, F(0))
            assert profile.integral(hi) == want, (points, polys, hi)
        assert profile.integral() == profile.integral(points[-1] + 1)
        # each entry (c / k!, Q) for the piece (c, P): Q(0) = 0 and Q' = k! P
        for (c, P), (c_k, Q) in zip(profile.integer_pieces, profile.primitives):
            k_fact = factorial(len(P))
            assert all(type(q) is int for q in Q) and Q[0] == 0
            assert ratpoly.derivative(Q) == tuple(k_fact * v for v in P)
            assert c_k * k_fact == c
    assert degrees == set(range(6))


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
                den, nums = profile.grid(count)
                assert [F(n, den) for n in nums] == set_sample_points(
                    lo, hi, profile.breakpoints, count
                )
                checked += 1
    assert checked == 8 * 2 * 6


# ---------------------------------------------------------------------------
# integer Sturm sequences against the Fraction oracle


def catalog_classes(rng):
    """Per dim 2-4 catalog fan: -K, then an integer and a Fraction ample class."""
    for v in catalog.bundled_catalog():
        if 2 <= v.dim <= 4:
            yield v, v.anticanonical()
            yield v, ample_class(rng, v, lambda: rng.randint(1, 6))
            yield v, ample_class(
                rng, v, lambda: F(rng.randint(1, 12), rng.randint(1, 5))
            )


def assert_verdicts_match(p, a, b):
    """count_roots, nonnegative_on and has_root_inside agree with the oracle."""
    if not ratpoly.is_zero(p):
        assert ratpoly.count_roots(p, a, b) == sturm_oracle.count_roots(p, a, b)
    if a <= b:
        assert ratpoly.nonnegative_on(p, a, b) == sturm_oracle.nonnegative_on(p, a, b)
    assert ratpoly.has_root_inside(p, a, b) == sturm_oracle.has_root_inside(p, a, b)


def seeded_polynomial(rng):
    """A rational polynomial of degree <= 6 and its rational roots.

    Rational linear factors, a root repeated half the time, then either an
    irreducible quadratic, x^2 - k with irrational roots or a constant, with
    a leading coefficient of either sign.
    """
    roots = [
        F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))
    ]
    if roots and rng.random() < 0.5:
        roots.append(rng.choice(roots))
    p = (F(rng.choice((-3, -2, -1, 1, 2, 5)), rng.randint(1, 4)),)
    for r in roots:
        p = ratpoly.multiply(p, (-r, 1))
    tail = rng.choice(((1,), (F(rng.randint(1, 5)), 0, 1), (-2, 0, 1)))
    return ratpoly.multiply(p, tail), roots


def test_sturm_verdicts_match_the_fraction_oracle_on_seeded_polynomials():
    rng = random.Random(20261203)
    seen = dict.fromkeys(
        ("repeated", "root at an end", "negative lead", "zero interval", "dip"), 0
    )
    for _ in range(150):
        p, roots = seeded_polynomial(rng)
        assert len(p) <= 7
        ends = roots + [F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(3)]
        for _ in range(4):
            a, b = sorted((rng.choice(ends), rng.choice(ends)))
            assert_verdicts_match(p, a, b)
            assert_verdicts_match(p, b, a)
            seen["root at an end"] += a in roots or b in roots
            seen["zero interval"] += a == b
            seen["dip"] += a < b and not ratpoly.nonnegative_on(p, a, b)
        seen["repeated"] += len(set(roots)) < len(roots)
        seen["negative lead"] += p[-1] < 0
    assert all(count >= 20 for count in seen.values()), seen
    assert_verdicts_match(ratpoly.ZERO, F(0), F(1))
    with pytest.raises(ValueError):
        ratpoly.count_roots(ratpoly.ZERO, 0, 1)


def power(p, m):
    out = poly(1)
    for _ in range(m):
        out = ratpoly.multiply(out, p)
    return out


def test_sturm_verdicts_match_the_fraction_oracle_on_multiple_roots():
    """(x - r)^m (x - s)^k q for m = 1..5, with r at an end of the interval,
    inside it and outside it, and q a quadratic tail."""
    rng = random.Random(20261219)
    seen = dict.fromkeys(("at an end", "inside", "outside", "dip", "nonnegative"), 0)
    for m in range(1, 6):
        for _ in range(40):
            r, s = (F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(2))
            tail = rng.choice(
                ((F(rng.randint(1, 5)), 0, 1), (-2, 0, 1), (-1, 0, 1), (0, 0, 1))
            )
            p = ratpoly.multiply(power(poly(-r, 1), m), tail)
            p = ratpoly.multiply(p, power(poly(-s, 1), rng.randint(0, 4)))
            p = ratpoly.scale(p, rng.choice((-2, -1, 1, 3)))
            w = F(rng.randint(1, 6), rng.randint(1, 3))
            for a, b in (
                (r, r + w),
                (r - w, r),
                (r - w, r + w / 2),
                (r + w, r + 3 * w),
                (s - w, s + w),
            ):
                inside = "inside" if a < r < b else "outside"
                seen["at an end" if r in (a, b) else inside] += 1
                seen["nonnegative" if ratpoly.nonnegative_on(p, a, b) else "dip"] += 1
                assert_verdicts_match(p, a, b)
    assert all(count >= 100 for count in seen.values()), seen


def test_sturm_verdicts_match_the_oracle_on_certified_profile_polynomials(
    monkeypatch,
):
    calls = []

    def recording(name):
        real = getattr(ratpoly, name)

        def record(p, a, b):
            calls.append((p, a, b))
            return real(p, a, b)

        monkeypatch.setattr(ratpoly, name, record)

    recording("nonnegative_on")
    recording("has_root_inside")
    verdicts = []
    for v, d in catalog_classes(random.Random(20261204)):
        for cone in range(len(v.max_cones)):
            profile, _ = invariants.fujita_profile(v, cone, d)
            flag = okounkov.default_flag(v, cone)
            slices = okounkov.slice_profile(okounkov.okounkov_body(d, flag))
            verdicts += [
                profile.inequality_certificate(),
                profile.monotone_certificate(),
                okounkov.bm_concavity_check(slices),
            ]
    monkeypatch.undo()
    assert all(verdicts) and len(verdicts) == 3 * 39 * 3
    assert len(calls) > 1000
    for p, a, b in calls:
        assert_verdicts_match(p, a, b)
