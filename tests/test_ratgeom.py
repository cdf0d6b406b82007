import random
from fractions import Fraction as F
from itertools import product
from math import factorial
from operator import mul

import pytest
from okounkov_lemmas import contains
from slice_oracle import slice_polytope
from test_ratpoly import fraction_integral
from vertex_oracle import det, solve_square

from torifan import ratgeom
from torifan.errors import DegeneratePolytope, UnboundedPolytope, ValidationError
from torifan.ratgeom import Polytope


def box(*bounds):
    """Axis-aligned box from (lo, hi) pairs."""
    halfspaces = []
    for axis, (lo, hi) in enumerate(bounds):
        e = tuple(F(1) if i == axis else F(0) for i in range(len(bounds)))
        halfspaces.append((e, -F(lo)))
        halfspaces.append((tuple(-c for c in e), F(hi)))
    return Polytope(len(bounds), halfspaces)


def simplex(n):
    """Standard simplex x_i >= 0, sum x_i <= 1."""
    halfspaces = [
        (tuple(F(1) if j == i else F(0) for j in range(n)), F(0))
        for i in range(n)
    ]
    halfspaces.append(((F(-1),) * n, F(1)))
    return Polytope(n, halfspaces)


def simplex_volume(simplex):
    """Volume of a simplex by the oracle's Fraction determinant."""
    base = simplex[0]
    rows = [[x - b for x, b in zip(v, base)] for v in simplex[1:]]
    return abs(det(rows)) / factorial(len(rows))


def test_halfspace_rejects_zero_normal():
    with pytest.raises(ValueError):
        Polytope(2, [((F(0), F(0)), F(1))])
    with pytest.raises(ValueError):
        Polytope(2, [((1, 0, 0), 1)])


def test_scaled_rows_give_the_same_polytope():
    rng = random.Random(20261023)
    for n in (1, 2, 3):
        for _ in range(10):
            p = random_polytope(rng, n)
            scaled = []
            for a, b in p.rows:
                k = F(rng.randint(1, 9), rng.randint(1, 9))
                scaled.append((tuple(k * c for c in a), k * b))
            q = Polytope(n, scaled)
            assert q.rows == p.rows
            assert all(isinstance(c, int) for a, b in q.rows for c in a + (b,))
            assert ratgeom.enumerate_vertices(q) == ratgeom.enumerate_vertices(p)
    # a row and its positive rational multiples share one primitive form
    row = ((F(2, 3), F(-4, 9)), F(10, 27))
    assert Polytope(2, [row]).rows == (((9, -6), 5),)


def test_unit_square_vertices():
    sq = box((0, 1), (0, 1))
    verts = ratgeom.enumerate_vertices(sq)
    assert verts == ((F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1)))


def test_simplex_vertices_and_volume():
    s = simplex(3)
    verts = ratgeom.enumerate_vertices(s)
    assert len(verts) == 4
    assert ratgeom.volume(s) == F(1, 6)
    assert ratgeom.barycenter(s) == (F(1, 4), F(1, 4), F(1, 4))


def test_redundant_halfspace_ignored():
    sq = box((0, 1), (0, 1))
    fat = Polytope(2, sq.rows + (((F(1), F(1)), F(5)),))
    assert ratgeom.enumerate_vertices(fat) == ratgeom.enumerate_vertices(sq)
    assert ratgeom.polytopes_equal(fat, sq)


def test_empty_intersection_has_no_vertices():
    empty = Polytope(
        2,
        (
            ((F(1), F(0)), F(0)),
            ((F(-1), F(0)), F(-1)),
        ),
    )
    assert ratgeom.enumerate_vertices(empty) == ()
    assert ratgeom.volume(empty) == 0


def test_unbounded_raises_with_direction():
    # upper half plane
    p = Polytope(2, (((F(0), F(1)), F(0)),))
    with pytest.raises(UnboundedPolytope) as err:
        ratgeom.enumerate_vertices(p)
    d = err.value.direction
    assert d is not None
    assert d[1] >= 0
    p, q = (f"{x.numerator}/{x.denominator}" for x in d)
    assert str(err.value) == f"polytope is unbounded (direction ({p}, {q}))"


def test_unbounded_recession_ray_detected():
    # quadrant x >= 0, y >= 0 has vertex candidates but is unbounded
    p = Polytope(
        2, (((F(1), F(0)), F(0)), ((F(0), F(1)), F(0)))
    )
    with pytest.raises(UnboundedPolytope):
        ratgeom.enumerate_vertices(p)


def test_contains_boundary_and_interior():
    sq = box((0, 1), (0, 1))
    assert contains(sq, (F(1, 2), F(1, 2)))
    assert contains(sq, (F(0), F(1)))
    assert not contains(sq, (F(2), F(0)))


def cross_polytope(n):
    """{x : |x_1| + ... + |x_n| <= 1}: simplicial, not simple for n >= 3."""
    return Polytope(
        n, [(signs, F(1)) for signs in product((1, -1), repeat=n)]
    )


def square_pyramid():
    """Apex (0, 0, 1) over the square [-1, 1]^2: four facets at the apex."""
    sides = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    halfspaces = [((F(0), F(0), F(1)), F(0))]
    halfspaces += [((F(a), F(b), F(-1)), F(1)) for a, b in sides]
    return Polytope(3, halfspaces)


def test_volume_triangulation_base_independent():
    # hexagon: all six vertices matter
    hexgon = Polytope(
        2,
        (
            ((F(1), F(0)), F(1)),
            ((F(-1), F(0)), F(1)),
            ((F(0), F(1)), F(1)),
            ((F(0), F(-1)), F(1)),
            ((F(1), F(1)), F(1)),
            ((F(-1), F(-1)), F(1)),
        ),
    )
    assert len(ratgeom.enumerate_vertices(hexgon)) == 6
    # non-simple polytopes: a face's facets are not all of its tight sets
    cases = [
        (hexgon, F(3), (F(0), F(0))),
        (cross_polytope(3), F(4, 3), (F(0),) * 3),
        (cross_polytope(4), F(2, 3), (F(0),) * 4),
        (square_pyramid(), F(4, 3), (F(0), F(0), F(1, 4))),
    ]
    rng = random.Random(20261018)
    for n in (3, 3, 4, 4):
        p = random_polytope(rng, n)
        while not ratgeom.is_full_dimensional(p):
            p = random_polytope(rng, n)
        cases.append((p, None, None))
    for poly, vol, center in cases:
        n = poly.ambient_dim
        verts = ratgeom.enumerate_vertices(poly)
        facets = [
            [v for v in verts if sum(map(mul, a, v)) + b == 0] for a, b in poly.rows
        ]
        vols = set()
        for base in verts:
            # relabel so that base is the least label and pulled from first
            label = {v: (v != base, v) for v in verts}
            tri = [
                tuple(v for _, v in s)
                for s in ratgeom.pulling_triangulation(
                    label.values(), [[label[v] for v in f] for f in facets]
                )
            ]
            for s in tri:
                assert len(s) == n + 1 and s[0] == base
                assert simplex_volume(s) > 0
            vols.add(sum(simplex_volume(s) for s in tri))
        assert vols == {ratgeom.volume(poly)}
        if vol is not None:
            assert ratgeom.volume(poly) == vol
            assert ratgeom.barycenter(poly) == center


def test_volume_of_shifted_cube():
    c = box((-2, 5), (3, 4), (-1, 0))
    assert ratgeom.volume(c) == 7


def test_barycenter_inside():
    c = box((-2, 5), (3, 4), (-1, 0))
    b = ratgeom.barycenter(c)
    assert b == (F(3, 2), F(7, 2), F(-1, 2))
    assert contains(c, b)


def test_barycenter_of_flat_polytope_raises():
    flat = Polytope(
        2,
        (
            ((F(1), F(0)), F(0)),
            ((F(-1), F(0)), F(0)),
            ((F(0), F(1)), F(0)),
            ((F(0), F(-1)), F(1)),
        ),
    )
    assert ratgeom.volume(flat) == 0
    with pytest.raises(DegeneratePolytope):
        ratgeom.barycenter(flat)


def test_slice_of_simplex():
    s = simplex(2)
    sl = slice_polytope(s, 0, F(1, 4))
    # remaining coordinate runs over [0, 3/4]
    assert ratgeom.enumerate_vertices(sl) == ((F(0),), (F(3, 4),))
    assert ratgeom.volume(sl) == F(3, 4)


def test_slice_outside_is_empty():
    s = simplex(2)
    sl = slice_polytope(s, 0, F(2))
    assert ratgeom.enumerate_vertices(sl) == ()


def test_truncate_and_translate():
    sq = box((0, 1), (0, 1))
    upper = ratgeom.truncate(sq, 1, lo=F(1, 2))
    assert ratgeom.volume(upper) == F(1, 2)
    moved = ratgeom.translate(upper, (F(0), F(-1, 2)))
    # the integer vertex cache is carried over, in order
    assert moved._points == ratgeom.vertex_points(Polytope(2, moved.rows))
    lower = ratgeom.truncate(sq, 1, hi=F(1, 2))
    assert ratgeom.polytopes_equal(moved, lower)


def test_polytopes_equal_detects_difference():
    sq = box((0, 1), (0, 1))
    tri = Polytope(
        2,
        (
            ((F(1), F(0)), F(0)),
            ((F(0), F(1)), F(0)),
            ((F(-1), F(-1)), F(1)),
        ),
    )
    assert not ratgeom.polytopes_equal(sq, tri)


def random_polytope(rng, n):
    """Bounded random polytope: a box cut by a few random halfspaces."""
    bounds = []
    for _ in range(n):
        lo = F(rng.randint(-4, 0), rng.randint(1, 3))
        hi = lo + F(rng.randint(1, 8), rng.randint(1, 3))
        bounds.append((lo, hi))
    p = box(*bounds)
    cuts = list(p.rows)
    for _ in range(rng.randint(1, 3)):
        normal = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        if not any(normal):
            continue
        center = tuple((lo + hi) / 2 for lo, hi in bounds)
        # keep the box center feasible so the cut cannot empty the polytope
        offset = F(rng.randint(0, 2)) - sum(
            c * x for c, x in zip(normal, center)
        )
        cuts.append((normal, offset))
    return Polytope(n, tuple(cuts))


def test_random_polytope_slice_truncate_consistency():
    # volume of a truncation equals the integral of exact slice volumes
    rng = random.Random(20240817)
    checked = 0
    for n in (2, 3):
        while checked < 10 * (n - 1) + 10:
            p = random_polytope(rng, n)
            if not ratgeom.is_full_dimensional(p):
                continue
            verts = ratgeom.enumerate_vertices(p)
            xs = sorted({v[0] for v in verts})
            lo, hi = xs[0], xs[-1]
            total = ratgeom.volume(p)
            # integrate slice volumes piecewise with Simpson-exact sampling:
            # between consecutive critical values the slice volume is a
            # polynomial of degree <= n-1, so interpolation is exact
            from torifan import ratpoly

            acc = F(0)
            for a, b in zip(xs, xs[1:]):
                nodes = [a + (b - a) * F(j, n) for j in range(n + 1)]
                samples = [
                    (
                        x,
                        ratgeom.volume(slice_polytope(p, 0, x)),
                    )
                    for x in nodes
                ]
                piece = ratpoly.interpolate(samples)
                acc += fraction_integral(piece, a, b)
            assert acc == total
            mid = (lo + hi) / 2
            left = ratgeom.volume(ratgeom.truncate(p, 0, hi=mid))
            right = ratgeom.volume(ratgeom.truncate(p, 0, lo=mid))
            assert left + right == total
            checked += 1
        checked = 0


def test_random_polytope_barycenter_membership():
    rng = random.Random(99)
    for _ in range(25):
        p = random_polytope(rng, 2)
        if ratgeom.volume(p) == 0:
            continue
        assert contains(p, ratgeom.barycenter(p))


def test_fan_triangulation_covers_4d_cube():
    c = box((0, 1), (0, 1), (0, 1), (0, 1))
    tri = ratgeom.fan_triangulation(c)
    assert sum(simplex_volume(s) for s in tri) == 1
    for s in tri:
        assert len(s) == 5


def test_exact_solve_and_det():
    rows = ((F(2), F(1)), (F(1), F(3)))
    assert det(rows) == 5
    # the integer determinant keeps the sign of every row swap
    assert ratgeom.int_det(((0, 1, 0), (1, 0, 0), (0, 0, 1))) == -1
    assert ratgeom.int_det(()) == 1  # the empty product
    rng = random.Random(7)
    for n in (1, 2, 3, 4, 5):
        for _ in range(20):
            entries = (0, 0, 1, -1, 2, -3)
            m = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
            assert ratgeom.int_det(m) == det(m)
    x = solve_square(rows, (F(4), F(7)))
    assert x == (F(1), F(2))


def test_triangulations_past_the_simplex_cap_are_refused(monkeypatch):
    cube = box((0, 1), (0, 1), (0, 1))
    assert len(ratgeom.fan_triangulation(cube)) == 6
    monkeypatch.setattr(ratgeom, "MAX_SIMPLICES", 5)
    with pytest.raises(ValidationError, match="MAX_SIMPLICES = 5"):
        ratgeom.volume(box((0, 1), (0, 1), (0, 1)))
    monkeypatch.setattr(ratgeom, "MAX_SIMPLICES", 6)
    assert ratgeom.volume(box((0, 1), (0, 1), (0, 1))) == 1


def test_dimension_and_argument_errors():
    with pytest.raises(ValueError, match="ambient dimension must be at least 1"):
        Polytope(0, [])
    square = box((0, 1), (0, 1))
    with pytest.raises(ValueError, match="point dimension mismatch"):
        contains(square, (F(0),))
    with pytest.raises(ValueError, match="ambient dimension mismatch"):
        ratgeom.polytopes_equal(square, box((0, 1), (0, 1), (0, 1)))
    with pytest.raises(ValueError, match="vector dimension mismatch"):
        ratgeom.translate(square, (F(1),))
    for axis in (-1, 2):
        with pytest.raises(ValueError, match="axis out of range"):
            ratgeom.truncate(square, axis, lo=0)
    with pytest.raises(ValueError, match="lo <= hi"):
        ratgeom.truncate(square, 0, lo=1, hi=0)
