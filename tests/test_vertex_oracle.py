"""ratgeom's integer vertex enumeration against the Fraction one it reduces.

``tests/vertex_oracle.py`` solves every row subset with Fraction Gaussian
elimination and proves boundedness with Fraction nullspaces; ratgeom uses
Cramer's rule, integer sign tests and generalized cross products.  Vertex
tuples must be equal, and both must call the same sets unbounded, along
positively proportional directions.
"""

import random
from fractions import Fraction as F
from operator import mul

import pytest
from test_invariants import seeded_class
from test_ratgeom import box, random_polytope, simplex
from test_score_oracle import seeded_classes
from vertex_oracle import fraction_vertices, matrix_rank

from torifan import catalog, ratgeom
from torifan.errors import UnboundedPolytope
from torifan.ratgeom import Polytope


def fresh(poly):
    """A copy with empty caches, so that neither side reads the other's."""
    return Polytope(poly.ambient_dim, poly.rows)


def outcome(enumerate_, poly):
    try:
        return enumerate_(fresh(poly))
    except UnboundedPolytope as exc:
        return exc


def positive_multiple(u, v):
    """Whether u = k * v for some k > 0."""
    i = next(i for i, x in enumerate(v) if x)
    k = F(u[i]) / v[i]
    return k > 0 and all(F(x) == k * y for x, y in zip(u, v))


def assert_matches_oracle(poly):
    got = outcome(ratgeom.enumerate_vertices, poly)
    want = outcome(fraction_vertices, poly)
    if isinstance(want, UnboundedPolytope):
        assert isinstance(got, UnboundedPolytope)
        assert positive_multiple(got.direction, want.direction)
    else:
        assert got == want
    return want


def test_section_polytopes_match_the_oracle_on_every_catalog_fan():
    rng = random.Random(20261019)
    kinds = {"big non-nef": 0, "not big": 0}
    for v in catalog.bundled_catalog():
        classes = seeded_classes(rng, v)
        if v.name in ("F1", "Bl2P2", "Bl3P2"):  # big non-nef classes exist
            classes += [
                seeded_class(rng, v, -2, lambda d: d.is_big() and not d.is_nef())
                for _ in range(3)
            ]
            kinds["big non-nef"] += 3
        # empty and flat section polytopes
        classes += [seeded_class(rng, v, -3, lambda d: not d.is_big())]
        kinds["not big"] += 1
        for d in classes:
            poly = d.section_polytope()
            verts = assert_matches_oracle(poly)
            if len(verts) > 1:
                diffs = [[x - y for x, y in zip(p, verts[0])] for p in verts[1:]]
                rank = ratgeom._affine_rank(ratgeom.vertex_points(poly)[1])
                assert rank == matrix_rank(diffs)
    assert kinds == {"big non-nef": 9, "not big": 11}


def test_random_polytopes_truncations_and_translates_match_the_oracle():
    rng = random.Random(20261020)
    for n, count in ((2, 12), (3, 12), (4, 6)):
        for _ in range(count):
            p = random_polytope(rng, n)
            assert_matches_oracle(p)
            axis = rng.randrange(n)
            cut = F(rng.randint(-6, 6), rng.randint(1, 4))
            assert_matches_oracle(ratgeom.truncate(p, axis, lo=cut))
            assert_matches_oracle(ratgeom.truncate(p, axis, hi=cut))
            shift = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
            assert_matches_oracle(ratgeom.translate(p, shift))
            # dropping halfspaces leaves bounded, unbounded or lined sets
            kept = [h for h in p.rows if rng.random() < 0.6]
            assert_matches_oracle(Polytope(n, kept))


def unimodular_pair(rng, n):
    """A seeded unimodular integer matrix and its inverse, from elementary
    row operations: adding c * row i to row j of the matrix subtracts
    c * column j from column i of the inverse."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in m]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        m[j] = [x + c * y for x, y in zip(m[j], m[i])]
        for row in inv:
            row[i] -= c * row[j]
    if rng.random() < 0.5:  # a reflection: negate row 0 and column 0
        m[0] = [-x for x in m[0]]
        for row in inv:
            row[0] = -row[0]
    return m, inv


def test_affine_images_match_the_oracle():
    rng = random.Random(20261021)
    for n, count in ((2, 12), (3, 12), (4, 6)):
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(count):
            p = random_polytope(rng, n)
            m, inv = unimodular_pair(rng, n)
            product = [[sum(map(mul, row, col)) for col in zip(*inv)] for row in m]
            assert product == identity
            shift = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
            ratgeom.vertex_points(p)  # fill the cache that the image maps
            image = ratgeom.affine_image(p, m, inv, shift)
            assert image._points == ratgeom.vertex_points(fresh(image))
            mapped = sorted(
                tuple(sum(map(mul, row, v)) + x for row, x in zip(m, shift))
                for v in fraction_vertices(p)
            )
            assert list(ratgeom.enumerate_vertices(image)) == mapped
            same = ratgeom.affine_image(p, identity, identity, shift)
            moved = ratgeom.translate(p, shift)
            assert same.rows == moved.rows
            assert same._points == moved._points


def test_empty_sets_match_the_oracle():
    for n in (1, 2, 3):
        cube = box(*[(0, 1)] * n)
        assert assert_matches_oracle(ratgeom.truncate(cube, n - 1, lo=2)) == ()
        assert assert_matches_oracle(ratgeom.truncate(simplex(n), 0, hi=-1)) == ()
    # empty with a line: 0 <= x <= -1 in the plane
    e1 = (F(1), F(0))
    slab = Polytope(2, ((e1, F(0)), ((F(-1), F(0)), F(-1))))
    assert assert_matches_oracle(slab) == ()


@pytest.mark.parametrize(
    "n, halfspaces",
    [
        (1, [((1,), 0)]),  # half-line
        (2, [((1, 0), 0), ((0, 1), 0)]),  # quadrant
        (2, [((0, 1), 0)]),  # half-plane
        (2, [((1, 0), 0), ((-1, 0), 1)]),  # slab with a line
        (2, []),  # the plane
        (3, [((1, 0, 0), 0), ((-1, 0, 0), 1), ((0, 1, 0), 0)]),  # lined slab
        (3, [((1, 1, 0), -1), ((0, 1, 0), 0), ((0, 0, 1), 0), ((1, 0, -1), 2)]),
        (3, [((2, -1, 0), 1), ((-1, 2, 0), 1), ((0, 0, 1), 3), ((1, 1, -1), 0)]),
    ],
)
def test_unbounded_sets_raise_like_the_oracle(n, halfspaces):
    poly = Polytope(n, [(tuple(map(F, a)), F(b)) for a, b in halfspaces])
    assert isinstance(assert_matches_oracle(poly), UnboundedPolytope)


def test_int_rank_matches_matrix_rank():
    rng = random.Random(20261021)
    deficient = 0
    for _ in range(100):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        if rng.random() < 0.5:
            # a product through an inner dimension below min(rows, cols)
            inner = rng.randint(0, max(0, min(rows, cols) - 1))
            left = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(rows)]
            right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(inner)]
            m = [
                [sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                if inner
                else [0] * cols
                for row in left
            ]
        else:
            m = [[rng.choice((0, 0, 1, -1, 2, -5, 7)) for _ in range(cols)]
                 for _ in range(rows)]
        rank = matrix_rank(m)
        deficient += rank < min(rows, cols)
        assert ratgeom.int_rank(m) == rank
    assert deficient >= 30


def test_bounded_enumeration_does_no_fraction_linear_algebra():
    # ratgeom keeps no Fraction elimination at all
    for name in ("solve_square", "matrix_rank", "nullspace", "det"):
        assert not hasattr(ratgeom, name)
    rng = random.Random(20261022)
    polys = [fresh(v.anticanonical().section_polytope())
             for v in catalog.bundled_catalog()]
    polys += [random_polytope(rng, n) for n in (2, 3, 4)]
    for p in polys:
        verts = ratgeom.enumerate_vertices(p)
        assert len(verts) > p.ambient_dim
        assert ratgeom.is_full_dimensional(p)
        assert ratgeom.volume(p) > 0
        assert ratgeom.polytopes_equal(p, fresh(p))
