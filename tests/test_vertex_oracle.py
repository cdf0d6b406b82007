"""ratgeom's integer vertex enumeration against the Fraction one it reduces.

``tests/vertex_oracle.py`` solves every row subset with Fraction Gaussian
elimination; ratgeom uses Cramer's rule and integer sign tests.  Vertex
tuples must be equal.  ratgeom takes boundedness as the caller's proof
(the ``ratgeom`` module docstring), so the oracle's recession and
nullspace scans check it here, on every polytope that the package builds
from the classes and bodies of every fan.
"""

import random
from collections import Counter
from fractions import Fraction as F
from operator import mul

import pytest
from test_cone_table import all_fans, classes_on
from test_invariants import seeded_class
from test_ratgeom import box, random_polytope, simplex
from test_score_oracle import ample_class, seeded_classes
from vertex_oracle import (
    Unbounded,
    det,
    fraction_vertices,
    matrix_rank,
    pivot_columns,
    solve_square,
)

from torifan import catalog, okounkov, ratgeom, toric
from torifan.errors import NotSimplicial, NotSmooth
from torifan.ratgeom import Polytope


def fresh(poly):
    """A copy with empty caches, so that neither side reads the other's."""
    return Polytope(poly.ambient_dim, poly.rows)


def assert_matches_oracle(poly):
    want = fraction_vertices(fresh(poly))
    assert ratgeom.enumerate_vertices(fresh(poly)) == want
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
    # empty with a line: 0 <= x <= -1 in the plane, of rank 1
    e1 = (F(1), F(0))
    slab = Polytope(2, ((e1, F(0)), ((F(-1), F(0)), F(-1))))
    assert fraction_vertices(slab) == ()
    with pytest.raises(ValueError, match="halfspace normals must have rank n"):
        ratgeom.enumerate_vertices(slab)


def check_bounded(poly, seen, kind):
    """The oracle finds no ray and no line, and its vertices are ratgeom's."""
    try:
        want = fraction_vertices(fresh(poly))
    except Unbounded as exc:
        raise AssertionError(f"{kind}: unbounded along {exc.direction}") from None
    assert ratgeom.enumerate_vertices(poly) == want, kind
    seen[kind] += 1
    return want


def test_every_polytope_the_package_builds_is_bounded():
    """Section polytopes of ample, nef-only, big non-nef, not big and not
    effective classes on every fan, and for each big class its body under a
    seeded flag and that body truncated at nu_1 >= t for t = 0, tau/2 and
    99 tau/100, tau the pseudo-effective threshold: the constructions the
    ``ratgeom`` module docstring proves bounded."""
    rng = random.Random(20261029)
    seen = Counter()
    for v in all_fans(rng):
        ample = ample_class(rng, v, lambda: rng.randint(1, 5))
        for d in (*classes_on(rng, ample), v.divisor([-a for a in ample.coeffs])):
            verts = check_bounded(d.section_polytope(), seen, "section")
            big = d.is_big()
            if d.is_ample():
                seen["ample"] += 1
            elif d.is_nef():
                seen["nef only"] += 1
            elif big:
                seen["big non-nef"] += 1
            seen["big" if big else "not big"] += 1
            seen["not effective"] += not verts
            if not big:
                continue
            x = d.variety  # a pullback lives on a blow-up of v
            c = rng.randrange(len(x.max_cones))
            cone = x.max_cones[c]
            flag = okounkov.FlagSpec(x, c, rng.sample(cone, len(cone)))
            body = okounkov.okounkov_body(d, flag)
            check_bounded(body.polytope, seen, "body")
            tau = okounkov.pseff_threshold(d, flag)
            for t in (0, tau / 2, 99 * tau / 100):
                check_bounded(ratgeom.truncate(body.polytope, 0, lo=t), seen, "cut")
    assert seen["cut"] == 3 * seen["body"] == 3 * seen["big"], seen
    kinds = ("ample", "nef only", "big non-nef", "not big", "not effective")
    assert all(seen[k] >= 20 for k in kinds), seen


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
def test_the_oracle_finds_a_ray_or_a_line(n, halfspaces):
    """The boundedness check of ``check_bounded`` fires on unbounded sets;
    ratgeom, which is never given one, refuses those of rank below n."""
    poly = Polytope(n, [(tuple(map(F, a)), F(b)) for a, b in halfspaces])
    with pytest.raises(Unbounded):
        fraction_vertices(poly)
    if matrix_rank([a for a, _ in poly.rows]) < n:
        with pytest.raises(ValueError, match="halfspace normals must have rank n"):
            ratgeom.vertex_points(poly)


def test_rows_of_rank_below_n_are_refused():
    """Normals spanning a seeded subspace of dimension k < n, with offsets
    that keep the origin feasible: ratgeom refuses them by their rank, where
    the oracle finds a line."""
    rng = random.Random(20261025)
    ranks = Counter()
    while len(ranks) < 6 or min(ranks.values()) < 5:
        n = rng.randint(2, 4)
        k = rng.randint(1, n - 1)
        basis = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        normals = []
        for _ in range(rng.randint(k, k + 3)):
            coeffs = [rng.randint(-2, 2) for _ in basis]
            a = [sum(map(mul, coeffs, col)) for col in zip(*basis)]
            if any(a):
                normals.append(a)
        if not normals or matrix_rank(normals) != k:
            continue
        poly = Polytope(n, [(a, rng.randint(0, 4)) for a in normals])
        with pytest.raises(Unbounded):
            fraction_vertices(poly)
        with pytest.raises(ValueError, match="halfspace normals must have rank n"):
            ratgeom.vertex_points(poly)
        ranks[n, k] += 1


def seeded_matrix(rng, rows, cols):
    """A seeded integer matrix; half of them are a product through an inner
    dimension below min(rows, cols), so of deficient rank."""
    if rng.random() < 0.5:
        inner = rng.randint(0, max(0, min(rows, cols) - 1))
        left = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(rows)]
        right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(inner)]
        return [
            [sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
            if inner
            else [0] * cols
            for row in left
        ]
    return [[rng.choice((0, 0, 1, -1, 2, -5, 7)) for _ in range(cols)]
            for _ in range(rows)]


def test_int_rank_matches_matrix_rank():
    rng = random.Random(20261021)
    deficient = 0
    for _ in range(100):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = seeded_matrix(rng, rows, cols)
        rank = matrix_rank(m)
        deficient += rank < min(rows, cols)
        assert ratgeom.int_rank(m) == rank
    assert deficient >= 30


def test_echelon_matches_the_oracle():
    """Pivot columns, echelon shape, row space and, for square matrices,
    ``sign * m[-1][-1]`` against the Fraction determinant."""
    rng = random.Random(20261023)
    kinds = Counter()
    for _ in range(300):
        rows = rng.randint(1, 7)
        cols = rows if rng.random() < 0.5 else rng.randint(1, 7)
        a = seeded_matrix(rng, rows, cols)
        pivots, m, sign = ratgeom.echelon(a)
        assert pivots == pivot_columns(a)
        for k, c in enumerate(pivots):
            assert m[k][c] and not any(m[k][:c])
            assert all(row[c] == 0 for row in m[k + 1 :])
        assert not any(x for row in m[len(pivots) :] for x in row)
        assert matrix_rank(a + m) == len(pivots)  # the same row space
        if rows == cols:
            d = det(a)
            assert (len(pivots) == rows) == (d != 0)
            if d:
                assert sign * m[-1][-1] == d
            assert ratgeom.int_det(a) == d
            kinds["singular" if d == 0 else "square"] += 1
        else:
            kinds["rectangular"] += 1
    assert min(kinds.values()) >= 40, kinds


def fraction_inverse(m):
    """The inverse by Fraction elimination, one unit vector at a time."""
    n = len(m)
    cols = [solve_square(m, [int(i == j) for i in range(n)]) for j in range(n)]
    return tuple(zip(*cols))


def test_unimodular_inverse_matches_the_fraction_inverse():
    rng = random.Random(20261024)
    for n in range(2, 8):
        for _ in range(10):
            m, inv = unimodular_pair(rng, n)
            got = toric._unimodular_inverse(m, range(n), 3)
            assert got == fraction_inverse(m)
            assert [list(row) for row in got] == inv
            doubled = [[2 * x for x in m[0]]] + m[1:]
            with pytest.raises(NotSmooth, match=r"^cone 3 with rays .* \|det\| = 2$"):
                toric._unimodular_inverse(doubled, range(n), 3)
            repeated = m[:-1] + [m[0]]
            with pytest.raises(NotSimplicial, match="^cone 3 has linearly dependent"):
                toric._unimodular_inverse(repeated, range(n), 3)


def contained(p, q, memo):
    """Whether every Fraction vertex of p satisfies every row of q; ``memo``
    keeps the oracle's vertices by rows."""
    if p.rows not in memo:
        memo[p.rows] = fraction_vertices(p)
    return all(sum(map(mul, a, v)) + b >= 0 for v in memo[p.rows] for a, b in q.rows)


def test_polytopes_equal_matches_mutual_containment():
    """``polytopes_equal`` compares canonical vertex forms; mutual containment
    of the oracle's vertices must agree, on reordered rows, truncations,
    translate round trips through the vertex cache and unrelated pairs."""
    rng = random.Random(20261026)
    verdicts = Counter()
    for n, count in ((2, 50), (3, 24), (4, 2)):
        for _ in range(count):
            p = random_polytope(rng, n)
            rows = list(p.rows)
            rng.shuffle(rows)
            axis = rng.randrange(n)
            cut = F(rng.randint(-6, 6), rng.randint(1, 4))
            shift = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
            memo = {}
            ratgeom.vertex_points(p)  # the round trip carries the cache
            back = ratgeom.translate(ratgeom.translate(p, shift), [-x for x in shift])
            for q in (
                Polytope(n, rows),
                ratgeom.truncate(p, axis, lo=cut),
                ratgeom.truncate(p, axis, hi=cut),
                back,
                random_polytope(rng, n),
            ):
                want = contained(p, q, memo) and contained(q, p, memo)
                assert ratgeom.polytopes_equal(p, q) == want
                assert ratgeom.polytopes_equal(fresh(q), fresh(p)) == want
                verdicts[want] += 1
    assert min(verdicts.values()) >= 20, verdicts


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
