"""The cone-inverse table of a variety and the wall rows read off it.

Every entry of ``ToricVariety.cone_inverses`` must invert its cone's ray
matrix, every wall must satisfy its relation, and a cone that is not
unimodular must be refused by name.  The integer wall rows must decide
wall values, nef, ample and both Seshadri constants exactly as the Fraction
formula a_opp_a + a_opp_b + sum b_i a_i over the ``Wall`` fields does;
that formula is kept here as the reference.  The section polytope of a nef
class reads its vertices off the cone table, and they must be the Fraction
oracle's vertices of a fresh polytope.
"""

import random
from fractions import Fraction as F

import pytest
from test_score_oracle import ample_class, principal_shift
from test_toric import _relabelled
from vertex_oracle import fraction_vertices, matrix_rank, solve_square

from torifan import catalog, invariants, ratgeom, toric
from torifan.errors import NotComplete, NotSimplicial, NotSmooth, ValidationError
from torifan.ratgeom import Polytope, scale_to_integers

TOWER_STARTS = (
    (catalog.projective_space(2), 3),
    (catalog.hirzebruch_one(), 2),
    (catalog.projective_space(3), 2),
    (catalog.p1_power(3), 1),
    (catalog.projective_space(4), 1),
)


def towers(rng):
    """Seeded blow-up towers: per level, (ample 3 pi^*D - E, nef pi^*D)."""
    out = []
    for start, depth in TOWER_STARTS:
        x, d = start, start.anticanonical()
        for _ in range(depth):
            bl = toric.blowup_at_fixed_point(x, rng.randrange(len(x.max_cones)))
            pulled = toric.pullback(d, bl)
            x = bl.result
            e = x.divisor([int(i == bl.e_index) for i in range(x.n_rays)])
            d = x.divisor([3 * a - b for a, b in zip(pulled.coeffs, e.coeffs)])
            out.append((d, pulled))
    return out


def all_fans(rng):
    """The catalog, the towers and a unimodular relabelling of each."""
    fans = catalog.bundled_catalog() + [d.variety for d, _ in towers(rng)]
    return fans + [_relabelled(v, rng) for v in fans]


def test_cone_points_solve_each_cone_system():
    """m_sigma is the Fraction solution of <m, u_rho> = -c_rho on sigma's rays,
    for -K and for seeded integer vectors, negative and non-nef ones too."""
    rng = random.Random(20261105)
    kinds = {"nef": 0, "not nef": 0, "negative": 0}
    for v in all_fans(rng):
        vectors = [[1] * v.n_rays]
        vectors += [[rng.randint(-5, 5) for _ in v.rays] for _ in range(3)]
        for c in vectors:
            kinds["nef" if v.divisor(c).is_nef() else "not nef"] += 1
            kinds["negative"] += min(c) < 0
            points = toric.cone_points(v.max_cones, v.cone_inverses, c)
            assert len(points) == len(v.max_cones)
            for cone, m in zip(v.max_cones, points):
                want = solve_square([v.rays[i] for i in cone], [-c[i] for i in cone])
                assert all(type(x) is int for x in m)
                assert tuple(m) == want, (v.name, cone, c)
    assert all(kinds.values()), kinds


def test_cone_inverses_invert_every_ray_matrix():
    rng = random.Random(20261101)
    cones = 0
    for v in all_fans(rng):
        n = v.dim
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        assert len(v.cone_inverses) == len(v.max_cones)
        for cone, inv in zip(v.max_cones, v.cone_inverses):
            assert all(type(x) is int for row in inv for x in row)
            rows = [v.rays[i] for i in cone]
            product = [
                [sum(r[k] * inv[k][j] for k in range(n)) for j in range(n)]
                for r in rows
            ]
            assert product == identity, (v.name, cone)
            cones += 1
    assert cones > 200


def test_every_wall_satisfies_its_relation():
    rng = random.Random(20261102)
    for v in all_fans(rng):
        for w in v.walls:
            terms = [v.rays[w.opp_a], v.rays[w.opp_b]] + [
                tuple(b * c for c in v.rays[i]) for b, i in zip(w.relation, w.rays)
            ]
            assert [sum(col) for col in zip(*terms)] == [0] * v.dim, (v.name, w)


BAD_CONES = [
    # P(1,1,2): cone 2 has |det| = 2
    (
        (2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (0, 2)]),
        NotSmooth,
        r"^cone 2 with rays .* has \|det\| = 2$",
    ),
    # cone 0 of a 3-fold has |det| = 2
    (
        (
            3,
            [(1, 0, 0), (1, 2, 0), (0, 0, 1), (1, 1, -1)],
            [(0, 1, 2), (0, 1, 3)],
        ),
        NotSmooth,
        r"^cone 0 with rays .* has \|det\| = 2$",
    ),
    # P1xP1's rays plus the cone (0, 2) on two opposite rays
    (
        (
            2,
            [(1, 0), (0, 1), (-1, 0), (0, -1)],
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
        ),
        NotSimplicial,
        "^cone 4 has linearly dependent rays$",
    ),
    # u_2 = u_0 + u_1: elimination runs out of pivots at the last column
    (
        (
            3,
            [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)],
            [(0, 1, 3), (0, 1, 2)],
        ),
        NotSimplicial,
        "^cone 1 has linearly dependent rays$",
    ),
]


@pytest.mark.parametrize("fan, error, message", BAD_CONES)
def test_a_cone_that_is_not_unimodular_is_named(fan, error, message):
    with pytest.raises(error, match=message):
        toric.validate_fan(*fan)
    with pytest.raises(error, match=message):
        toric.ToricVariety(*fan).walls


def test_the_walk_inverts_every_cone_as_elimination_does():
    rng = random.Random(20261105)
    cones = 0
    for v in all_fans(rng):
        for ci, cone in enumerate(v.max_cones):
            want = toric._unimodular_inverse(v.rays, cone, ci)
            assert v.cone_inverses[ci] == want, (v.name, ci)
            cones += 1
    assert cones > 200


P2_RAYS = [(1, 0), (0, 1), (-1, -1)]
P2_CONES = [(0, 1), (1, 2), (2, 0)]

TWO_DEFECTS = [
    # cones 1 and 3 have |det| = 2, and the walk from cone 0 meets cone 3
    # first: the lower index is named
    (
        (2, [(1, 0), (1, 2), (-1, 0), (0, -1)], [(2, 3), (0, 1), (3, 0), (1, 2)]),
        NotSmooth,
        r"^cone 1 with rays \[0, 1\] has \|det\| = 2$",
    ),
    # P(1,1,2) without cone (1, 2): cone 1 is singular and walls (1,) and
    # (2,) lie in one cone each
    (
        (2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (0, 2)]),
        NotSmooth,
        r"^cone 1 with rays .* has \|det\| = 2$",
    ),
    # P2 plus the singular cone 3: its walls lie in three cones and in one,
    # so no two-cone wall reaches it
    (
        (2, P2_RAYS + [(1, 2)], P2_CONES + [(0, 3)]),
        NotSmooth,
        r"^cone 3 with rays \[0, 3\] has \|det\| = 2$",
    ),
    # both cones of wall (0,) lie above it, and walls (1,) and (2,) lie in
    # one cone each
    (
        (2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2)]),
        NotComplete,
        r"^cones 0 and 1 are not on opposite sides of wall \(0,\)$",
    ),
    # the same defects, with a one-cone wall sorting first
    (
        (2, [(0, 1), (1, 0), (1, 1)], [(0, 1), (1, 2)]),
        NotComplete,
        r"^wall \(0,\) lies in 1 maximal cones, expected 2$",
    ),
    # P2 and P2 in the basis (1, 1), (1, 2): complete and smooth apart
    (
        (2, P2_RAYS + [(1, 1), (1, 2), (-2, -3)], P2_CONES + [(3, 4), (4, 5), (5, 3)]),
        NotComplete,
        "^cone adjacency graph is disconnected$",
    ),
]


@pytest.mark.parametrize("fan, error, message", TWO_DEFECTS)
def test_a_fan_with_two_defects_reports_the_first(fan, error, message):
    with pytest.raises(error, match=message):
        toric.validate_fan(*fan)
    with pytest.raises(error, match=message):
        toric.ToricVariety(*fan).walls


def test_validate_fan_runs_elimination_once_per_component(monkeypatch):
    real = toric._unimodular_inverse
    calls = []

    def counting(rays, cone, ci):
        calls.append(ci)
        return real(rays, cone, ci)

    monkeypatch.setattr(toric, "_unimodular_inverse", counting)
    for v in catalog.bundled_catalog():
        calls.clear()
        toric.validate_fan(v.dim, v.rays, v.max_cones, v.name)
        assert calls == [0], v.name
    p6 = catalog.projective_space(6)
    calls.clear()
    toric.validate_fan(6, p6.rays, p6.max_cones)
    assert calls == [0]  # 7 cones, one elimination
    calls.clear()
    with pytest.raises(NotComplete, match="disconnected"):
        toric.validate_fan(*TWO_DEFECTS[-1][0])
    assert calls == [0, 3]


def reference_value(wall, coeffs):
    """D.C from the Wall fields: a_opp_a + a_opp_b + sum b_i a_i."""
    acc = F(coeffs[wall.opp_a]) + F(coeffs[wall.opp_b])
    for b, i in zip(wall.relation, wall.rays):
        acc += b * F(coeffs[i])
    return acc


def reference_ratio(variety, num, den):
    """Least (A.C)/(B.C) over the walls with B.C > 0, in Fractions."""
    pairs = [
        (reference_value(w, num), reference_value(w, den)) for w in variety.walls
    ]
    return min(a / b for a, b in pairs if b > 0)


def classes(rng):
    """Ample classes (shifted by rational characters, scaled, with zeros),
    nef pullbacks and seeded Q-divisors on every catalog fan and tower."""
    entries = [(v.anticanonical(), None) for v in catalog.bundled_catalog()]
    entries += towers(rng)
    coeffs = (-3, -1, 0, 0, 1, 2, F(1, 2), F(-2, 3), F(5, 3), F(7, 4))
    out = []
    for ample, nef in entries:
        v = ample.variety
        m = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(v.dim)]
        lam, c = scale_to_integers(ample.coeffs)
        point = toric.cone_points(v.max_cones, v.cone_inverses, c)[0]
        vertex = [F(x, lam) for x in point]
        zeroed = principal_shift(ample, vertex)
        scale = F(rng.randint(1, 7), 3)
        scaled = v.divisor([scale * a for a in zeroed.coeffs])
        out += [ample, principal_shift(ample, m), scaled]
        out += [nef] if nef is not None else []
        out += [v.divisor([rng.choice(coeffs) for _ in v.rays]) for _ in range(4)]
    return out


def test_wall_rows_match_the_fraction_formula():
    rng = random.Random(20261103)
    seen = {"ample": 0, "nef only": 0, "not nef": 0}
    ample_kinds = {"fraction": 0, "negative": 0, "zero": 0}
    for d in classes(rng):
        v = d.variety
        expected = [reference_value(w, d.coeffs) for w in v.walls]
        lam, values = v.scaled_wall_values(d.coeffs)
        assert all(type(x) is int for x in values)
        assert [F(x, lam) for x in values] == expected
        assert d.is_nef() == all(x >= 0 for x in expected)
        assert d.is_ample() == all(x > 0 for x in expected)
        if not d.is_ample():
            seen["nef only" if d.is_nef() else "not nef"] += 1
            continue
        seen["ample"] += 1
        ample_kinds["fraction"] += any(c.denominator > 1 for c in d.coeffs)
        ample_kinds["negative"] += any(c < 0 for c in d.coeffs)
        ample_kinds["zero"] += any(c == 0 for c in d.coeffs)
        eps = invariants.seshadri_constant(d)
        assert type(eps) is F
        assert eps == reference_ratio(v, v.anticanonical().coeffs, d.coeffs)
        if v.dim == 1:  # a star subdivision of a ray would repeat it
            with pytest.raises(ValidationError, match="dimension"):
                toric.blowup_at_fixed_point(v, 0)
    assert all(seen.values()), seen
    assert all(ample_kinds.values()), ample_kinds


def nef_by_cone_points(variety, coeffs):
    """Whether every cone point m_sigma of the class, scaled to integers,
    satisfies every ray inequality <m, u_rho> >= -a_rho: the nef criterion
    of Cox-Little-Schenck, Theorems 6.1.7 and 6.3.12, read off the rays and
    the cone inverses alone."""
    _, c = scale_to_integers(coeffs)
    points = toric.cone_points(variety.max_cones, variety.cone_inverses, c)
    return all(
        sum(x * u for x, u in zip(m, ray)) + a >= 0
        for m in points
        for ray, a in zip(variety.rays, c)
    )


def test_seshadri_constant_is_the_cone_point_nef_threshold():
    """eps = sup{t : -K - t D nef} is read off the wall curves; on a fresh
    copy of the fan, whose wall values raise if read, the cone-point
    criterion must call -K - eps D nef and -K - (eps + 1/k) D not.  This
    checks independently that the wall curves span the Mori cone."""

    def no_wall_values(coeffs):
        raise AssertionError("the cone-point criterion read a wall value")

    rng = random.Random(20261106)
    checked = 0
    for d in classes(rng):
        if not d.is_ample():
            continue
        v = d.variety
        eps = invariants.seshadri_constant(d)
        fresh = toric.validate_fan(v.dim, v.rays, v.max_cones, v.name)
        fresh.scaled_wall_values = no_wall_values
        with pytest.raises(AssertionError, match="read a wall value"):
            fresh.divisor(d.coeffs).is_nef()
        assert nef_by_cone_points(fresh, [1 - eps * a for a in d.coeffs])
        for k in (1, 10, 1000):
            t = eps + F(1, k)
            assert not nef_by_cone_points(fresh, [1 - t * a for a in d.coeffs])
        assert "curve_rows" not in vars(fresh)
        checked += 1
    assert checked >= 60, checked


def section_classes(rng):
    """Per catalog fan and tower level: ample classes (-K or the tower's
    class, and a seeded one), nef pullbacks along a blow-up, every D_rho
    (rulings of P1xP1 and P1xP1xP1 are nef and not big), the ample class
    plus 2 D_rho (big, and not nef on an exceptional ray), 0 and seeded
    mixed classes."""
    entries = [(v.anticanonical(), None) for v in catalog.bundled_catalog()]
    entries += towers(rng)
    for ample, nef in entries:
        yield from classes_on(rng, ample, nef)


def classes_on(rng, ample, nef=None):
    """``section_classes`` on the variety of one ample class."""
    v = ample.variety
    yield ample
    yield ample_class(rng, v, lambda: rng.randint(1, 5))
    if nef is not None:
        yield nef
    if v.dim >= 2:
        bl = toric.blowup_at_fixed_point(v, rng.randrange(len(v.max_cones)))
        yield toric.pullback(ample, bl)
    yield v.divisor([0] * v.n_rays)
    for k in range(v.n_rays):
        unit = v.divisor([int(i == k) for i in range(v.n_rays)])
        yield unit
        yield v.divisor([a + 2 * b for a, b in zip(ample.coeffs, unit.coeffs)])
    for _ in range(4):
        yield v.divisor([rng.randint(-2, 2) for _ in v.rays])


def test_nef_section_vertices_from_the_cone_table_match_the_oracle(monkeypatch):
    real = ratgeom._enumerate
    runs = []

    def counting(poly):
        runs.append(poly)
        return real(poly)

    monkeypatch.setattr(ratgeom, "_enumerate", counting)
    seen = dict.fromkeys(("ample", "nef big", "nef not big", "big not nef"), 0)
    for d in section_classes(random.Random(20261104)):
        v = d.variety
        runs.clear()
        verts = ratgeom.enumerate_vertices(d.section_polytope())
        # a nef class's vertices come from the cone table alone
        assert bool(runs) != d.is_nef(), (v.name, d.coeffs)
        want = fraction_vertices(Polytope(v.dim, zip(v.rays, d.coeffs)))
        assert verts == want, (v.name, d.coeffs)
        diffs = [[x - y for x, y in zip(p, want[0])] for p in want[1:]]
        big = bool(diffs) and matrix_rank(diffs) == v.dim
        assert d.is_big() == big, (v.name, d.coeffs)
        if d.is_ample():
            seen["ample"] += 1
        elif d.is_nef():
            seen["nef big" if big else "nef not big"] += 1
        elif big:
            seen["big not nef"] += 1
    assert all(count >= 20 for count in seen.values()), seen
