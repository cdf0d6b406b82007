import random
from fractions import Fraction as F

import pytest
from score_oracle import ratgeom_report, vanishing_orders
from test_catalog import bundled_fan
from test_score_oracle import principal_shift

from torifan import catalog, invariants, ratgeom, toric
from torifan.errors import (
    NotAmple,
    NotBig,
    NotComplete,
    NotNef,
    NotSimplicial,
    NotSmooth,
    ValidationError,
)

P2_RAYS = [(1, 0), (0, 1), (-1, -1)]
P2_CONES = [(1, 2), (0, 2), (0, 1)]


def p2():
    return toric.validate_fan(2, P2_RAYS, P2_CONES, "P2")


def test_validate_fan_accepts_projective_plane():
    x = p2()
    assert x.dim == 2
    assert x.n_rays == 3
    assert len(x.walls) == 3
    assert len(x.max_cones) == 3


def test_validate_fan_rejects_bad_rays():
    with pytest.raises(ValidationError, match="not primitive"):
        toric.validate_fan(2, [(2, 0), (0, 1), (-1, -1)], P2_CONES)
    with pytest.raises(ValidationError, match="zero"):
        toric.validate_fan(2, [(0, 0), (0, 1), (-1, -1)], P2_CONES)
    with pytest.raises(ValidationError, match="repeated"):
        toric.validate_fan(2, [(0, 1), (0, 1), (-1, -1)], P2_CONES)
    with pytest.raises(ValidationError, match="wrong dimension"):
        toric.validate_fan(2, [(1, 0, 0), (0, 1), (-1, -1)], P2_CONES)
    # refused as a fan file's would be, not rounded: 1.9 is not the ray (1, 0)
    for bad in (1.9, True):
        rays = [(bad, 0), (0, 1), (-1, -1)]
        with pytest.raises(ValidationError, match="^ray 0 has an entry that is not"):
            toric.validate_fan(2, rays, P2_CONES)


def test_validate_fan_rejects_bad_cones():
    with pytest.raises(NotSimplicial):
        toric.validate_fan(2, P2_RAYS, [(0, 1, 2)])
    with pytest.raises(ValidationError, match="listed twice"):
        toric.validate_fan(2, P2_RAYS, [(1, 2), (0, 2), (0, 1), (1, 0)])
    with pytest.raises(ValidationError, match="missing ray"):
        toric.validate_fan(2, P2_RAYS, [(1, 2), (0, 2), (0, 5)])
    with pytest.raises(ValidationError, match="no maximal cone"):
        toric.validate_fan(2, P2_RAYS, [])
    for bad in (1.0, True):
        cones = [(1, 2), (0, 2), (0, bad)]
        with pytest.raises(ValidationError, match="^cone 2 has an index that is not"):
            toric.validate_fan(2, P2_RAYS, cones)


def test_validate_fan_rejects_bad_dimension_cone_indices_and_unused_rays():
    with pytest.raises(ValidationError, match="dimension must be at least 1"):
        toric.validate_fan(0, [], [])
    with pytest.raises(ValidationError, match="^dimension is not an int$"):
        toric.validate_fan(2.0, P2_RAYS, P2_CONES)
    with pytest.raises(ValidationError, match="cone 0 repeats a ray index"):
        toric.validate_fan(2, P2_RAYS, [(1, 1), (0, 2), (0, 1)])
    with pytest.raises(ValidationError, match="some rays belong to no maximal cone"):
        toric.validate_fan(2, P2_RAYS + [(1, 1)], P2_CONES)


def test_validate_fan_rejects_singular_cone():
    # det((1,0),(1,2)) = 2, an A_1 singularity
    with pytest.raises(NotSmooth):
        toric.validate_fan(2, [(1, 0), (1, 2)], [(0, 1)])


def test_validate_fan_rejects_incomplete_fan():
    with pytest.raises(NotComplete):
        toric.validate_fan(2, P2_RAYS, [(1, 2), (0, 1)])


def test_wall_relations_on_p2():
    x = p2()
    # every wall curve is a line: u_a + u_b + u_wall = 0
    assert all(w.relation == (1,) for w in x.walls)
    mk = x.anticanonical()
    lam, values = x.scaled_wall_values(mk.coeffs)
    assert (lam, sorted(values)) == (1, [3, 3, 3])


def test_wall_relations_on_f1():
    x = catalog.hirzebruch_one()
    by_ray = {w.rays[0]: w.relation[0] for w in x.walls}
    # two fibers, the -1 section and the +1 section
    assert by_ray == {0: 0, 1: -1, 2: 0, 3: 1}
    lam, values = x.scaled_wall_values(x.anticanonical().coeffs)
    assert (lam, sorted(values)) == (1, [1, 2, 2, 3])


def test_wall_relations_on_p1xp1():
    x = catalog.p1_power(2)
    assert all(w.relation == (0,) for w in x.walls)
    assert x.scaled_wall_values(x.anticanonical().coeffs) == (1, [2, 2, 2, 2])


def test_wall_relations_need_a_unimodular_cone():
    # built without validation: the first wall's relation would be
    # u_3 + u_2 - (u_0 + u_1) / 2 = 0, which has no integer form
    rays = [(1, 0, 0), (1, 2, 0), (0, 0, 1), (1, 1, -1)]
    x = toric.ToricVariety(3, rays, [(0, 1, 2), (0, 1, 3)])
    with pytest.raises(NotSmooth):
        x.walls
    # P(1,1,2): complete, cone 0 of wall (0,) unimodular, cone 2 not
    x = toric.ToricVariety(2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(NotSmooth, match="cone 2"):
        x.walls


def test_divisor_needs_one_exact_coefficient_per_ray():
    x = p2()
    for bad in (0.1, "1/3", True):
        with pytest.raises(ValidationError, match="^coefficient 1 is not an int"):
            x.divisor([1, bad, 1])
    d = x.divisor([F(1, 3), 1, -2])
    assert d.coeffs == (F(1, 3), 1, -2) and all(type(c) is F for c in d.coeffs)
    with pytest.raises(ValidationError, match="^divisor needs 3 coefficients, got 2$"):
        x.divisor([1, 2])


def test_positivity_predicates_on_f1():
    x = catalog.hirzebruch_one()
    mk = x.anticanonical()
    assert mk.is_ample() and mk.is_nef() and mk.is_big()
    section = x.divisor([0, 0, 0, 1])
    assert section.is_nef() and section.is_big() and not section.is_ample()
    fiber = x.divisor([1, 0, 0, 0])
    assert fiber.is_nef() and not fiber.is_big()
    assert not x.divisor([0, -1, 0, 0]).is_nef()


def test_require_helpers_raise_specific_errors():
    x = catalog.hirzebruch_one()
    with pytest.raises(NotAmple):
        toric.require_ample(x.divisor([0, 0, 0, 1]))
    with pytest.raises(NotBig):
        toric.require_big(x.divisor([1, 0, 0, 0]))
    with pytest.raises(NotNef):
        toric.require_nef(x.divisor([0, -1, 0, 0]))
    toric.require_ample(x.anticanonical())


def test_anticanonical_volumes_of_bundled_surfaces():
    degrees = {"P2": 9, "P1xP1": 8, "F1": 8, "Bl2P2": 7, "Bl3P2": 6}
    for v in catalog.surface_catalog():
        assert v.anticanonical().vol() == degrees[v.name]


def test_anticanonical_volumes_in_higher_dimension():
    assert catalog.projective_space(3).anticanonical().vol() == 64
    assert catalog.projective_space(4).anticanonical().vol() == 625
    assert catalog.p1_power(3).anticanonical().vol() == 48


def test_blowup_of_p2_is_hirzebruch():
    x = p2()
    bl = toric.blowup_at_fixed_point(x, 2)  # cone (0, 1)
    assert bl.e_ray == (1, 1)
    assert bl.result.n_rays == 4
    assert toric.fans_isomorphic(bl.result, catalog.hirzebruch_one())
    assert bl.result.anticanonical().vol() == 8


def test_double_blowup_of_p2_is_degree_seven():
    x = p2()
    first = toric.blowup_at_fixed_point(x, 2)
    # cone (0, 2) survives the first blow-up at index 1
    assert first.result.max_cones[1] == (0, 2)
    second = toric.blowup_at_fixed_point(first.result, 1)
    y = second.result
    assert y.anticanonical().vol() == 7
    assert toric.fans_isomorphic(y, bundled_fan("Bl2P2"))


def test_blowup_rejects_bad_cone_index():
    with pytest.raises(ValidationError):
        toric.blowup_at_fixed_point(p2(), 3)


def test_pullback_and_exceptional():
    x = p2()
    bl = toric.blowup_at_fixed_point(x, 2)
    h = x.divisor([0, 0, 1])
    ph = toric.pullback(h, bl)
    assert ph.coeffs == (0, 0, 1, 0)
    assert ph.vol() == h.vol() == 1
    assert ph.is_nef() and ph.is_big() and not ph.is_ample()
    e = bl.result.divisor([int(i == bl.e_index) for i in range(bl.result.n_rays)])
    assert e.coeffs == (0, 0, 0, 1)
    mk = toric.pullback(x.anticanonical(), bl)
    assert mk.coeffs == (1, 1, 1, 2)
    # discrepancy 1: sigma*(-K) - E is the anticanonical class upstairs
    upstairs = tuple(a - b for a, b in zip(mk.coeffs, e.coeffs))
    assert upstairs == bl.result.anticanonical().coeffs
    with pytest.raises(ValidationError):
        toric.pullback(bl.result.anticanonical(), bl)


def test_pullback_preserves_volume_under_random_blowups():
    rng = random.Random(20260814)
    x = catalog.projective_space(3)
    d = x.anticanonical()
    for _ in range(4):
        bl = toric.blowup_at_fixed_point(x, rng.randrange(len(x.max_cones)))
        d = toric.pullback(d, bl)
        x = bl.result
        assert d.vol() == 64
        assert d.is_nef() and d.is_big() and not d.is_ample()


def test_fans_isomorphic_positive_and_negative():
    assert toric.fans_isomorphic(p2(), catalog.projective_space(2))
    # same fan with rays listed in a different order and a GL(2,Z) twist
    twisted = toric.validate_fan(
        2, [(0, 1), (1, 1), (-1, -2)], [(0, 1), (1, 2), (0, 2)]
    )
    assert toric.fans_isomorphic(twisted, catalog.projective_space(2))
    assert not toric.fans_isomorphic(catalog.hirzebruch_one(), catalog.p1_power(2))
    assert not toric.fans_isomorphic(p2(), catalog.p1_power(2))
    assert not toric.fans_isomorphic(
        catalog.projective_space(3), catalog.p1_power(3)
    )


def test_section_polytope_of_f1_anticanonical():
    x = catalog.hirzebruch_one()
    p = x.anticanonical().section_polytope()
    from torifan import ratgeom

    assert set(ratgeom.enumerate_vertices(p)) == {
        (-1, -1),
        (-1, 1),
        (2, 1),
        (0, -1),
    }
    assert ratgeom.volume(p) == 4


def test_volume_is_homogeneous_of_degree_n():
    for x in catalog.surface_catalog() + [catalog.projective_space(3)]:
        mk = x.anticanonical()
        for c in (2, F(3, 2), F(1, 3)):
            assert x.divisor([c * a for a in mk.coeffs]).vol() == c**x.dim * mk.vol()


def test_functionals_are_class_functions():
    """Adding the divisor of a character leaves every functional unchanged."""
    x = catalog.hirzebruch_one()
    d = x.anticanonical()
    for m in ((1, 0), (0, 1), (-2, 3)):
        shifted = principal_shift(d, m)
        assert shifted.coeffs != d.coeffs
        assert shifted.vol() == d.vol()
        assert x.scaled_wall_values(shifted.coeffs) == x.scaled_wall_values(
            d.coeffs
        )
        assert shifted.is_ample() == d.is_ample()
        assert invariants.seshadri_constant(shifted) == (
            invariants.seshadri_constant(d)
        )
        assert ratgeom_report(shifted).delta == ratgeom_report(d).delta
        assert vanishing_orders(shifted) == vanishing_orders(d)


def _relabelled(variety, rng):
    """The fan under a random unimodular map, rays and cones shuffled."""
    n = variety.dim
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            g[i] = [-c for c in g[i]]
        else:
            k = rng.choice((-2, -1, 1, 2))
            g[i] = [a + k * b for a, b in zip(g[i], g[j])]
    order = list(range(variety.n_rays))
    rng.shuffle(order)
    new_index = {old: new for new, old in enumerate(order)}
    rays = [
        tuple(sum(r * c for r, c in zip(row, variety.rays[old])) for row in g)
        for old in order
    ]
    cones = [tuple(new_index[i] for i in cone) for cone in variety.max_cones]
    rng.shuffle(cones)
    return toric.validate_fan(n, rays, cones, variety.name)


def test_projective_space_by_ray_count_matches_isomorphism():
    def agree(x):
        pn = toric.is_projective_space(x)
        assert pn == toric.fans_isomorphic(x, catalog.projective_space(x.dim))
        return pn

    flagged = {v.name for v in catalog.bundled_catalog() if agree(v)}
    assert flagged == {"P1", "P2", "P3", "P4", "P5", "P6"}
    rng = random.Random(20261018)
    for n in range(1, 5):
        for _ in range(3):
            assert agree(_relabelled(catalog.projective_space(n), rng))
    for start, depth in (
        (catalog.projective_space(2), 3),
        (catalog.hirzebruch_one(), 2),
        (catalog.projective_space(3), 2),
        (catalog.p1_power(3), 1),
        (catalog.projective_space(4), 1),
    ):
        x = start
        for _ in range(depth):
            x = toric.blowup_at_fixed_point(x, rng.randrange(len(x.max_cones))).result
            assert not agree(x)
            assert not agree(_relabelled(x, rng))


def test_projective_space_by_ray_count_needs_a_smooth_complete_fan():
    # three rays in the plane, but P(1,1,2) is singular
    x = toric.ToricVariety(2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(NotSmooth):
        toric.is_projective_space(x)
    # three rays, two cones: not complete
    x = toric.ToricVariety(2, P2_RAYS, [(1, 2), (0, 1)])
    with pytest.raises(NotComplete):
        toric.is_projective_space(x)


def test_is_big_computes_the_affine_rank_once_per_polytope(monkeypatch):
    real = ratgeom._affine_rank
    calls = []

    def counting(points):
        calls.append(len(points))
        return real(points)

    monkeypatch.setattr(ratgeom, "_affine_rank", counting)
    answers = set()
    for v in catalog.bundled_catalog():
        for d in (v.anticanonical(), v.divisor([1] + [0] * (v.n_rays - 1))):
            calls.clear()
            big = {d.is_big() for _ in range(5)}
            assert len(big) == 1 and len(calls) == 1, (v.name, d.coeffs)
            answers |= big
    assert answers == {True, False}
