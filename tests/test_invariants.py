import random
from fractions import Fraction as F
from math import factorial

import pytest
from score_oracle import ratgeom_report, vanishing_orders

from torifan import catalog, invariants, ratgeom, ratpoly
from torifan.errors import NotAmple, ValidationError, VerificationError
from torifan.toric import TDivisor


def test_projective_space_hyperplane_is_extremal():
    for n in range(1, 5):
        x = catalog.projective_space(n)
        h = x.divisor([0] * n + [1])
        rep = invariants.score(h)
        assert rep.eps == n + 1
        assert rep.delta == n + 1
        assert rep.beta == n + 1
        assert rep.vol == 1
        assert rep.score == rep.bound == F(n + 1) ** n
        assert rep.is_extremal


def test_anticanonical_seshadri_is_one_everywhere():
    for v in catalog.bundled_catalog():
        assert invariants.seshadri_constant(v.anticanonical()) == 1


def test_hirzebruch_anticanonical_invariants():
    x = catalog.hirzebruch_one()
    mk = x.anticanonical()
    center = ratgeom.barycenter(mk.section_polytope())
    assert center == (F(1, 12), F(1, 6))
    assert vanishing_orders(mk) == [F(13, 12), F(7, 6), F(13, 12), F(5, 6)]
    rep = invariants.score(mk)
    assert rep.vol == 8
    assert rep.eps == 1
    assert rep.delta == F(6, 7)
    assert rep.delta_witness_ray == 1
    assert rep.beta == F(6, 7)
    assert rep.score == F(288, 49)
    assert rep.bound == 9
    assert not rep.is_extremal


def test_expected_order_matches_profile_integral_on_anticanonical():
    for v in catalog.surface_catalog():
        mk = v.anticanonical()
        for i in range(v.n_rays):
            profile = invariants.vanishing_order_profile(mk, i)
            assert profile.total == mk.vol()
            assert profile.integral() / profile.total == vanishing_orders(mk)[i]


def test_expected_order_matches_profile_integral_on_random_ample():
    rng = random.Random(8140617)
    surfaces = catalog.surface_catalog()
    checked = 0
    while checked < 50:
        v = surfaces[rng.randrange(len(surfaces))]
        d = v.divisor([rng.randint(1, 6) for _ in range(v.n_rays)])
        if not d.is_ample():
            continue
        i = rng.randrange(v.n_rays)
        profile = invariants.vanishing_order_profile(d, i)
        assert profile.integral() / profile.total == vanishing_orders(d)[i]
        checked += 1


def test_delta_volume_bound_on_catalog_and_random_classes():
    rng = random.Random(31337)
    for v in catalog.bundled_catalog():
        r = ratgeom_report(v.anticanonical())
        assert r.delta**v.dim * r.vol <= (v.dim + 1) ** v.dim
    surfaces = catalog.surface_catalog()
    checked = 0
    while checked < 25:
        v = surfaces[rng.randrange(len(surfaces))]
        d = v.divisor([rng.randint(1, 5) for _ in range(v.n_rays)])
        if not d.is_big():
            continue
        # big, not always ample: delta is 1 / max S(D_rho), as for -K
        delta = 1 / max(vanishing_orders(d))
        assert delta**v.dim * d.vol() <= (v.dim + 1) ** v.dim
        checked += 1


def test_score_requires_ample():
    x = catalog.hirzebruch_one()
    with pytest.raises(NotAmple):
        invariants.score(x.divisor([0, 0, 0, 1]))


def test_fujita_profile_of_hyperplane_on_p2():
    x = catalog.projective_space(2)
    h = x.divisor([0, 0, 1])
    profile, bl = invariants.fujita_profile(x, 0, h)
    assert profile.total == 1
    assert profile.breakpoints == (0, 1)
    assert len(profile.pieces) == 1
    # the profile is exactly vol - x^2: equality throughout Fujita's bound
    assert ratpoly.trim(profile.pieces[0]) == (F(1), F(0), F(-1))
    assert profile.inequality_certificate()
    assert profile.monotone_certificate()
    x = F(1, 3)
    assert profile.piece_value(x) - (profile.total - x**2) == 0
    assert bl.result.n_rays == 4


def test_fujita_profile_values_and_domain():
    x = catalog.hirzebruch_one()
    profile, _ = invariants.fujita_profile(x, 0, x.anticanonical())
    assert profile.piece_value(0) == profile.total == 8
    assert profile.piece_value(profile.domain_end) == 0
    assert profile.piece_value(profile.domain_end + 5) == 0
    assert profile.is_continuous()
    assert profile.inequality_certificate()
    assert profile.monotone_certificate()


def test_fujita_certificates_across_catalog_surfaces():
    for v in catalog.surface_catalog():
        mk = v.anticanonical()
        for cone_index in range(len(v.max_cones)):
            profile, _ = invariants.fujita_profile(v, cone_index, mk)
            assert profile.inequality_certificate()
            assert profile.monotone_certificate()
            assert profile.is_continuous()


def cut_volume(divisor, normal, level, x):
    """Reference definition: n! vol(P_D intersect {<m, normal> >= x - level})."""
    poly = divisor.section_polytope()
    cut = (tuple(F(c) for c in normal), level - x)
    cut_poly = ratgeom.Polytope(poly.ambient_dim, poly.rows + (cut,))
    return factorial(poly.ambient_dim) * ratgeom.volume(cut_poly)


def assert_matches_cut_volumes(profile, divisor, normal, level):
    points = profile.breakpoints
    assert points[0] == 0
    mids = {(a + b) / 2 for a, b in zip(points, points[1:])}
    for x in sorted(set(points) | mids):
        assert profile.piece_value(x) == cut_volume(divisor, normal, level, x), x


def seeded_class(rng, v, lo, wanted):
    """First seeded class with coefficients in [lo, 5] that passes wanted."""
    while True:
        d = v.divisor([rng.randint(lo, 5) for _ in range(v.n_rays)])
        if wanted(d):
            return d


def test_profiles_match_the_cut_polytope_definition():
    rng = random.Random(20240611)
    classes = []
    for v in catalog.bundled_catalog():
        if 2 <= v.dim <= 4:
            classes += [
                seeded_class(rng, v, 0, TDivisor.is_ample) for _ in range(2)
            ]
        if v.name in ("F1", "Bl2P2", "Bl3P2"):  # big non-nef classes exist
            classes += [
                seeded_class(rng, v, -2, lambda d: d.is_big() and not d.is_nef())
                for _ in range(3)
            ]
    for d in classes:
        v = d.variety
        for i, ray in enumerate(v.rays):
            profile = invariants.vanishing_order_profile(d, i)
            assert_matches_cut_volumes(profile, d, ray, d.coeffs[i])
        if d.is_nef():
            for c, cone in enumerate(v.max_cones):
                profile, bl = invariants.fujita_profile(v, c, d)
                a_e = sum(d.coeffs[i] for i in cone)
                assert_matches_cut_volumes(profile, d, bl.e_ray, a_e)
    # big, not nef: no slice is cut away until nu_1 reaches 5
    f1 = catalog.hirzebruch_one().divisor([0, 5, 0, 3])
    profile = invariants.vanishing_order_profile(f1, 1)
    assert profile.breakpoints == (0, 5, 8)
    assert profile.pieces[0] == (9,)
    assert_matches_cut_volumes(profile, f1, (0, 1), 5)


def test_vanishing_order_profile_rejects_a_missing_ray():
    mk = catalog.hirzebruch_one().anticanonical()
    for bad in (-1, 4):
        with pytest.raises(ValueError, match="no ray with index"):
            invariants.vanishing_order_profile(mk, bad)


def test_fujita_profile_rejects_a_divisor_of_another_variety():
    f1_antik = catalog.hirzebruch_one().anticanonical()
    with pytest.raises(ValidationError):
        invariants.fujita_profile(catalog.projective_space(2), 0, f1_antik)


def test_chain_on_p2_anticanonical_is_tight():
    x = catalog.projective_space(2)
    mk = x.anticanonical()
    beta = invariants.score(mk).beta
    assert beta == 1
    profile, _ = invariants.fujita_profile(x, 0, mk)
    chain = invariants.chain_report(profile, beta)
    assert chain.s_exceptional == 2
    assert chain.log_discrepancy == 2
    assert chain.first_holds and chain.second_holds
    assert chain.all_tight
    assert chain.root == 3
    lhs, rhs = chain.final_value_squared_comparison()
    assert lhs == rhs == 4


def test_chain_holds_at_every_fixed_point_of_the_catalog():
    for v in catalog.surface_catalog():
        mk = v.anticanonical()
        beta = invariants.score(mk).beta
        for cone_index in range(len(v.max_cones)):
            profile, _ = invariants.fujita_profile(v, cone_index, mk)
            chain = invariants.chain_report(profile, beta)
            assert chain.first_holds and chain.second_holds
            lhs, rhs = chain.final_value_squared_comparison()
            assert lhs <= rhs


def test_chain_report_rejects_inconsistent_beta():
    x = catalog.projective_space(2)
    profile, _ = invariants.fujita_profile(x, 0, x.anticanonical())
    with pytest.raises(VerificationError):
        invariants.chain_report(profile, F(5))


def test_seshadri_constant_scales_inversely():
    x = catalog.projective_space(3)
    h = x.divisor([0, 0, 0, 1])
    assert invariants.seshadri_constant(h) == 4
    assert invariants.seshadri_constant(2 * h) == 2


def test_delta_witness_tie_breaks_to_lowest_ray():
    x = catalog.projective_space(2)
    rep = ratgeom_report(x.anticanonical())
    delta, witness = rep.delta, rep.delta_witness_ray
    assert delta == 1
    assert witness == 0  # all rays tie at S = 1


def test_nth_root_helpers():
    assert invariants._int_nth_root(26, 3) == 2
    assert invariants._int_nth_root(27, 3) == 3
    assert invariants._nth_root_exact(F(27, 8), 3) == F(3, 2)
    assert invariants._nth_root_exact(F(2), 2) is None


def test_segment_envelope_of_wall_and_ray_branches():
    """eps and delta along an ample segment equal their branch envelopes.

    Wall pairings are linear in the class, so each eps branch is a ratio of
    affine functions of t reconstructible from the endpoint pairings alone.
    The delta branches move with the barycenter and are genuinely nonlinear,
    so they are evaluated per sample; the final assertion pins down that
    nonlinearity on a concrete ray.
    """
    x = catalog.hirzebruch_one()
    d0 = x.anticanonical()
    d1 = x.divisor([3, 1, 1, 2])
    assert d1.is_ample()
    # integer classes: lam = 1, so the scaled wall values are D.C
    assert x.scaled_wall_values(d1.coeffs)[0] == 1
    k_vals = x.scaled_wall_values(x.anticanonical().coeffs)[1]
    p0 = x.scaled_wall_values(d0.coeffs)[1]
    p1 = x.scaled_wall_values(d1.coeffs)[1]
    for j in range(101):
        t = F(j, 100)
        d = x.divisor(
            [(1 - t) * a + t * b for a, b in zip(d0.coeffs, d1.coeffs)]
        )
        eps_envelope = min(
            k / ((1 - t) * a + t * b) for k, a, b in zip(k_vals, p0, p1)
        )
        assert invariants.seshadri_constant(d) == eps_envelope
        delta_envelope = min(1 / s for s in vanishing_orders(d))
        assert ratgeom_report(d).delta == delta_envelope
    mid = x.divisor(
        [(a + b) / 2 for a, b in zip(d0.coeffs, d1.coeffs)]
    )
    s_mid = vanishing_orders(mid)[1]
    s_avg = (vanishing_orders(d0)[1] + vanishing_orders(d1)[1]) / 2
    assert s_mid != s_avg


def test_score_is_scale_invariant():
    x = catalog.hirzebruch_one()
    d = x.divisor([2, 1, 1, 1])
    base = invariants.score(d)
    for c in (2, F(1, 2), F(7, 3)):
        rep = invariants.score(c * d)
        assert rep.eps == base.eps / c
        assert rep.delta == base.delta / c
        assert rep.beta == base.beta / c
        assert rep.score == base.score
