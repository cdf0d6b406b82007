import random
from fractions import Fraction as F

import pytest
from okounkov_lemmas import cone_structure_check, nef_by_origin
from okounkov_lemmas import contains_origin, segment_membership_check
from test_catalog import bundled_fan
from test_ratgeom import box

from torifan import catalog, invariants, okounkov, ratgeom, ratpoly, toric
from torifan.errors import NotBig, ThresholdExceeded, ValidationError
from torifan.ratgeom import Polytope


def standard_flag_p2():
    """Flag at the cone spanned by (1,0) and (0,1)."""
    x = catalog.projective_space(2)
    return x, okounkov.default_flag(x, x.max_cones.index((0, 1)))


def model_cone(n):
    """conv{0, e1, e1+e2, ..., e1+...}: slice at r is an (n-1)-simplex."""
    hs = [
        (tuple(F(1 if j == i else 0) for j in range(n)), F(0))
        for i in range(1, n)
    ]
    tail = (F(-1),) + (F(0),) * (n - 1)
    hs.append((tuple(-h for h in tail), F(0)))  # x1 >= 0
    hs.append((tail, F(1)))  # x1 <= 1
    total = (F(1),) + tuple(F(-1) for _ in range(n - 1))
    hs.append((total, F(0)))  # x1 >= x2 + ... + xn
    return okounkov.OkounkovBody(None, None, Polytope(n, hs))


def off_axis_body():
    """The rectangle [0, 1] x [1, 2], off the first axis."""
    return okounkov.OkounkovBody(None, None, box((0, 1), (1, 2)))


def unit_square_body():
    x = catalog.p1_power(2)
    return okounkov.okounkov_body(
        x.divisor([0, 1, 0, 1]), okounkov.default_flag(x, 0)
    )


def test_flag_spec_must_permute_the_cone():
    x = catalog.projective_space(2)
    cone = x.max_cones[0]
    assert okounkov.default_flag(x, 0).ray_order == cone
    with pytest.raises(ValidationError):
        okounkov.FlagSpec(x, 0, (cone[0], cone[0]))
    with pytest.raises(ValidationError):
        okounkov.FlagSpec(x, 0, (0, 1, 2))


def test_flag_spec_refuses_a_cone_index_out_of_range():
    f1 = catalog.hirzebruch_one()
    last = f1.max_cones[-1]
    for index in (-1, len(f1.max_cones), 7):
        message = f"^no maximal cone with index {index}$"
        with pytest.raises(ValidationError, match=message):
            okounkov.FlagSpec(f1, index, last)
        with pytest.raises(ValidationError, match=message):
            okounkov.default_flag(f1, index)


def test_hyperplane_body_is_unit_simplex():
    x, flag = standard_flag_p2()
    body = okounkov.okounkov_body(x.divisor([0, 0, 1]), flag)
    assert set(body.vertices()) == {(0, 0), (1, 0), (0, 1)}
    assert body.volume() == F(1, 2)
    assert 2 * body.volume() == 1  # n! vol(body) = vol(class)
    assert contains_origin(body)


def test_f1_anticanonical_body_is_a_quadrilateral_of_area_4():
    x = catalog.hirzebruch_one()
    for cone_index in range(len(x.max_cones)):
        body = okounkov.okounkov_body(
            x.anticanonical(), okounkov.default_flag(x, cone_index)
        )
        assert len(body.vertices()) == 4
        assert body.volume() == 4
        assert all(all(c >= 0 for c in v) for v in body.vertices())


def test_volume_identity_across_catalog():
    from math import factorial

    for v in catalog.bundled_catalog():
        mk = v.anticanonical()
        body = okounkov.okounkov_body(mk, okounkov.default_flag(v, 0))
        assert factorial(v.dim) * body.volume() == mk.vol()


def test_flag_independence_of_volume():
    rng = random.Random(11)
    x = bundled_fan("Bl3P2")
    mk = x.anticanonical()
    volumes = set()
    for cone_index in range(len(x.max_cones)):
        order = list(x.max_cones[cone_index])
        rng.shuffle(order)
        body = okounkov.okounkov_body(
            mk, okounkov.FlagSpec(x, cone_index, tuple(order))
        )
        volumes.add(body.volume())
    assert volumes == {F(3)}  # 2! * 3 = 6 = vol(-K)


def test_body_requires_big_divisor_and_matching_variety():
    x = catalog.hirzebruch_one()
    flag = okounkov.default_flag(x, 0)
    with pytest.raises(NotBig):
        okounkov.okounkov_body(x.divisor([1, 0, 0, 0]), flag)
    other = catalog.hirzebruch_one()
    with pytest.raises(ValidationError):
        okounkov.okounkov_body(other.anticanonical(), flag)


def test_pseff_threshold_examples():
    x, flag = standard_flag_p2()
    h = x.divisor([0, 0, 1])
    assert okounkov.pseff_threshold(h, flag) == 1
    quadric = catalog.p1_power(2)
    qflag = okounkov.default_flag(quadric, 0)
    mk = quadric.anticanonical()
    assert okounkov.pseff_threshold(mk, qflag) == 2
    # at the threshold the class stops being big
    top = qflag.ray_order[0]
    coeffs = list(mk.coeffs)
    coeffs[top] -= 2
    assert quadric.divisor(coeffs).vol() == 0


def test_translation_identity_worked_examples():
    x, flag = standard_flag_p2()
    body = okounkov.okounkov_body(x.divisor([0, 0, 1]), flag)
    assert okounkov.translation_identity_check(body, 0)
    assert okounkov.translation_identity_check(body, F(1, 2))
    f1 = catalog.hirzebruch_one()
    assert okounkov.translation_identity_check(
        okounkov.okounkov_body(f1.anticanonical(), okounkov.default_flag(f1, 0)),
        F(1, 3),
    )


def test_translation_identity_rejects_out_of_range_t():
    x, flag = standard_flag_p2()
    body = okounkov.okounkov_body(x.divisor([0, 0, 1]), flag)
    with pytest.raises(ThresholdExceeded):
        okounkov.translation_identity_check(body, 1)
    with pytest.raises(ThresholdExceeded):
        okounkov.translation_identity_check(body, F(-1, 2))


def test_translation_identity_on_random_classes_and_flags():
    rng = random.Random(260814)
    surfaces = catalog.surface_catalog()
    pairs = 0
    while pairs < 20:
        v = surfaces[rng.randrange(len(surfaces))]
        d = v.divisor([rng.randint(-1, 4) for _ in range(v.n_rays)])
        if not d.is_big():
            continue
        cone_index = rng.randrange(len(v.max_cones))
        order = list(v.max_cones[cone_index])
        rng.shuffle(order)
        flag = okounkov.FlagSpec(v, cone_index, tuple(order))
        tau = okounkov.pseff_threshold(d, flag)
        body = okounkov.okounkov_body(d, flag)
        for _ in range(10):
            t = tau * F(rng.randint(0, 9), 10)
            assert okounkov.translation_identity_check(body, t)
        pairs += 1


def test_nef_by_origin_worked_examples():
    f1 = catalog.hirzebruch_one()
    assert nef_by_origin(f1.anticanonical())
    p2 = catalog.projective_space(2)
    mixed = p2.divisor([F(-1, 2), 1, 1])
    assert nef_by_origin(mixed) == mixed.is_nef() is True
    # big but strictly negative on the (-1)-curve
    skewed = f1.divisor([1, 1, -1, 1])
    assert skewed.is_big() and not skewed.is_nef()
    assert not nef_by_origin(skewed)


def test_nef_by_origin_agrees_with_wall_test_on_random_big_classes():
    rng = random.Random(777)
    for v in catalog.surface_catalog():
        checked = 0
        while checked < 50:
            d = v.divisor(
                [F(rng.randint(-4, 8), 2) for _ in range(v.n_rays)]
            )
            if not d.is_big():
                continue
            assert nef_by_origin(d) == d.is_nef()
            checked += 1


def test_slice_profile_of_unit_simplex():
    x, flag = standard_flag_p2()
    body = okounkov.okounkov_body(x.divisor([0, 0, 1]), flag)
    profile = okounkov.slice_profile(body)
    assert profile.breakpoints == (0, 1)
    assert len(profile.pieces) == 1
    assert ratpoly.trim(profile.pieces[0]) == (F(1), F(-1))  # A(r) = 1 - r
    assert profile.integral() == body.volume()


def test_slice_profile_of_model_cone_is_monomial():
    from math import factorial

    for n in (2, 3):
        profile = okounkov.slice_profile(model_cone(n))
        assert profile.breakpoints == (0, 1)
        expected = tuple(
            F(1, factorial(n - 1)) if k == n - 1 else F(0) for k in range(n)
        )
        assert ratpoly.trim(profile.pieces[0]) == expected


def test_slice_profile_of_square_is_constant():
    profile = okounkov.slice_profile(unit_square_body())
    assert ratpoly.trim(profile.pieces[0]) == (F(1),)
    assert profile.piece_value(F(1, 3)) == 1
    assert profile.piece_value(2) == 0


def test_a_flat_body_is_refused():
    # the triangle x, y >= 0, x + y <= 2 in the plane z = 0 of R^3
    hs = [
        ((F(1), F(0), F(0)), F(0)),
        ((F(0), F(1), F(0)), F(0)),
        ((F(-1), F(-1), F(0)), F(2)),
        ((F(0), F(0), F(1)), F(0)),
        ((F(0), F(0), F(-1)), F(0)),
    ]
    with pytest.raises(ValidationError, match="body must be full-dimensional"):
        okounkov.OkounkovBody(None, None, Polytope(3, hs))


def test_slice_profile_in_dimension_one():
    """The general path gives a segment of length a + b the piece 1."""
    p1 = catalog.projective_space(1)
    for cone_index in (0, 1):
        for coeffs in ([0, 1], [1, 0], [1, 1], [F(-1, 2), 3], [F(5, 3), F(1, 4)]):
            body = okounkov.okounkov_body(
                p1.divisor(coeffs), okounkov.default_flag(p1, cone_index)
            )
            profile = okounkov.slice_profile(body)
            length = sum(coeffs)
            assert profile.dim == 1
            assert profile.support == (0, length)
            assert profile.pieces == ((F(1),),)
            assert profile.piece_value(length / 2) == 1
            assert profile.integral() == length
            assert okounkov.bm_concavity_check(profile) is True


def test_every_slice_profile_has_one_more_breakpoint_than_pieces():
    rng = random.Random(20261019)
    bodies = []
    for v in catalog.bundled_catalog():
        built = 0
        while built < 2:
            d = v.divisor([rng.randint(-1, 3) for _ in range(v.n_rays)])
            if d.is_big():
                flag = okounkov.default_flag(v, rng.randrange(len(v.max_cones)))
                bodies.append(okounkov.okounkov_body(d, flag))
                built += 1
    for body in bodies:
        profile = okounkov.slice_profile(body)
        assert len(profile.breakpoints) == len(profile.pieces) + 1


def test_slice_integral_matches_truncated_volume():
    rng = random.Random(90210)
    x = catalog.hirzebruch_one()
    body = okounkov.okounkov_body(
        x.anticanonical(), okounkov.default_flag(x, 1)
    )
    profile = okounkov.slice_profile(body)
    lo, hi = profile.support
    assert profile.integral() == body.volume()
    for _ in range(10):
        cut = lo + (hi - lo) * F(rng.randint(0, 20), 20)
        chunk = ratgeom.truncate(body.polytope, 0, lo=lo, hi=cut)
        assert profile.integral(cut) == ratgeom.volume(chunk)


def test_bm_concavity_on_catalog_bodies():
    for v in catalog.surface_catalog() + [catalog.p1_power(3)]:
        body = okounkov.okounkov_body(
            v.anticanonical(), okounkov.default_flag(v, 0)
        )
        assert okounkov.bm_concavity_check(okounkov.slice_profile(body))


def test_bm_concavity_synthetic_profiles():
    mk = okounkov.SliceProfile
    # tent function: concave
    assert okounkov.bm_concavity_check(
        mk(2, (F(0), F(1), F(2)), ((F(0), F(1)), (F(2), F(-1))))
    )
    # jump from r to the constant 2 at r = 1: not concave
    assert not okounkov.bm_concavity_check(
        mk(2, (F(0), F(1), F(2)), ((F(0), F(1)), (F(2),)))
    )
    # V shape: slopes increase through the junction
    assert not okounkov.bm_concavity_check(
        mk(2, (F(0), F(1), F(2)), ((F(2), F(-1)), (F(0), F(1))))
    )
    # r^2 in dimension 3 transforms to the linear r
    assert okounkov.bm_concavity_check(
        mk(3, (F(0), F(1)), ((F(0), F(0), F(1)),))
    )
    # r^4 in dimension 3 transforms to the convex r^2
    assert not okounkov.bm_concavity_check(
        mk(3, (F(0), F(1)), ((F(0), F(0), F(0), F(0), F(1)),))
    )
    # interior zero stretch between positive pieces
    assert not okounkov.bm_concavity_check(
        mk(
            2,
            (F(0), F(1), F(2), F(3)),
            ((F(1),), (F(0),), (F(1),)),
        )
    )


def test_bm_concavity_rejects_a_negative_profile():
    # h = 0 and no slope changes: only the sign of A rejects these
    mk = okounkov.SliceProfile
    assert not okounkov.bm_concavity_check(mk(2, (F(0), F(1)), ((F(-1),),)))
    assert not okounkov.bm_concavity_check(
        mk(2, (F(0), F(1), F(2)), ((F(-1),), (F(-1),)))
    )
    assert okounkov.bm_concavity_check(mk(2, (F(0), F(1)), ((F(1),),)))


def test_bm_concavity_rejects_a_bump_between_sample_points():
    # dimension 2: A^(1/(n-1)) = A, and A'' = -(r - a)(r - b) is positive
    # only on (a, b), which has length 1/402 and lies strictly between the
    # grid points 100/201 and 101/201, so A'' <= 0 at every j/201
    a, b = F(401, 804), F(403, 804)
    piece = (F(1), F(0), -a * b / 2, (a + b) / 6, F(-1, 12))
    second = ratpoly.derivative(ratpoly.derivative(piece))
    assert ratpoly.trim(second) == (-a * b, a + b, F(-1))
    assert all(ratpoly.evaluate(second, F(j, 201)) <= 0 for j in range(202))
    assert ratpoly.evaluate(second, (a + b) / 2) > 0
    profile = okounkov.SliceProfile(2, (F(0), F(1)), (piece,))
    assert not okounkov.bm_concavity_check(profile)


def test_cone_structure_of_model_cone():
    body = model_cone(2)
    assert cone_structure_check(body, 1)
    assert cone_structure_check(body, F(1, 2))
    assert cone_structure_check(model_cone(3), 1)
    with pytest.raises(ValueError):
        cone_structure_check(body, 0)


def test_unit_square_is_not_a_cone():
    assert not cone_structure_check(unit_square_body(), 1)


def equality_case_blowup_body(variety, cone_index, divisor):
    """Body of the pullback for the flag starting with the exceptional ray."""
    bl = toric.blowup_at_fixed_point(variety, cone_index)
    pulled = toric.pullback(divisor, bl)
    target = next(
        ci
        for ci, cone in enumerate(bl.result.max_cones)
        if bl.e_index in cone
    )
    cone = bl.result.max_cones[target]
    order = (bl.e_index,) + tuple(i for i in cone if i != bl.e_index)
    return okounkov.okounkov_body(
        pulled, okounkov.FlagSpec(bl.result, target, order)
    )


def test_equality_case_blowup_body_on_p2():
    x = catalog.projective_space(2)
    body = equality_case_blowup_body(x, 0, x.divisor([0, 0, 1]))
    assert set(body.vertices()) == {(0, 0), (1, 0), (1, 1)}
    assert cone_structure_check(body, 1)
    assert segment_membership_check(body, 1)


def test_equality_case_blowup_body_on_quadric():
    x = catalog.p1_power(2)
    body = equality_case_blowup_body(x, 0, x.anticanonical())
    # the Fujita profile equals 8 - x^2 up to the Seshadri constant 2
    profile, _ = invariants.fujita_profile(x, 0, x.anticanonical())
    for x in (F(1), F(2)):
        assert profile.piece_value(x) == profile.total - x**2
    assert cone_structure_check(body, 2)
    assert segment_membership_check(body, 2)


def test_segment_membership_negative_control_off_axis():
    # flag point on the negative curve of a non-nef class: the body
    # detaches from the first axis entirely
    x = catalog.hirzebruch_one()
    skewed = x.divisor([1, 1, -1, 1])
    body = okounkov.okounkov_body(skewed, okounkov.default_flag(x, 0))
    assert set(body.vertices()) == {(0, 1), (0, 2), (1, 2)}
    assert not contains_origin(body)
    assert not segment_membership_check(body, 1)
    # a synthetic off-axis rectangle fails the same way
    assert not segment_membership_check(off_axis_body(), 1)


def test_bodies_must_sit_in_the_orthant():
    square = Polytope(
        2,
        (
            ((F(1), F(0)), F(1)),
            ((F(-1), F(0)), F(0)),
            ((F(0), F(1)), F(0)),
            ((F(0), F(-1)), F(1)),
        ),
    )
    with pytest.raises(ValidationError, match="body must lie in the orthant"):
        okounkov.OkounkovBody(None, None, square)
