"""Acceptance gate: the eight end-to-end checks the package must satisfy.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` and in the
verbose test listing) and enforces its runtime budget.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from torifan import catalog, harness, invariants, okounkov, ratgeom, ratpoly, sweep
from torifan.ratgeom import Polytope


@contextmanager
def criterion(number, label, budget_seconds=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL {number}/8 {label}", flush=True)
        raise
    elapsed = time.monotonic() - start
    if budget_seconds is not None:
        assert elapsed < budget_seconds, (
            f"{label}: {elapsed:.2f}s exceeds the {budget_seconds}s budget"
        )
    print(f"PASS {number}/8 {label} ({elapsed:.2f}s)", flush=True)


def test_01_projective_space_attains_the_bound():
    with criterion(1, "score(P^n, O(1)) = (n+1)^n exactly for n = 1..4", 1.0):
        for n in range(1, 5):
            x = catalog.projective_space(n)
            rep = invariants.score(x.divisor([0] * n + [1]))
            assert rep.eps == n + 1
            assert rep.delta == n + 1
            assert rep.beta == n + 1
            assert rep.score == F(n + 1) ** n == rep.bound
            assert rep.is_extremal


def test_02_hirzebruch_anticanonical_pipeline():
    with criterion(2, "F1 pipeline: delta 6/7, eps 1, score 288/49 < 9", 1.0):
        x = catalog.hirzebruch_one()
        mk = x.anticanonical()
        rep = invariants.score(mk)
        assert rep.delta == F(6, 7)
        assert rep.delta_witness_ray == 1
        assert x.rays[1] == (0, 1)
        assert invariants.expected_vanishing_order(mk, 1) == F(7, 6)
        assert rep.eps == 1
        assert rep.beta == F(6, 7)
        assert rep.score == F(288, 49)
        assert rep.score < 9
        # barycenter against the defining-integral oracle: recover each
        # coordinate from profile integrals of the axis rays
        bary = ratgeom.barycenter(mk.section_polytope())
        assert bary == (F(1, 12), F(1, 6))
        sx = invariants.vanishing_order_profile(mk, 0)
        sy = invariants.vanishing_order_profile(mk, 1)
        assert sx.integral() / sx.total - mk.coeffs[0] == bary[0]
        assert sy.integral() / sy.total - mk.coeffs[1] == bary[1]


def test_03_surface_sweeps_at_resolution_8():
    with criterion(
        3, "resolution-8 sweeps: score and delta bounds, zero violations", 30.0
    ):
        for v in catalog.surface_catalog():
            res = sweep.sweep_ample_cone(v, 8, collect_cap=0)
            assert res.ample_samples >= 100
            assert res.max_score <= 9
            assert res.bound == 9
            if v.name == "P2":
                assert res.gap == 0
            else:
                assert res.gap > 0
            # spot check the stability-threshold volume bound directly
            assert invariants.delta_volume_bound_check(v.anticanonical())


def test_04_fujita_profiles():
    with criterion(
        4, "Fujita profiles: exact 1 - x^2 on P2 and certified margins", 10.0
    ):
        p2 = catalog.projective_space(2)
        h = p2.divisor([0, 0, 1])
        for cone_index in p2.fixed_points():
            profile, _ = invariants.fujita_profile(p2, cone_index, h)
            assert profile.breakpoints == (0, 1)
            assert len(profile.pieces) == 1
            assert ratpoly.equal(profile.pieces[0], (F(1), F(0), F(-1)))
        for v in catalog.surface_catalog():
            mk = v.anticanonical()
            for cone_index in v.fixed_points():
                profile, _ = invariants.fujita_profile(v, cone_index, mk)
                assert profile.inequality_certificate()
                end = profile.domain_end
                points = set(profile.breakpoints)
                points.update(end * F(j, 100) for j in range(101))
                assert all(profile.margin(x) >= 0 for x in sorted(points))


def test_05_vanishing_order_integrals_and_the_p2_chain():
    with criterion(
        5, "S equals its defining integral; the P2 chain is tight"
    ):
        for v in catalog.surface_catalog():
            mk = v.anticanonical()
            for i in range(v.n_rays):
                profile = invariants.vanishing_order_profile(mk, i)
                assert profile.integral() / profile.total == (
                    invariants.expected_vanishing_order(mk, i)
                )
        rng = random.Random(50817)
        surfaces = catalog.surface_catalog()
        checked = 0
        while checked < 50:
            v = surfaces[rng.randrange(len(surfaces))]
            d = v.divisor([rng.randint(1, 7) for _ in range(v.n_rays)])
            if not d.is_ample():
                continue
            i = rng.randrange(v.n_rays)
            profile = invariants.vanishing_order_profile(d, i)
            assert profile.integral() / profile.total == (
                invariants.expected_vanishing_order(d, i)
            )
            checked += 1
        p2 = catalog.projective_space(2)
        mk = p2.anticanonical()
        beta = invariants.greatest_ricci_lower_bound(mk)
        for cone_index in p2.fixed_points():
            profile, _ = invariants.fujita_profile(p2, cone_index, mk)
            chain = invariants.chain_report(profile, beta)
            assert chain.log_discrepancy >= chain.beta * chain.s_exceptional
            assert chain.first_holds and chain.second_holds
            assert chain.all_tight
            lhs, rhs = chain.final_value_squared_comparison()
            assert lhs == rhs


def test_06_okounkov_identities():
    with criterion(
        6, "body volumes, translation identity, nef criterion agreement", 60.0
    ):
        from math import factorial

        rng = random.Random(60814)
        # volume identity on every constructed body
        for v in catalog.bundled_catalog():
            mk = v.anticanonical()
            cones = v.fixed_points() if v.dim <= 3 else range(1)
            for cone_index in cones:
                body = okounkov.okounkov_body(
                    mk, okounkov.default_flag(v, cone_index)
                )
                assert factorial(v.dim) * body.volume() == mk.vol()
                assert all(
                    all(c >= 0 for c in vert) for vert in body.vertices()
                )
        # translation identity on 20 (class, flag) pairs, 10 random t each
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
                t = tau * F(rng.randint(0, 99), 100)
                assert okounkov.translation_identity_check(body, t)
            pairs += 1
        # nef criterion agreement on 50 random big classes per surface
        for v in surfaces:
            checked = 0
            while checked < 50:
                d = v.divisor(
                    [F(rng.randint(-4, 8), 2) for _ in range(v.n_rays)]
                )
                if not d.is_big():
                    continue
                assert okounkov.nef_by_origin(d) == d.is_nef()
                checked += 1


def test_07_cone_structure_mechanics():
    with criterion(
        7, "model-cone slices, concavity, cone and segment checks"
    ):
        from math import factorial

        # model cone: slice area r^{n-1}/(n-1)! exactly
        for n in (2, 3):
            hs = [
                (
                    tuple(F(1 if j == i else 0) for j in range(n)), F(0)
                )
                for i in range(1, n)
            ]
            e1 = (F(1),) + (F(0),) * (n - 1)
            hs.append((e1, F(0)))
            hs.append((tuple(-c for c in e1), F(1)))
            hs.append(
                ((F(1),) + tuple(F(-1) for _ in range(n - 1)), F(0))
            )
            body = okounkov.OkounkovBody.from_polytope(Polytope(n, hs))
            profile = okounkov.slice_profile(body)
            monomial = tuple(
                F(1, factorial(n - 1)) if k == n - 1 else F(0)
                for k in range(n)
            )
            assert profile.breakpoints == (0, 1)
            assert all(ratpoly.equal(p, monomial) for p in profile.pieces)
            assert okounkov.bm_concavity_check(profile)
        # concavity across the whole catalog
        for v in catalog.bundled_catalog():
            body = okounkov.okounkov_body(
                v.anticanonical(), okounkov.default_flag(v, 0)
            )
            assert okounkov.bm_concavity_check(okounkov.slice_profile(body))
        # equality-case blow-up body of (P2, O(1)): a cone on [0, 1]
        from torifan import toric

        p2 = catalog.projective_space(2)
        bl = toric.blowup_at_fixed_point(p2, 0)
        pulled = toric.pullback(p2.divisor([0, 0, 1]), bl)
        target = next(
            ci
            for ci, cone in enumerate(bl.result.max_cones)
            if bl.e_index in cone
        )
        order = (bl.e_index,) + tuple(
            i for i in bl.result.max_cones[target] if i != bl.e_index
        )
        body = okounkov.okounkov_body(
            pulled, okounkov.FlagSpec(bl.result, target, order)
        )
        assert okounkov.cone_structure_check(body, 1)
        assert okounkov.segment_membership_check(body, 1)
        # negative controls: the unit square is no cone, and a body pushed
        # off the first axis misses the segment
        quadric = catalog.p1_power(2)
        square = okounkov.okounkov_body(
            quadric.divisor([0, 1, 0, 1]), okounkov.default_flag(quadric, 0)
        )
        assert not okounkov.cone_structure_check(square, 1)
        off_axis = okounkov.OkounkovBody.from_polytope(
            Polytope(
                2,
                (
                    ((F(1), F(0)), F(0)),
                    ((F(-1), F(0)), F(1)),
                    ((F(0), F(1)), F(-1)),
                    ((F(0), F(-1)), F(2)),
                ),
            )
        )
        assert not okounkov.segment_membership_check(off_axis, 1)


def test_08_gap_report_refinement():
    with criterion(
        8, "surface gap report at resolution 16 with refinement trend", 120.0
    ):
        entries = catalog.load_catalog()
        fine = harness.gap_report(entries, 16, dimension=2)
        (row,) = fine.rows
        dim, eps, name = row
        assert dim == 2
        assert eps > 0
        assert eps <= 1
        assert name == "P1xP1"
        quadric = next(
            d for d in fine.detail if d[0] == "P1xP1"
        )
        assert quadric[2] == 8  # max score witnessing the epsilon bound
        coarse = harness.gap_report(entries, 8, dimension=2)
        (coarse_row,) = coarse.rows
        assert fine.rows[0][1] <= coarse_row[1]
