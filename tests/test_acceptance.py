"""Acceptance gate: the eight end-to-end checks the package must satisfy.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` and in the
verbose test listing) and enforces its runtime budget.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from okounkov_lemmas import cone_structure_check, nef_by_origin, segment_membership_check
from score_oracle import ratgeom_report, vanishing_orders
from test_okounkov import equality_case_blowup_body, model_cone
from test_okounkov import off_axis_body, unit_square_body

from torifan import catalog, harness, invariants, okounkov, ratgeom, ratpoly, sweep


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
        assert vanishing_orders(mk)[1] == F(7, 6)
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
            r = ratgeom_report(v.anticanonical())
            assert r.delta**v.dim * r.vol <= (v.dim + 1) ** v.dim


def test_04_fujita_profiles():
    with criterion(
        4, "Fujita profiles: exact 1 - x^2 on P2 and certified margins", 10.0
    ):
        p2 = catalog.projective_space(2)
        h = p2.divisor([0, 0, 1])
        for cone_index in range(len(p2.max_cones)):
            profile, _ = invariants.fujita_profile(p2, cone_index, h)
            assert profile.breakpoints == (0, 1)
            assert len(profile.pieces) == 1
            assert ratpoly.trim(profile.pieces[0]) == (F(1), F(0), F(-1))
        for v in catalog.surface_catalog():
            mk = v.anticanonical()
            for cone_index in range(len(v.max_cones)):
                profile, _ = invariants.fujita_profile(v, cone_index, mk)
                assert profile.inequality_certificate()
                end = profile.domain_end
                points = set(profile.breakpoints)
                points.update(end * F(j, 100) for j in range(101))
                assert all(
                    profile.piece_value(x) >= profile.total - x**v.dim
                    for x in sorted(points)
                )


def test_05_vanishing_order_integrals_and_the_p2_chain():
    with criterion(
        5, "S equals its defining integral; the P2 chain is tight"
    ):
        for v in catalog.surface_catalog():
            mk = v.anticanonical()
            for i in range(v.n_rays):
                profile = invariants.vanishing_order_profile(mk, i)
                assert profile.integral() / profile.total == vanishing_orders(mk)[i]
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
            assert profile.integral() / profile.total == vanishing_orders(d)[i]
            checked += 1
        p2 = catalog.projective_space(2)
        mk = p2.anticanonical()
        beta = invariants.score(mk).beta
        for cone_index in range(len(p2.max_cones)):
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
            cones = range(len(v.max_cones) if v.dim <= 3 else 1)
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
                assert nef_by_origin(d) == d.is_nef()
                checked += 1


def test_07_cone_structure_mechanics():
    with criterion(
        7, "model-cone slices, concavity, cone and segment checks"
    ):
        from math import factorial

        # model cone: slice area r^{n-1}/(n-1)! exactly
        for n in (2, 3):
            profile = okounkov.slice_profile(model_cone(n))
            monomial = tuple(
                F(1, factorial(n - 1)) if k == n - 1 else F(0)
                for k in range(n)
            )
            assert profile.breakpoints == (0, 1)
            assert all(ratpoly.trim(p) == monomial for p in profile.pieces)
            assert okounkov.bm_concavity_check(profile)
        # concavity across the whole catalog
        for v in catalog.bundled_catalog():
            body = okounkov.okounkov_body(
                v.anticanonical(), okounkov.default_flag(v, 0)
            )
            assert okounkov.bm_concavity_check(okounkov.slice_profile(body))
        # equality-case blow-up body of (P2, O(1)): a cone on [0, 1]
        p2 = catalog.projective_space(2)
        body = equality_case_blowup_body(p2, 0, p2.divisor([0, 0, 1]))
        assert cone_structure_check(body, 1)
        assert segment_membership_check(body, 1)
        # negative controls: the unit square is no cone, and a body pushed
        # off the first axis misses the segment
        assert not cone_structure_check(unit_square_body(), 1)
        assert not segment_membership_check(off_axis_body(), 1)


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
            r for r in fine.sweep.results if r.variety_name == "P1xP1"
        )
        assert quadric.max_score == 8  # max score witnessing the epsilon bound
        coarse = harness.gap_report(entries, 8, dimension=2)
        (coarse_row,) = coarse.rows
        assert fine.rows[0][1] <= coarse_row[1]
