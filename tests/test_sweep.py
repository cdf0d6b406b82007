import gc
import random
import time
from fractions import Fraction as F

import pytest
from vertex_oracle import det

from torifan import _sweep_pure, catalog, ratgeom, sweep, toric
from torifan.errors import EmptyGrid, ValidationError, VerificationError


def hirzebruch(a):
    """F_a; for a >= 2 smooth but not Fano: -K is nef on F_2, not even nef
    beyond.  Its one wall row that can fail, c_0 - a c_1 + c_2, is positive
    on no vector of {1..res}^4 with 2 res <= a."""
    rays = [(1, 0), (0, 1), (-1, a), (0, -1)]
    cones = [(0, 1), (1, 2), (2, 3), (3, 0)]
    return toric.validate_fan(2, rays, cones, f"F{a}")


def p2_bundle(a):
    """P(O + O(a)) over P^2; for a >= 3 smooth but not Fano: -K.C = 3 - a
    on a line of the negative section."""
    rays = [(1, 0, 0), (0, 1, 0), (-1, -1, a), (0, 0, 1), (0, 0, -1)]
    cones = [
        (i, j, top) for top in (3, 4) for i, j in ((0, 1), (1, 2), (2, 0))
    ]
    return toric.validate_fan(3, rays, cones, f"P(O+O({a}))")


def test_resolution_one_on_p2():
    res = sweep.sweep_ample_cone(catalog.projective_space(2), 1)
    assert res.candidates == 1
    assert res.ample_samples == 1
    assert res.extremal_samples == 1
    assert res.max_score == 9
    assert res.argmax_coeffs == (1, 1, 1)
    assert res.gap == 0
    assert res.bound == 9
    assert res.sample_reports_complete
    (report,) = res.sample_reports
    assert report.score == 9 and report.is_extremal


def test_grid_is_projectively_deduplicated():
    # {1,2}^3 has 8 vectors; (2,2,2) collapses onto (1,1,1)
    res = sweep.sweep_ample_cone(catalog.projective_space(2), 2)
    assert res.candidates == 7
    assert res.ample_samples == 7
    # scale invariance: every P2 sample is extremal
    assert res.extremal_samples == 7
    assert res.max_score == 9
    assert res.argmax_coeffs == (1, 1, 1)  # first attaining vector wins


def test_frozen_values_on_surfaces_at_resolution_8():
    expected = {
        "P2": (439, F(9), (1, 1, 1)),
        "P1xP1": (3823, F(8), (1, 1, 1, 1)),
        "F1": (3193, F(30375, 4732), (1, 1, 4, 6)),
        "Bl2P2": (17624, F(23142177, 4280761), (1, 4, 8, 1, 5)),
        "Bl3P2": (88632, F(6), (1, 1, 1, 1, 1, 1)),
    }
    for v in catalog.surface_catalog():
        ample, best, argmax = expected[v.name]
        res = sweep.sweep_ample_cone(v, 8, collect_cap=0)
        assert res.ample_samples == ample
        assert res.max_score == best
        assert res.argmax_coeffs == argmax
        assert res.gap == res.bound - res.max_score
        assert res.max_score <= res.bound
        if v.name == "P2":
            assert res.extremal_samples == ample
        else:
            assert res.extremal_samples == 0
            assert res.gap > 0


def test_anticanonical_scores_appear_in_the_sweep():
    # at resolution 1 the only sample is -K itself
    from torifan import invariants

    for v in catalog.surface_catalog():
        res = sweep.sweep_ample_cone(v, 1)
        rep = invariants.score(v.anticanonical())
        assert res.max_score == rep.score
        assert res.candidates == 1


def test_threefold_sweeps():
    res = sweep.sweep_ample_cone(catalog.projective_space(3), 2)
    assert res.max_score == 64
    assert res.argmax_coeffs == (1, 1, 1, 1)
    assert res.extremal_samples >= 1
    cube = sweep.sweep_ample_cone(catalog.p1_power(3), 2)
    assert cube.max_score == 48
    assert cube.argmax_coeffs == (1, 1, 1, 1, 1, 1)
    assert cube.gap == 64 - 48


def test_empty_grid_on_non_fano_surface():
    with pytest.raises(EmptyGrid):
        sweep.sweep_ample_cone(hirzebruch(2), 1)


def test_long_chain_of_rays_fails_fast_at_resolution_one():
    # 404 rays, so {1}^404 is one grid point, not capped; the (1, k) chain
    # has self-intersection -2 curves, so -K, that one point, is not ample.
    # The bounds' setup grows as rays times walls.
    rays = [(1, k) for k in range(401)] + [(0, 1), (-1, 0), (0, -1)]
    cones = [(403, 0)] + [(k, k + 1) for k in range(403)]
    w = toric.validate_fan(2, rays, cones, "W")
    start = time.monotonic()
    with pytest.raises(EmptyGrid):
        sweep.sweep_ample_cone(w, 1)
    assert time.monotonic() - start < 3.0


def test_resolution_must_be_positive():
    with pytest.raises(ValidationError):
        sweep.sweep_ample_cone(catalog.projective_space(2), 0)


def test_negative_collect_cap_is_refused():
    with pytest.raises(ValidationError, match="collect_cap"):
        sweep.sweep_ample_cone(catalog.projective_space(2), 1, collect_cap=-1)


def test_resolution_past_the_grid_limit_is_refused():
    with pytest.raises(ValidationError):
        sweep.sweep_ample_cone(catalog.projective_space(1), 2**14 + 1)
    with pytest.raises(ValidationError):
        sweep.sweep_ample_cone(catalog.del_pezzo_6(), 26)  # 26^6 > 2^28


def test_collect_cap_truncates_reports():
    res = sweep.sweep_ample_cone(catalog.projective_space(2), 8, collect_cap=10)
    assert len(res.sample_reports) == 10
    assert not res.sample_reports_complete
    full = sweep.sweep_ample_cone(catalog.projective_space(2), 8)
    assert len(full.sample_reports) == 439
    assert full.sample_reports_complete


def skeleton_volume(skel, coeffs):
    """Sum of |det| over the skeleton's simplices at the reflected vertices
    -m_sigma of D, which the cone inverses give."""
    verts = [
        [sum(a * coeffs[i] for a, i in zip(row, idx)) for row in inv]
        for idx, inv in zip(skel["cone_indices"], skel["cone_inverses"])
    ]
    total = 0
    for simplex in skel["simplices"]:
        base = verts[simplex[0]]
        rows = [[a - b for a, b in zip(verts[s], base)] for s in simplex[1:]]
        total += abs(det(rows))
    return total


def test_skeleton_triangulation_matches_polytope_volume():
    rng = random.Random(20260814)
    for v in catalog.surface_catalog() + [catalog.p1_power(3)]:
        skel = sweep.build_skeleton(v)
        assert skel["dim"] == v.dim
        assert skel["cone_inverses"] is v.cone_inverses  # one cone table
        checked = 0
        while checked < 8:
            coeffs = tuple(rng.randint(1, 9) for _ in range(v.n_rays))
            d = v.divisor(coeffs)
            if not d.is_ample():
                continue
            assert skeleton_volume(skel, coeffs) == d.vol()
            checked += 1


def test_skeleton_build_leaves_no_cyclic_garbage():
    v = catalog.del_pezzo_6()
    gc.collect()
    gc.disable()
    try:
        sweep.build_skeleton(v)
        assert ratgeom.volume(v.divisor([1] * 6).section_polytope()) == 3
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_engine_selection():
    p2 = catalog.projective_space(2)
    assert sweep.select_engine(sweep.build_skeleton(p2), 8) == "pure"
    p1 = catalog.projective_space(1)
    assert sweep.select_engine(sweep.build_skeleton(p1), 4) == "pure"
    assert sweep.sweep_ample_cone(p2, 2).engine == "pure"


def test_argmax_recheck_is_independent_of_the_evaluator(monkeypatch):
    """A wrong evaluator must not pass the re-check by checking itself."""
    real = _sweep_pure._evaluate

    def off_by_one(skel, c):
        out = real(skel, c)
        return out[:5] + (out[5] + 1,)  # the score

    monkeypatch.setattr(_sweep_pure, "_evaluate", off_by_one)
    with pytest.raises(VerificationError, match="sweep engine disagrees"):
        sweep.sweep_ample_cone(catalog.hirzebruch_one(), 2, collect_cap=0)


def test_argmax_recheck_never_reads_the_cone_table(monkeypatch):
    """The re-check enumerates a fresh polytope; the cone table feeds the
    evaluator, so reading nef section vertices off it would check the
    evaluator with itself."""

    def refuse(self, coeffs):
        raise AssertionError("the re-check read cone-table vertices")

    real = ratgeom._enumerate
    runs = []

    def counting(poly):
        runs.append(poly)
        return real(poly)

    monkeypatch.setattr(toric.ToricVariety, "nef_vertex_points", refuse)
    monkeypatch.setattr(ratgeom, "_enumerate", counting)
    for v in (
        catalog.projective_space(2),
        catalog.hirzebruch_one(),
        catalog.del_pezzo_6(),
    ):
        runs.clear()
        res = sweep.sweep_ample_cone(v, 3)
        assert res.max_score > 0
        assert runs, v.name


def test_refinement_is_monotone_on_bl3p2():
    v = catalog.del_pezzo_6()
    coarse = sweep.sweep_ample_cone(v, 8, collect_cap=0)
    fine = sweep.sweep_ample_cone(v, 16, collect_cap=0)
    assert fine.max_score >= coarse.max_score
    assert fine.max_score == 6  # -K stays the best sample
    assert fine.argmax_coeffs == (1, 1, 1, 1, 1, 1)


def test_reports_are_consistent_with_direct_scoring():
    from torifan import invariants

    res = sweep.sweep_ample_cone(catalog.hirzebruch_one(), 3)
    assert res.sample_reports_complete
    for rep in res.sample_reports:
        direct = invariants.score(
            catalog.hirzebruch_one().divisor(rep.coeffs)
        )
        assert direct.score == rep.score
    best = max(rep.score for rep in res.sample_reports)
    assert best == res.max_score
