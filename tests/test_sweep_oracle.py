"""The interval/class-memo engine against the point-by-point oracle.

``_sweep_pure.run_sweep`` skips non-ample prefixes, counts candidates in
closed form and scores one divisor class per orbit of the fan's
automorphism group; ``sweep_oracle`` visits every grid vector.  Both must
return equal RawSweep records: counts, extremal samples, max score,
argmax, collected samples and the complete flag, for a cap of 0, a cap
that truncates, and a cap above the ample count.
"""

import copy
import random
from functools import partial

import pytest
from sweep_oracle import pointwise_sweep, rows_per_wall
from test_catalog import bundled_fan
from test_curve_classes import outcome
from test_sweep import hirzebruch, p2_bundle
from test_toric import _relabelled

from torifan import _sweep_pure, catalog, sweep, toric
from torifan.errors import VerificationError


def assert_agrees(variety, resolution):
    oracle = pointwise_sweep(rows_per_wall(variety), variety, resolution, 10**9)
    assert oracle.collect_complete and len(oracle.collected) == oracle.ample
    for cap in (0, oracle.ample // 2, oracle.ample + 1):
        expected = oracle._replace(
            collected=oracle.collected[:cap],
            collect_complete=oracle.ample <= cap,
        )
        got = _sweep_pure.run_sweep(variety, resolution, cap)
        assert got == expected, (variety.name, resolution, cap)
        assert isinstance(got.best, type(expected.best))
    return oracle


def test_oracle_with_cap_zero_matches_truncation():
    f1 = catalog.hirzebruch_one()
    full = pointwise_sweep(rows_per_wall(f1), f1, 4, 10**9)
    assert pointwise_sweep(rows_per_wall(f1), f1, 4, 0) == full._replace(
        collected=[], collect_complete=False
    )


def test_agrees_on_surfaces_up_to_resolution_8():
    # P1 has two rays, so the walk's one prefix is the empty one; P2 is a
    # surface of the catalog
    for v in (catalog.projective_space(1), *catalog.surface_catalog()):
        for resolution in range(1, 9):
            raw = assert_agrees(v, resolution)
            assert raw.ample > 0


def test_agrees_on_the_rest_of_the_catalog_up_to_resolution_4():
    for v in catalog.bundled_catalog():
        if v.dim == 2:
            continue
        for resolution in range(1, 5):
            assert_agrees(v, resolution)


def test_agrees_on_random_blowup_towers():
    rng = random.Random(20261018)
    seen_empty = seen_ample = False
    for start, depth, resolution in (
        (catalog.projective_space(2), 3, 5),
        (catalog.hirzebruch_one(), 2, 5),
        (bundled_fan("Bl3P2"), 1, 4),
        (catalog.projective_space(3), 2, 3),
        (catalog.p1_power(3), 1, 2),
    ):
        x = start
        for _ in range(depth):
            x = toric.blowup_at_fixed_point(
                x, rng.randrange(len(x.max_cones))
            ).result
            # at resolution 1 the only sample is -K, ample only on Fanos
            for res in (1, resolution):
                raw = assert_agrees(x, res)
                seen_empty |= raw.ample == 0
                seen_ample |= raw.ample > 0
    assert seen_ample and seen_empty


def test_agrees_on_hirzebruch_surfaces_with_unreachable_walls():
    # F_a's wall c_0 - a c_1 + c_2 > 0 needs 2 res > a, so small grids
    # leave nothing ample; relabellings move its last nonzero level and
    # give it a zero coefficient at level 0, where the walk has no separate
    # test that every wall can turn positive (reduction 3).  For a >= 3 the
    # negative curve has K.C < 0, so eps < 0 and the score check fails on
    # some ample sample: then both walks must stop on the same one.  The
    # 3-folds P(O + O(a)) over P^2, not Fano for a >= 3, run the same way.
    rng = random.Random(20261025)
    seen = set()
    for x in (*map(hirzebruch, range(2, 6)), p2_bundle(3), p2_bundle(4)):
        for y in (x, *(_relabelled(x, rng) for _ in range(3))):
            rows = rows_per_wall(y)
            if any(row[0] == 0 for row in rows):
                seen.add("zero at level 0")
            for resolution in range(1, 6):
                failed = outcome(pointwise_sweep, rows, y, resolution, 0)
                if not isinstance(failed, _sweep_pure.RawSweep):
                    assert outcome(_sweep_pure.run_sweep, y, resolution, 0) == failed
                    seen.add("failed")
                else:
                    raw = assert_agrees(y, resolution)
                    seen.add("ample" if raw.ample else "empty")
    assert seen == {"zero at level 0", "failed", "ample", "empty"}


def test_checks_raise_on_the_same_sample():
    # Two extra simplices make the volume sum overcount on Bl2P2, so the
    # delta check fails on some classes only.  Reductions 1-5 hold for any
    # simplex list, so both walks must stop on the same first failure.
    # (Reduction 6 needs a triangulation; here the first failing class is
    # also the first class of its orbit that the walk meets.)
    variety = bundled_fan("Bl2P2")
    bad = copy.copy(sweep.build_skeleton(variety))
    bad.simplices = variety.simplices + ((0, 2, 3), (0, 3, 4))
    failures = []
    oracle = partial(pointwise_sweep, rows_per_wall(variety))
    for run in (oracle, _sweep_pure.run_sweep):
        with pytest.raises(VerificationError) as info:
            run(bad, 4, 0)
        failures.append((str(info.value), info.value.sample))
    assert failures[0] == failures[1]
    assert failures[0][1] != (1, 1, 1, 1, 1)  # not the first ample sample


def test_agrees_on_blowups_that_keep_a_symmetry():
    # seeded blow-ups of P1xP1 and P1xP1xP1 whose automorphism group still
    # acts on classes, so the orbit memo (reduction 6), written through the
    # packed class maps, is exercised; one seed reaches 11 class maps
    largest = 0
    for seed in (20261605, 20262601, 20262602, 20262603):
        rng = random.Random(seed)
        kept = 0
        for start, depth, resolution in (
            (catalog.p1_power(2), 2, 5),
            (catalog.p1_power(3), 1, 3),
        ):
            x = start
            for _ in range(depth):
                x = toric.blowup_at_fixed_point(
                    x, rng.randrange(len(x.max_cones))
                ).result
                for y in (x, _relabelled(x, rng)):
                    maps = y.class_maps
                    if maps:
                        kept += 1
                        largest = max(largest, len(maps))
                        assert assert_agrees(y, resolution).ample > 0
        assert kept >= 4, seed
    assert largest == 11


def test_one_evaluation_per_orbit(monkeypatch):
    calls = []
    evaluate = _sweep_pure._evaluate

    def counted(variety, c):
        calls.append(c)
        return evaluate(variety, c)

    monkeypatch.setattr(_sweep_pure, "_evaluate", counted)
    entries = {v.name: v for v in catalog.bundled_catalog()}
    for name, resolution, most in (("Bl3P2", 5, 160), ("P1xP1xP1", 3, 30)):
        calls.clear()
        _sweep_pure.run_sweep(entries[name], resolution, 0)
        assert len(calls) <= most, (name, len(calls))
