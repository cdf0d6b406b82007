"""One sweep wall row per curve class (``_sweep_pure`` reduction 5).

``ToricVariety.curve_rows`` keeps the distinct ``wall_rows`` in
first-occurrence order.  The sweep and the evaluator must give the same
answers on it as on a copy of the variety that keeps one row per wall, the
layout the reduction replaced.
"""

import copy
import random
from itertools import product
from math import gcd

import pytest
from test_cone_table import all_fans

from torifan import _sweep_pure, catalog, sweep
from torifan.errors import VerificationError


def per_wall_variety(variety):
    """A copy of the variety with one curve row per wall, repeats kept."""
    full = copy.copy(sweep.build_skeleton(variety))
    full.curve_rows = tuple((row, sum(row)) for row in variety.wall_rows)
    return full


def outcome(f, *args):
    """f's value, or the message and sample of the check it failed."""
    try:
        return f(*args)
    except VerificationError as exc:
        return str(exc), exc.sample


@pytest.fixture(scope="module")
def fans():
    return all_fans(random.Random(20261901))


def test_skeleton_keeps_each_distinct_wall_row_once_in_first_order(fans):
    for v in fans:
        rows = v.wall_rows
        walls = [w for w, _ in v.curve_rows]
        assert set(walls) == set(rows), v.name
        assert len(walls) == len(set(walls)), v.name
        assert walls == sorted(walls, key=rows.index), v.name
        assert [k for _, k in v.curve_rows] == list(map(sum, walls))
        # the variety itself keeps one row per wall
        assert len(rows) == len(v.walls)


def test_curve_class_counts_on_the_catalog():
    for n in range(1, 7):
        p = catalog.projective_space(n)
        assert len(p.wall_rows) == n * (n + 1) // 2
        assert len(p.curve_rows) == 1
    counts = {v.name: len(v.curve_rows) for v in catalog.bundled_catalog()}
    assert counts["P1xP1xP1"] == 3
    assert counts["P1xP1"] == 2
    assert counts["F1"] == 3
    assert counts["Bl2P2"] == 5
    assert counts["Bl3P2"] == 6


def test_sweep_is_the_same_with_one_row_per_wall(fans):
    for v in fans:
        full = per_wall_variety(v)
        for res in (1, 2, 3, 4):
            for cap in (0, 10**9):
                assert outcome(_sweep_pure.run_sweep, v, res, cap) == outcome(
                    _sweep_pure.run_sweep, full, res, cap
                ), (v.name, res, cap)


def test_evaluator_is_the_same_with_one_row_per_wall(fans):
    evaluated = 0
    for v in fans:
        full = per_wall_variety(v)
        for c in product(range(1, 4), repeat=v.n_rays):
            if gcd(*c) != 1 or not v.divisor(c).is_ample():
                continue
            assert outcome(_sweep_pure._evaluate, v, c) == outcome(
                _sweep_pure._evaluate, full, c
            ), (v.name, c)
            evaluated += 1
    assert evaluated > 10000
