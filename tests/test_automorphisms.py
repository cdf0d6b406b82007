"""Fan automorphisms: ``toric.ray_maps`` against a brute-force oracle, and
the class maps and skip rule of ``_sweep_pure`` reduction 6, built once
per variety.

The oracle tries every permutation of the rays.  It keeps those that carry
the maximal cones onto maximal cones and are induced by the integer map
that sends cone 0's rays where the permutation says, solved through cone
0's inverse.
"""

import random
from itertools import permutations

import pytest
from test_catalog import bundled_fan
from test_cone_table import all_fans
from test_toric import _relabelled

from torifan import _sweep_pure, catalog, invariants, toric

ORDERS = {"P1xP1": 8, "F1": 2, "Bl2P2": 2, "Bl3P2": 12, "P1xP1xP1": 48}


def oracle_automorphisms(v):
    """Every ray permutation induced by a lattice automorphism of the fan."""
    n, rays = v.dim, v.rays
    cone0 = v.max_cones[0]
    inv = v.cone_inverses[0]
    cones = {frozenset(c) for c in v.max_cones}
    out = set()
    for perm in permutations(range(v.n_rays)):
        if {frozenset(perm[i] for i in c) for c in v.max_cones} != cones:
            continue
        # A with A u_k = u_perm[k] on cone 0: A = T R^-1, R's rows the
        # rays of cone 0 and T's rows their images, acting on row vectors
        target = [rays[perm[k]] for k in cone0]
        a = [
            [sum(inv[i][k] * target[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        image = [
            tuple(sum(u[i] * a[i][j] for i in range(n)) for j in range(n))
            for u in rays
        ]
        if all(image[i] == rays[perm[i]] for i in range(v.n_rays)):
            out.add(perm)
    return out


def automorphisms(v):
    found = list(
        toric.ray_maps(v.rays, v.max_cones, v.cone_inverses[0], v.rays, v.max_cones)
    )
    assert len(found) == len(set(found))
    return set(found)


def ray_classes(v):
    """Per ray k, the class vector L e_k (column k of the class rows)."""
    return list(zip(*v.class_rows))


def fans(rng):
    base = catalog.bundled_catalog()
    named = [v for v in base if v.name in ORDERS or v.name in ("P2", "P3", "P4")]
    return named + [_relabelled(v, rng) for v in named for _ in range(2)]


def expected_order(v):
    if v.name in ORDERS:
        return ORDERS[v.name]
    n = v.dim
    assert v.n_rays == n + 1  # P^n
    order = 1
    for k in range(2, n + 2):
        order *= k
    return order


def test_group_orders_match_the_oracle_in_any_coordinates():
    for v in fans(random.Random(20261601)):
        found = automorphisms(v)
        assert found == oracle_automorphisms(v), v.name
        assert len(found) == expected_order(v), v.name


def test_projective_line_has_two_automorphisms():
    p1 = catalog.projective_space(1)
    assert automorphisms(p1) == oracle_automorphisms(p1) == {(0, 1), (1, 0)}


def test_class_maps_are_the_oracle_group_on_classes():
    rng = random.Random(20261602)
    checked = 0
    for v in all_fans(rng):
        if v.n_rays > 6:
            continue
        cols = ray_classes(v)
        free = [k for k in range(v.n_rays) if k not in v.max_cones[0]]
        identity = tuple(zip(*(cols[k] for k in free)))
        expected = {
            tuple(zip(*(cols[image[k]] for k in free)))
            for image in oracle_automorphisms(v)
        } - {identity}
        assert set(v.class_maps) == expected, v.name
        checked += bool(expected)
    assert checked >= 6


def test_the_skip_rule_skips_only_groups_trivial_on_classes():
    rng = random.Random(20261603)
    skipped = 0
    for v in all_fans(rng):
        if v.n_rays > 6:
            continue
        cols = ray_classes(v)
        if toric._needs_search(v, cols):
            continue
        skipped += 1
        for image in oracle_automorphisms(v):
            assert all(cols[image[k]] == cols[k] for k in range(v.n_rays)), v.name
    assert skipped >= 10


def test_the_sweep_enumerates_no_ordering_where_the_rule_skips(monkeypatch):
    def boom(*args):
        raise AssertionError("ray_maps must not run")

    monkeypatch.setattr(toric, "ray_maps", boom)
    checked = []
    for n in range(1, 7):
        p = catalog.projective_space(n)
        checked.append(p)
        if n >= 2:
            checked.append(toric.blowup_at_fixed_point(p, 0).result)
    checked.append(catalog.hirzebruch_one())
    for v in checked:
        assert v.class_maps == ()
        _sweep_pure.run_sweep(v, 2, 0)


def test_the_tables_are_built_once_per_fan(monkeypatch):
    searches = []
    search = toric.ray_maps

    def counted(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(toric, "ray_maps", counted)
    p1xp1 = catalog.p1_power(2)
    first = _sweep_pure.run_sweep(p1xp1, 3, 0)
    assert _sweep_pure.run_sweep(p1xp1, 3, 0) == first
    assert len(searches) == 1  # its group acts on classes: one search
    # invariants.score needs no class maps, so it never searches
    searches.clear()
    bl3p2 = bundled_fan("Bl3P2")
    assert invariants.score(bl3p2.anticanonical()).score > 0
    assert searches == []


@pytest.mark.parametrize("name", ["Bl2P2", "P1xP1xP1"])
def test_fans_isomorphic_agrees_with_the_group(name):
    # x is isomorphic to each relabelling y, and the isomorphisms x -> y
    # are as many as the automorphisms of x
    rng = random.Random(20261604)
    x = next(v for v in catalog.bundled_catalog() if v.name == name)
    for _ in range(3):
        y = _relabelled(x, rng)
        assert toric.fans_isomorphic(x, y)
        maps = list(
            toric.ray_maps(x.rays, x.max_cones, x.cone_inverses[0], y.rays, y.max_cones)
        )
        assert len(maps) == ORDERS[name]
