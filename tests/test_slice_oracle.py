"""okounkov.slice_profile against the per-node construction it reduces.

``tests/slice_oracle.py`` builds and enumerates a fresh slice polytope at
every interpolation node; ``slice_profile`` reads one triangulation per
piece off the body's edges.  Breakpoints and pieces must agree exactly.
"""

import random
from fractions import Fraction as F
from itertools import pairwise

from slice_oracle import nodewise_slice_profile, slice_polytope
from test_invariants import seeded_class
from test_okounkov import model_cone, unit_square_body
from test_ratgeom import random_polytope

from torifan import catalog, okounkov, ratgeom, ratpoly
from torifan.ratgeom import Polytope
from torifan.toric import TDivisor, blowup_at_fixed_point, pullback


def assert_matches_oracle(body):
    assert okounkov.slice_profile(body) == nodewise_slice_profile(body)


def test_slice_profile_matches_the_oracle_on_catalog_bodies():
    rng = random.Random(20240701)
    checked = 0
    for v in catalog.bundled_catalog():
        if not 2 <= v.dim <= 4:
            continue
        classes = [v.anticanonical()]
        classes += [seeded_class(rng, v, 1, TDivisor.is_ample) for _ in range(2)]
        if v.name in ("F1", "Bl2P2", "Bl3P2"):  # big non-nef classes exist
            classes += [
                seeded_class(rng, v, -2, lambda d: d.is_big() and not d.is_nef())
                for _ in range(3)
            ]
        for d in classes:
            for c, cone in enumerate(v.max_cones):
                # every flag cone, its rays in a seeded order
                flag = okounkov.FlagSpec(v, c, rng.sample(cone, len(cone)))
                body = okounkov.okounkov_body(d, flag)
                fresh = Polytope(v.dim, body.polytope.rows)
                assert body.vertices() == ratgeom.enumerate_vertices(fresh)
                assert_matches_oracle(body)
                checked += 1
    assert checked == 162


def test_slice_profile_matches_the_oracle_on_synthetic_bodies():
    assert_matches_oracle(unit_square_body())
    for n in (2, 3, 4):
        assert_matches_oracle(model_cone(n))
    rng = random.Random(20240702)
    for n in (2, 3, 4):
        for _ in range(8):
            p = random_polytope(rng, n)
            verts = ratgeom.enumerate_vertices(p)
            # move the box into the orthant, where bodies live
            low = [-min(v[i] for v in verts) for i in range(n)]
            body = okounkov.OkounkovBody(None, None, ratgeom.translate(p, low))
            assert_matches_oracle(body)


def test_slice_profile_matches_the_oracle_on_blowup_bodies():
    """The bodies ``blowup`` reads: the pullback of a class to Bl_sigma X,
    flagged from the exceptional divisor E at a cone holding it.  Each
    piece must also be the Lagrange interpolant of the slice areas at its n
    evenly spaced nodes, the construction the integer pieces replace."""
    rng = random.Random(20261204)
    checked = 0
    for v in catalog.bundled_catalog():
        if not 2 <= v.dim <= 4:
            continue
        n = v.dim
        classes = [v.anticanonical()]
        classes += [seeded_class(rng, v, 1, TDivisor.is_ample) for _ in range(2)]
        for d in classes:
            for cone in range(len(v.max_cones)):
                bl = blowup_at_fixed_point(v, cone)
                x, e = bl.result, bl.e_index
                c = next(i for i, rays in enumerate(x.max_cones) if e in rays)
                rest = tuple(i for i in x.max_cones[c] if i != e)
                flag = okounkov.FlagSpec(x, c, (e,) + rest)
                body = okounkov.okounkov_body(pullback(d, bl), flag)
                profile = okounkov.slice_profile(body)
                assert profile == nodewise_slice_profile(body)
                spans = pairwise(profile.breakpoints)
                for (lo, hi), piece in zip(spans, profile.pieces):
                    nodes = [lo + (hi - lo) * F(j, n - 1) for j in range(n)]
                    areas = [
                        (r, ratgeom.volume(slice_polytope(body.polytope, 0, r)))
                        for r in nodes
                    ]
                    assert piece == ratpoly.interpolate(areas)
                checked += 1
    assert checked == 117
