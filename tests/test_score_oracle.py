"""``invariants.score`` against the ratgeom composition.

``score`` runs the sweep's integer evaluator on the variety's tables and
unscales.  The ratgeom path of ``score_oracle.ratgeom_report`` --
``seshadri_constant``, then generic vertex enumeration, pulling
triangulation and Fraction barycenter on a fresh section polytope --
computes the same report independently, and both must
agree field for field on seeded ample classes of every catalog fan, with
integer, Fraction, principal-shifted and scaled coefficients.  The polytope is built fresh
because ``TDivisor.section_polytope()`` of a nef class reads its vertices
off the cone inverses that the evaluator's vertex maps also come from.
"""

import random
from fractions import Fraction as F

import pytest
from score_oracle import ratgeom_report

from torifan import catalog, invariants, ratgeom
from torifan.errors import NotAmple


def ample_class(rng, v, coefficient):
    while True:
        d = v.divisor([coefficient() for _ in range(v.n_rays)])
        if d.is_ample():
            return d


def principal_shift(d, m):
    """d + div(chi^m): coefficients c_rho + <m, u_rho>."""
    v = d.variety
    return v.divisor(
        [
            c + sum(a * u for a, u in zip(m, ray))
            for c, ray in zip(d.coeffs, v.rays)
        ]
    )


def seeded_classes(rng, v):
    """-K, two integer and one Fraction ample class, each shifted and scaled."""
    bases = [
        v.anticanonical(),
        ample_class(rng, v, lambda: rng.randint(1, 6)),
        ample_class(rng, v, lambda: rng.randint(1, 6)),
        ample_class(rng, v, lambda: F(rng.randint(1, 12), rng.randint(1, 5))),
    ]
    out = []
    for d in bases:
        m = [rng.randint(-4, 4) for _ in range(v.dim)]
        scale = F(rng.randint(1, 9), rng.randint(1, 9))
        out += [d, principal_shift(d, m), scale * d]
    return out


def test_score_equals_the_ratgeom_composition_on_every_catalog_fan():
    rng = random.Random(20261018)
    kinds = {"fraction": 0, "negative": 0}
    for v in catalog.bundled_catalog():
        for d in seeded_classes(rng, v):
            got = invariants.score(d)
            expected = ratgeom_report(v.divisor(d.coeffs))
            assert got == expected, (v.name, d.coeffs)
            for value in (got.vol, got.eps, got.delta, got.beta, got.score):
                assert type(value) is F
            assert type(got.delta_witness_ray) is int
            assert type(got.is_extremal) is bool
            kinds["fraction"] += any(c.denominator > 1 for c in d.coeffs)
            kinds["negative"] += any(c < 0 for c in d.coeffs)
    assert kinds["fraction"] and kinds["negative"]


def test_score_does_not_reach_the_ratgeom_composition(monkeypatch):
    varieties = catalog.bundled_catalog()

    def refuse(*args, **kwargs):
        raise AssertionError("score reached the ratgeom composition")

    for name in ("enumerate_vertices", "fan_triangulation", "barycenter"):
        monkeypatch.setattr(ratgeom, name, refuse)
    for v in varieties:
        assert invariants.score(v.anticanonical()).vol > 0


def test_score_of_a_nef_class_that_is_not_ample_still_raises():
    for v, coeffs, text in (
        (catalog.projective_space(1), (1, -1), "(1/1, -1/1)"),
        (catalog.hirzebruch_one(), (0, 0, 0, 1), "(0/1, 0/1, 0/1, 1/1)"),
        (catalog.p1_power(3), (1, 0, 0, 0, 0, 0), "(1/1, 0/1, 0/1, 0/1, 0/1, 0/1)"),
    ):
        d = v.divisor(coeffs)
        assert d.is_nef() and not d.is_ample()
        with pytest.raises(NotAmple) as info:
            invariants.score(d)
        assert str(info.value) == f"divisor {text} on {v.name} is not ample"
