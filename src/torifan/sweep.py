"""Ample-cone sweeps: score every grid class against the (n+1)^n bound.

The sweep evaluates beta^n * Vol on integer coefficient vectors in
{1..resolution}^(#rays), deduplicated projectively (gcd 1) since the score
is scale invariant.  Everything shape-dependent is an integer table
cached on the variety, built once per variety object: ``curve_rows`` (one
dense wall row per curve class, torifan._sweep_pure reduction 5),
``cone_inverses``, ``simplices`` (one pulling triangulation of every ample
section polytope, read off the ray/cone incidence), ``class_rows`` and
``class_maps``.  ``build_skeleton`` builds them and returns the variety,
so that perfbench times them as the skeleton step.

One engine reads them: torifan._sweep_pure, exact integer arithmetic in
any dimension.  It scores far fewer points than the grid holds: the score
and both checks are functions of the divisor class up to scale, a fan
automorphism maps P_D unimodularly onto the polytope of the image class,
and the ample samples along each grid line form one interval, so it walks
lines and evaluates one class per orbit of the automorphism group on
classes.  Its cost goes per grid row and per class: a prefix of all
coordinates but the last two walks its rows in place, reading each row's
line off its own wall sums, and the class memo and the orbit images are
keyed by one packed integer per class (torifan._sweep_pure proves these
reductions and tests/sweep_oracle.py keeps the point-by-point walk as the
reference).

The engine's evaluator also scores the collected sample reports, through
invariants.score.  The argmax is therefore re-checked by the independent
ratgeom composition (Seshadri constant, stability threshold from the
barycenter, volume from a triangulation of the section polytope), so that
the evaluator is never compared with itself.  That composition runs on a
fresh ``Polytope(n, zip(rays, coeffs))`` whose vertices come from generic
enumeration: ``TDivisor.section_polytope()`` of a nef class reads them off
the same cone inverses as the evaluator's vertex maps.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple

from torifan import _sweep_pure, invariants, ratgeom
from torifan.errors import EmptyGrid, ValidationError, VerificationError
from torifan.ratgeom import Polytope
from torifan.toric import ToricVariety

# The interval walk costs up to one set test per point of {1..res}^(#rays),
# so larger grids are refused up front (Bl3P2: res 25 passes, 26 does not).
MAX_GRID_POINTS = 2**28


def build_skeleton(variety):
    """Build the variety's cached sweep tables and return the variety."""
    variety.curve_rows, variety.simplices, variety.class_maps
    return variety


def select_engine(variety, resolution):
    """Name of the engine that sweeps ``variety`` at ``resolution``.

    Only the pure engine exists, so the answer is always ``"pure"``; the
    name is recorded as ``SweepResult.engine`` and in every sweep report.
    """
    return "pure"


class SweepResult(NamedTuple):
    variety_name: str
    dim: int
    resolution: int
    engine: str
    candidates: int  # projectively deduplicated grid vectors
    ample_samples: int
    extremal_samples: int  # samples meeting the bound exactly
    max_score: Fraction
    argmax_coeffs: tuple
    gap: Fraction
    bound: int
    sample_reports: tuple  # InvariantReport per collected sample, in grid order
    sample_reports_complete: bool


def sweep_ample_cone(
    variety: ToricVariety,
    resolution: int,
    collect_cap: int = 512,
) -> SweepResult:
    """Exact score sweep; raises EmptyGrid when no sample is ample."""
    if resolution < 1:
        raise ValidationError("resolution must be at least 1")
    if resolution**variety.n_rays > MAX_GRID_POINTS:
        raise ValidationError(f"resolution {resolution}: over 2^28 grid points")
    if collect_cap < 0:
        raise ValidationError("collect_cap must be at least 0")
    chosen = select_engine(build_skeleton(variety), resolution)
    raw = _sweep_pure.run_sweep(variety, resolution, collect_cap)
    if raw.ample == 0:
        raise EmptyGrid(
            f"no ample sample in {{1..{resolution}}}^{variety.n_rays}"
        )
    # ratgeom composition on a fresh polytope, enumerated generically:
    # invariants.score would run the evaluator again, and top.section_polytope()
    # would read its vertices off the cone inverses the evaluator uses
    top = variety.divisor(raw.argmax)
    n = variety.dim
    fresh = Polytope(n, zip(variety.rays, top.coeffs))
    delta, _ = invariants.delta_from_barycenter(top, ratgeom.barycenter(fresh))
    beta = min(invariants.seshadri_constant(top), delta)
    if beta**n * factorial(n) * ratgeom.volume(fresh) != raw.best:
        raise VerificationError(
            "sweep engine disagrees with the direct invariant computation",
            variety=variety.name,
            sample=raw.argmax,
        )
    bound = (n + 1) ** n
    reports = tuple(
        invariants.score(variety.divisor(c)) for c in raw.collected
    )
    return SweepResult(
        variety_name=variety.name,
        dim=n,
        resolution=resolution,
        engine=chosen,
        candidates=raw.candidates,
        ample_samples=raw.ample,
        extremal_samples=raw.extremal,
        max_score=raw.best,
        argmax_coeffs=raw.argmax,
        gap=Fraction(bound) - raw.best,
        bound=bound,
        sample_reports=reports,
        sample_reports_complete=raw.collect_complete,
    )
