"""The ratgeom composition that ``invariants.score`` must equal.

``ratgeom_report`` computes a class's report from ``seshadri_constant``
and generic vertex enumeration, pulling triangulation and Fraction
barycenter on a fresh section polytope, never from the sweep's integer
evaluator.  ``vanishing_orders`` pairs the section polytope's barycenter
with the rays: S(D_rho) = <barycenter, u_rho> + a_rho.
"""

from fractions import Fraction
from math import factorial

from torifan import invariants, ratgeom
from torifan.ratgeom import Polytope


def ratgeom_report(divisor):
    variety = divisor.variety
    n = variety.dim
    poly = Polytope(n, zip(variety.rays, divisor.coeffs))
    eps = invariants.seshadri_constant(divisor)
    delta, witness = invariants.delta_from_barycenter(
        divisor, ratgeom.barycenter(poly)
    )
    vol = factorial(n) * ratgeom.volume(poly)
    beta = min(eps, delta)
    value = beta**n * vol
    bound = Fraction(n + 1) ** n
    return invariants.InvariantReport(
        variety=variety.name,
        dim=n,
        coeffs=divisor.coeffs,
        vol=vol,
        eps=eps,
        delta=delta,
        delta_witness_ray=witness,
        beta=beta,
        score=value,
        bound=bound,
        is_extremal=value == bound,
    )


def vanishing_orders(divisor):
    """S(D_rho) per ray, for a big class."""
    center = ratgeom.barycenter(divisor.section_polytope())
    return [
        sum(c * u for c, u in zip(center, ray)) + a
        for ray, a in zip(divisor.variety.rays, divisor.coeffs)
    ]
