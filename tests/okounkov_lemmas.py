"""The paper's lemma checks on Newton-Okounkov bodies, for the tests.

Origin membership decides nefness (acceptance criterion 6), and in the
equality case the truncated body is the cone over a slice and holds the
segment from the origin along e_1 (criterion 7).  Each check is exact:
``ratgeom`` membership and polytope equality on integer halfspace rows.
"""

from fractions import Fraction
from operator import mul

from torifan import ratgeom
from torifan.okounkov import default_flag, okounkov_body
from torifan.ratgeom import Polytope, scale_to_integers
from torifan.toric import require_big


def contains(poly: Polytope, point) -> bool:
    """Exact membership test."""
    if len(point) != poly.ambient_dim:
        raise ValueError("point dimension mismatch")
    scale, v = scale_to_integers(point)
    return all(sum(map(mul, a, v)) + b * scale >= 0 for a, b in poly.rows)


def contains_origin(body) -> bool:
    return contains(body.polytope, (Fraction(0),) * body.dim)


def nef_by_origin(divisor) -> bool:
    """Nef test through origin membership at every fixed point's body."""
    require_big(divisor)
    variety = divisor.variety
    for cone_index in range(len(variety.max_cones)):
        body = okounkov_body(divisor, default_flag(variety, cone_index))
        if not contains_origin(body):
            return False
    return True


def cone_structure_check(body, a) -> bool:
    """Is the truncation to nu_1 <= a the cone over the nu_1 = a slice.

    The cone {lambda v : lambda in [0,1], v in slice} is cut out by
    homogenizing every body halfspace against the slice level.
    """
    a = Fraction(a)
    if a <= 0:
        raise ValueError("cone check needs a positive level")
    n = body.dim
    truncated = ratgeom.truncate(body.polytope, 0, lo=0, hi=a)
    e1 = (1,) + (0,) * (n - 1)
    cone_rows = [(e1, 0), (tuple(-c for c in e1), a)]
    for normal, offset in body.polytope.rows:
        normal = (a * normal[0] + offset,) + tuple(a * c for c in normal[1:])
        if not any(normal):
            continue  # constraint degenerates to 0 >= 0
        cone_rows.append((normal, 0))
    cone = Polytope(n, cone_rows)
    return ratgeom.polytopes_equal(truncated, cone)


def segment_membership_check(body, a) -> bool:
    """Does the body contain the segment from the origin to a*e_1."""
    a = Fraction(a)
    zero = (Fraction(0),) * (body.dim - 1)
    return all(
        contains(body.polytope, (x,) + zero) for x in (Fraction(0), a / 2, a)
    )
