"""Newton-Okounkov bodies for torus-invariant flags.

For a flag of invariant subvarieties picked inside one maximal cone, the
valuation vector of a section is an affine unimodular image of its lattice
point: pair with the ordered rays of the cone and shift by the divisor
coefficients.  The body is that ``ratgeom.affine_image`` of the section
polytope, so it lives in the nonnegative orthant and has the same volume.
An affine bijection maps vertices to vertices, so the body's vertices are
the images of the section polytope's, mapped on their integer form
(``ratgeom.vertex_points``).  For a nef class those are the cone points
read off the cone table (``ToricVariety.nef_vertex_points``); for any
other big class, the section polytope's own enumeration.

Slice profiles (Lawrence, *Polytope volume computation*, 1991, on the
chambers of a parametric polytope).  Let Delta be a full-dimensional
polytope in Q^n and Q_r = Delta ∩ {nu_1 = r}.  Write ``lo < hi`` for two
consecutive values of nu_1 on the vertices of Delta.

- Edges.  Every face of Delta is the set of its points tight on some of
  its halfspaces, and the least face holding two vertices v, w is the set
  tight on every halfspace tight at both.  So v and w span an edge iff no
  third vertex is tight on all of those halfspaces.
- Slice vertices.  For lo < r < hi no vertex lies on {nu_1 = r}, so every
  vertex of Q_r is the crossing of that hyperplane with an edge of Delta,
  and the edges that cross it are those with one end at level <= lo and
  the other at >= hi.  The same edges cross for every r in (lo, hi), each
  in a relative interior point, and distinct edges cross at distinct
  points.
- Slice facets.  The facets of Q_r are the sets G ∩ {nu_1 = r} for the
  facets G of Delta.  A face holding a relative interior point of an edge
  holds the whole edge, so the crossing of edge e lies in G iff e lies in
  G: the vertex-facet incidence of Q_r is the same for every r in
  (lo, hi).  A halfspace that is no facet of Delta gives a lower face of
  Q_r, which the triangulation below ignores.
- Volume.  ``ratgeom.pulling_triangulation`` reads only that incidence, so
  one triangulation of labels (crossing edges) triangulates Q_r for every
  r in (lo, hi).  A crossing moves linearly in r, so the determinant
  spanned by a simplex's n crossings in nu_2..nu_n is a polynomial in r of
  degree at most n - 1.  It is nonzero on (lo, hi), since the simplex is
  nondegenerate there, so by the intermediate value theorem its sign is
  the sign at the midpoint, and on the closed piece [lo, hi] it takes that
  sign or vanishes.  So sum |det| / (n-1)! equals a polynomial of degree
  <= n - 1 on all of [lo, hi]; by continuity of slice volumes it is the
  slice area there, endpoints included.
- Integer pieces.  With L the common denominator of the crossings, the
  crossing of edge e at level r is (A_e + r B_e) / L for integer vectors
  A_e, B_e, so a simplex's determinant is det_s(r) / L^(n-1) for an
  integer polynomial det_s of degree <= n - 1.  Taking each simplex's
  sign at the midpoint, the area is P(r) / ((n-1)! L^(n-1)) with
  P = sum of sign * det_s, an integer polynomial known by its integer
  values P(0), ..., P(n-1): the levels need not lie in the piece, since P
  is a polynomial identity.  Its forward differences are integers, and by
  Newton's formula P(r) = sum_k Delta^k P(0) binom(r, k), so (n-1)! P has
  integer coefficients (``ratpoly.factorial_interpolate``).  One division
  by (n-1)!^2 L^(n-1) gives the piece.

A body of affine rank below n has zero slice area everywhere; the
argument above needs full dimension, so that case is answered first.  The
body of a big class is full-dimensional, so only an ``OkounkovBody``
built directly on a flat polytope takes that branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial, lcm
from operator import mul

from torifan import ratgeom, ratpoly
from torifan.errors import ThresholdExceeded, ValidationError, format_rational
from torifan.ratgeom import Polytope
from torifan.toric import TDivisor, ToricVariety, require_big


@dataclass(frozen=True)
class FlagSpec:
    """Complete flag of invariant subvarieties at one fixed point.

    ``ray_order`` lists the cone's ray indices; the divisor of the first ray
    is the top flag element, and the flag point is the fixed point of the
    whole cone.
    """

    variety: ToricVariety
    cone_index: int
    ray_order: tuple

    def __post_init__(self):
        cone = self.variety.max_cone(self.cone_index)
        order = tuple(int(i) for i in self.ray_order)
        if sorted(order) != sorted(cone):
            raise ValidationError(
                f"flag order {order} is not a permutation of cone {cone}"
            )
        object.__setattr__(self, "ray_order", order)


def default_flag(variety: ToricVariety, cone_index: int) -> FlagSpec:
    return FlagSpec(variety, cone_index, variety.max_cone(cone_index))


class OkounkovBody:
    """Valuation image of a section polytope; exact H-representation."""

    def __init__(self, divisor, flag, polytope: Polytope):
        self.divisor = divisor
        self.flag = flag
        self.polytope = polytope
        if any(c < 0 for p in ratgeom.vertex_points(polytope)[1] for c in p):
            raise ValidationError("body must lie in the orthant")

    @property
    def dim(self):
        return self.polytope.ambient_dim

    def vertices(self):
        return ratgeom.enumerate_vertices(self.polytope)

    def volume(self) -> Fraction:
        return ratgeom.volume(self.polytope)


def okounkov_body(divisor: TDivisor, flag: FlagSpec) -> OkounkovBody:
    """Image of the section polytope under the flag's valuation coordinates."""
    if divisor.variety is not flag.variety:
        raise ValidationError("flag and divisor live on different varieties")
    require_big(divisor)  # fills the section polytope's vertex cache
    variety = divisor.variety
    matrix = tuple(variety.rays[i] for i in flag.ray_order)
    shift = [Fraction(divisor.coeffs[i]) for i in flag.ray_order]
    # the matrix is the cone's ray matrix with its rows permuted, so its
    # inverse is the cone's inverse with its columns permuted
    cone = variety.max_cones[flag.cone_index]
    order = [cone.index(i) for i in flag.ray_order]
    inverse = tuple(
        tuple(row[k] for k in order) for row in variety.cone_inverses[flag.cone_index]
    )
    polytope = ratgeom.affine_image(
        divisor.section_polytope(), matrix, inverse, shift
    )
    return OkounkovBody(divisor, flag, polytope)


def pseff_threshold(divisor: TDivisor, flag: FlagSpec) -> Fraction:
    """Largest t with divisor - t*D_top still big: the body's nu_1 reach."""
    require_big(divisor)
    top = flag.ray_order[0]
    ray = divisor.variety.rays[top]
    s, points = ratgeom.vertex_points(divisor.section_polytope())
    reach = max(sum(map(mul, p, ray)) for p in points)
    return divisor.coeffs[top] + Fraction(reach, s)


def translation_identity_check(body: OkounkovBody, t) -> bool:
    """Truncating the body of D at nu_1 >= t equals the body of
    D - t*D_top + t e_1, for the body's divisor D and flag.

    The two sides' vertices come from independent computations: the
    truncated body is enumerated generically, and the shifted class
    D - t*D_top is read off the cone table when it is nef (and enumerated
    when it is not).
    """
    divisor, flag = body.divisor, body.flag
    t = Fraction(t)
    tau = pseff_threshold(divisor, flag)
    if not 0 <= t < tau:
        raise ThresholdExceeded(
            f"need 0 <= t < {format_rational(tau)}, got {format_rational(t)}"
        )
    truncated = ratgeom.truncate(body.polytope, 0, lo=t)
    top = flag.ray_order[0]
    coeffs = list(divisor.coeffs)
    coeffs[top] -= t
    shifted_body = okounkov_body(TDivisor(divisor.variety, coeffs), flag)
    vector = (t,) + (Fraction(0),) * (body.dim - 1)
    translated = ratgeom.translate(shifted_body.polytope, vector)
    return ratgeom.polytopes_equal(truncated, translated)


# ---------------------------------------------------------------------------
# slice profiles and concavity


@dataclass(frozen=True)
class SliceProfile(ratpoly.Piecewise):
    """r -> (n-1)-volume of the nu_1 = r slice, piecewise polynomial.

    Piece i is the polynomial on [breakpoints[i], breakpoints[i+1]].
    """

    dim: int  # ambient dimension n of the body
    breakpoints: tuple
    pieces: tuple

    @property
    def support(self):
        return (self.breakpoints[0], self.breakpoints[-1])


def slice_profile(body: OkounkovBody) -> SliceProfile:
    """Exact slice areas: degree <= n-1 between vertex levels.

    Reads the body's edges off its vertex-facet incidence and triangulates
    each piece's slice once, from the edges crossing it; the module
    docstring proves that this triangulation and the sign of every simplex
    hold on the whole closed piece.  Each piece then costs n + 1 integer
    determinants per simplex (its sign at the midpoint and its values at
    r = 0, ..., n-1) and no vertex enumeration.
    """
    n = body.dim
    scale, points = ratgeom.vertex_points(body.polytope)
    # vertex levels: nu_1 times scale, and as Fractions
    heights = sorted({p[0] for p in points})
    levels = [Fraction(h, scale) for h in heights]
    if not ratgeom.is_full_dimensional(body.polytope):
        # a flat body has no (n-1)-dimensional slice: a zero piece between
        # consecutive levels, and none when it lies in one level
        pieces = (ratpoly.ZERO,) * (len(levels) - 1)
        return SliceProfile(dim=n, breakpoints=tuple(levels), pieces=pieces)
    rows = body.polytope.rows
    masks = [
        sum(
            1 << k
            for k, (a, b) in enumerate(rows)
            if sum(map(mul, a, p)) + b * scale == 0
        )
        for p in points
    ]
    # the edges between two levels, as (low height, high height, mask of the
    # halfspaces holding the edge, A, B).  With v = P / scale, w = W / scale
    # and dz = W_0 - P_0 > 0 (points is sorted, so P is the lower end), the
    # edge crosses level r at a + r*b in nu_2..nu_n, where
    # a = (P_k W_0 - P_0 W_k) / (scale dz) and b = (W_k - P_k) / dz, so
    # A = L a and B = L b are integral for L = scale * lcm(dz).
    ends = []
    for i, j in combinations(range(len(points)), 2):
        v, w = points[i], points[j]
        common = masks[i] & masks[j]
        if v[0] == w[0] or any(
            m & common == common for k, m in enumerate(masks) if k not in (i, j)
        ):
            continue
        ends.append((v, w, common))
    dz_lcm = lcm(*(w[0] - v[0] for v, w, _ in ends))
    multiplier = scale * dz_lcm
    edges = []
    for v, w, common in ends:
        f = dz_lcm // (w[0] - v[0])
        a = [(x * w[0] - v[0] * y) * f for x, y in zip(v[1:], w[1:])]
        b = [(y - x) * scale * f for x, y in zip(v[1:], w[1:])]
        edges.append((v[0], w[0], common, a, b))
    # a piece's slice area is P(r) / ((n-1)! multiplier^(n-1)) for the
    # integer polynomial P of the module docstring; its values at r = 0..n-1
    # give (n-1)! P
    denominator = factorial(n - 1) ** 2 * multiplier ** (n - 1)
    pieces = []
    for t in range(len(levels) - 1):
        crossing = [
            e
            for e, edge in enumerate(edges)
            if edge[0] <= heights[t] and heights[t + 1] <= edge[1]
        ]
        facets = [
            [e for e in crossing if edges[e][2] >> k & 1] for k in range(len(rows))
        ]
        simplices = ratgeom.pulling_triangulation(crossing, facets)
        # the midpoint level p / q, and the crossings there scaled by q
        p, q = heights[t] + heights[t + 1], 2 * scale
        mid = {e: [q * x + p * y for x, y in zip(*edges[e][3:])] for e in crossing}
        signs = [1 if ratgeom.simplex_det(mid, s) > 0 else -1 for s in simplices]
        values = []
        for j in range(n):
            point = {e: [x + j * y for x, y in zip(*edges[e][3:])] for e in crossing}
            values.append(
                sum(
                    sign * ratgeom.simplex_det(point, s)
                    for sign, s in zip(signs, simplices)
                )
            )
        ints = ratpoly.factorial_interpolate(values)
        pieces.append(ratpoly.trim(Fraction(c, denominator) for c in ints))
    return SliceProfile(dim=n, breakpoints=tuple(levels), pieces=tuple(pieces))


def bm_concavity_check(profile: SliceProfile) -> bool:
    """Whether A(r)^(1/(n-1)) is concave on the support.

    Exact sign analysis of h = (2-n) A'^2 + (n-1) A A'' (the sign of the
    transform's second derivative where A > 0): a Sturm-sequence decision
    that h <= 0 on each whole piece, plus continuity, positivity and
    junction-slope checks.  Positivity needs no Sturm decision of its own:
    a continuous A with no zero at a junction or inside a piece has one sign
    on the open support, by the intermediate value theorem, so its value at
    one interior point decides it, and A >= 0 at the ends by continuity.
    An n = 1 body has the constant profile 1, whose -h = (n-2) A'^2 is 0,
    so it passes the same decisions.
    """
    n = profile.dim
    # zero pieces at both ends only shrink the support
    nonzero = [i for i, p in enumerate(profile.pieces) if not ratpoly.is_zero(p)]
    if not nonzero:
        return True
    first, last = nonzero[0], nonzero[-1]
    if len(nonzero) != last - first + 1:
        return False  # interior zero pieces would split the support
    profile = SliceProfile(
        n, profile.breakpoints[first : last + 2], profile.pieces[first : last + 1]
    )
    pieces, points = profile.pieces, profile.breakpoints

    def minus_h(p):
        dp = ratpoly.derivative(p)
        return ratpoly.add(
            ratpoly.scale(ratpoly.multiply(dp, dp), n - 2),
            ratpoly.scale(ratpoly.multiply(p, ratpoly.derivative(dp)), 1 - n),
        )

    def slope(p, x):
        return ratpoly.evaluate(ratpoly.derivative(p), x)

    return (
        profile.is_continuous()
        # a zero at a junction or inside a piece dents the support
        and all(profile.piece_value(x) for x in points[1:-1])
        and not any(
            ratpoly.has_root_inside(p, a, b)
            for a, b, p in zip(points, points[1:], pieces)
        )
        # so A has one sign on the open support; a signed area is no profile
        and profile.piece_value((points[0] + points[1]) / 2) > 0
        and profile.all_nonnegative(minus_h)
        # junction slopes: the density may only flatten going right
        and all(
            slope(p, x) >= slope(q, x)
            for x, p, q in zip(points[1:-1], pieces, pieces[1:])
        )
    )
