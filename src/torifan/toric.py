"""Smooth complete toric varieties from rational fans.

A fan is given by primitive integer ray generators and simplicial maximal
cones.  Completeness is certified combinatorially: every wall (codimension-1
cone) lies in exactly two maximal cones that sit on opposite sides of it, and
the cone-adjacency graph is connected.

One walk over the wall graph certifies smoothness and inverts every cone
(``_walk``).  Cone 0 is inverted by ``ratgeom.echelon`` and back
substitution (``_unimodular_inverse``); every other cone is reached across
a wall that lies in exactly two cones.  Let cone a, already certified
unimodular, have rays u_i with dual basis m_i (the columns of its inverse,
<u_j, m_i> = delta_ij), and let the wall drop its ray u_p (p = opp_a) while
cone b adds u_q (q = opp_b).  One vector-matrix product gives the
coordinates x_i = <u_q, m_i> of u_q = sum_i x_i u_i; write c = x_p.

- Determinant.  Cone b's ray matrix is cone a's with u_p replaced by u_q,
  up to the order of the rows.  The determinant is linear in that row, and
  every u_i with i != p repeats a row, so det(b) = +-c det(a) = +-c.  Hence
  c = 0 means cone b is not simplicial and |c| > 1 that it is not smooth
  (Cramer's rule), with |det| = |c| as elimination would report.
- Inverse.  For |c| = 1 the dual basis of cone b is m'_q = m_p / c and
  m'_i = m_i - (x_i / c) m_p for the wall rays i.  Indeed
  <u_q, m'_q> = x_p / c = 1, <u_q, m'_i> = x_i - (x_i / c) c = 0, and a
  wall ray u_j gives <u_j, m'_q> = 0 and <u_j, m'_i> = delta_ij, since
  <u_j, m_p> = 0.  With c = +-1 both updates stay integral.
- Wall.  The same x gives u_p + u_q + sum_i b_i u_i = 0 with b_i = -x_i
  exactly when c = -1, and c = -1 says that u_q lies on the side of the
  wall opposite to u_p.  Seen from cone b, u_p = (1/c) u_q - sum (x_i/c)
  u_i, so both cones give the same c = +-1 and the same relation, and each
  wall is crossed once, from whichever cone the walk meets first.
- Connectivity.  The walk from cone 0 reaches exactly the cones of its
  component of the graph of two-cone walls.  Cones it cannot reach (a
  disconnected or otherwise defective fan) are inverted by elimination and
  start a walk of their own, so every two-cone wall is still crossed, and
  the fan is connected iff one walk reached every cone.

Errors keep one precedence: ray checks, structural cone checks, the
lowest-index cone that is not unimodular, rays in no cone, then the walls
in sorted order (owner count, then opposite sides), then connectivity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, permutations
from math import factorial, gcd
from operator import mul

from torifan import ratgeom
from torifan.errors import (
    NotAmple,
    NotBig,
    NotComplete,
    NotFano,
    NotNef,
    NotSimplicial,
    NotSmooth,
    ValidationError,
    format_rationals,
)
from torifan.ratgeom import Polytope, scale_to_integers


@dataclass(frozen=True)
class Wall:
    """Codimension-1 cone shared by two maximal cones.

    ``relation`` holds the integers b_i in
    u_opp_a + u_opp_b + sum_i b_i u_i = 0 over the wall rays, so a divisor
    sum a_rho D_rho meets the wall curve in a_opp_a + a_opp_b + sum b_i a_i.
    """

    rays: tuple
    cone_a: int
    cone_b: int
    opp_a: int
    opp_b: int
    relation: tuple


def cone_points(cones, inverses, c):
    """Per cone sigma, m_sigma = -inv_sigma c_sigma as a list: the integer m
    with <m, u_rho> = -c_rho on the rays of sigma, for integer coefficients
    c and ``inverses`` the inverses of the cones' ray matrices."""
    points = []
    for cone, inv in zip(cones, inverses):
        coeffs = [-c[i] for i in cone]
        points.append([sum(map(mul, row, coeffs)) for row in inv])
    return points


class ToricVariety:
    """Validated smooth complete fan with divisor and wall machinery."""

    def __init__(self, dim, rays, max_cones, name=""):
        self.dim = dim
        self.rays = tuple(tuple(int(c) for c in r) for r in rays)
        self.max_cones = tuple(tuple(int(i) for i in c) for c in max_cones)
        self.name = name

    def __repr__(self):
        return (
            f"ToricVariety({self.name or 'unnamed'}, dim={self.dim}, "
            f"rays={len(self.rays)}, cones={len(self.max_cones)})"
        )

    @property
    def n_rays(self):
        return len(self.rays)

    def max_cone(self, index):
        """The maximal cone with this index; a negative index is refused."""
        if not 0 <= index < len(self.max_cones):
            raise ValidationError(f"no maximal cone with index {index}")
        return self.max_cones[index]

    def divisor(self, coeffs) -> "TDivisor":
        return TDivisor(self, coeffs)

    def anticanonical(self) -> "TDivisor":
        return TDivisor(self, [1] * self.n_rays)

    @cached_property
    def walls(self):
        return _build_walls(self)

    @cached_property
    def _cone_walk(self):
        return _walk(self)

    @cached_property
    def cone_inverses(self):
        """Per maximal cone, the integer inverse of its ray matrix."""
        return self._cone_walk[0]

    @cached_property
    def wall_rows(self):
        """Per wall, the integer row w with D.C = sum_rho w_rho a_rho."""
        rows = []
        for w in self.walls:
            row = [0] * self.n_rays
            for i, b in zip((w.opp_a, w.opp_b) + w.rays, (1, 1) + w.relation):
                row[i] = b
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def curve_rows(self):
        """The distinct ``wall_rows`` in first-occurrence order, one per
        curve class, each as ``(row, K.C)`` with K.C = sum(row), the row
        on the all-ones anticanonical class (torifan._sweep_pure,
        reduction 5)."""
        return tuple((row, sum(row)) for row in dict.fromkeys(self.wall_rows))

    @cached_property
    def simplices(self):
        """One pulling triangulation of every ample section polytope P_D,
        as tuples of cone indices.

        For ample D, P_D has the vertex m_sigma of each maximal cone and a
        facet per ray, whose vertices are the cones through that ray.
        ``ratgeom.pulling_triangulation`` reads only this incidence,
        pulling each face from its lowest cone index, so the same tuples
        triangulate P_D for every ample D.
        """
        cones = self.max_cones
        facets = [
            [j for j, cone in enumerate(cones) if rho in cone]
            for rho in range(self.n_rays)
        ]
        return tuple(ratgeom.pulling_triangulation(range(len(cones)), facets))

    @cached_property
    def class_rows(self):
        return _class_rows(self)

    @cached_property
    def class_maps(self):
        return _class_maps(self)

    def scaled_wall_values(self, coeffs):
        """``(lam, [lam * D.C per wall])``, lam as in scale_to_integers."""
        lam, c = scale_to_integers(coeffs)
        return lam, [sum(map(mul, row, c)) for row in self.wall_rows]

    def nef_vertex_points(self, coeffs):
        """``(lam, points)``: the set of cone points m_sigma of a nef class
        times lam (``scale_to_integers``), as ``cone_points`` computes them.
        They are exactly the vertices of its section polytope
        P_D = {m : <m, u_rho> >= -a_rho}.

        Proof.  Each m_sigma lies in P_D: that is the nef condition
        (Cox-Little-Schenck, *Toric Varieties*, 2011, Theorems 6.1.7 and
        6.3.12), decided here on ``wall_rows``; across a wall with opposite
        rays u_a in sigma and u_b in sigma', the relation gives
        ``<m_sigma', u_a> + a_a = D.C``, so each wall value is the slack of
        a neighbouring cone point.  Let Q = conv{m_sigma}, inside P_D.  A
        direction u lies in some maximal cone sigma, u = sum l_i u_i over
        its rays with l_i >= 0, so every m in P_D has
        ``<m, u> = sum l_i <m, u_i> >= -sum l_i a_i = <m_sigma, u>``.  A
        point of P_D outside the compact convex Q would be separated from
        it by some u with <m, u> below every value on Q, which this rules
        out; so P_D = Q (CLS, 6.1).  And each m_sigma is a vertex of P_D:
        it is feasible and tight on the n linearly independent rays of
        sigma, so it is the only point of P_D on those n hyperplanes.  The
        vertices of Q are among the m_sigma, so the distinct m_sigma are
        exactly the vertices of P_D, whether D is big or not.
        """
        lam, c = scale_to_integers(coeffs)
        return lam, set(map(tuple, cone_points(self.max_cones, self.cone_inverses, c)))


class TDivisor:
    """Torus-invariant Q-divisor sum a_rho D_rho on a fixed variety."""

    __slots__ = ("variety", "coeffs", "_polytope")

    def __init__(self, variety, coeffs):
        coeffs = tuple(
            c if isinstance(c, Fraction) else Fraction(c) for c in coeffs
        )
        if len(coeffs) != variety.n_rays:
            raise ValidationError(
                f"divisor needs {variety.n_rays} coefficients, got {len(coeffs)}"
            )
        self.variety = variety
        self.coeffs = coeffs
        self._polytope = None

    def __repr__(self):
        return f"TDivisor({self.variety.name or 'X'}, {self.coeffs})"

    def __eq__(self, other):
        return (
            isinstance(other, TDivisor)
            and self.variety is other.variety
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.variety), self.coeffs))

    def _same_variety(self, other):
        if self.variety is not other.variety:
            raise ValidationError("divisors live on different varieties")

    def __add__(self, other):
        self._same_variety(other)
        return TDivisor(
            self.variety, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other):
        self._same_variety(other)
        return TDivisor(
            self.variety, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __mul__(self, scalar):
        s = Fraction(scalar)
        return TDivisor(self.variety, [s * a for a in self.coeffs])

    __rmul__ = __mul__

    def section_polytope(self) -> Polytope:
        """{m : <m, u_rho> >= -a_rho for all rays}.

        For a nef class the vertices are read off the cone table
        (``ToricVariety.nef_vertex_points``); any other class leaves them to
        generic enumeration.
        """
        if self._polytope is None:
            variety = self.variety
            poly = Polytope(variety.dim, zip(variety.rays, self.coeffs))
            if self.is_nef():
                ratgeom.fill_vertices(poly, *variety.nef_vertex_points(self.coeffs))
            self._polytope = poly
        return self._polytope

    def is_nef(self) -> bool:
        return all(v >= 0 for v in self.variety.scaled_wall_values(self.coeffs)[1])

    def is_ample(self) -> bool:
        return all(v > 0 for v in self.variety.scaled_wall_values(self.coeffs)[1])

    def is_big(self) -> bool:
        """Whether P_D has dimension n: for a nef class, whether its cone
        points have integer affine rank n."""
        return ratgeom.is_full_dimensional(self.section_polytope())

    def vol(self) -> Fraction:
        """Volume of the divisor class: n! times the section polytope volume."""
        return factorial(self.variety.dim) * ratgeom.volume(self.section_polytope())


# ---------------------------------------------------------------------------
# validation


def _check_rays(dim, rays):
    seen = set()
    for i, ray in enumerate(rays):
        if len(ray) != dim:
            raise ValidationError(f"ray {i} has wrong dimension")
        if not any(ray):
            raise ValidationError(f"ray {i} is zero")
        if gcd(*ray) != 1:
            raise ValidationError(f"ray {i} = {ray} is not primitive")
        if ray in seen:
            raise ValidationError(f"ray {i} = {ray} is repeated")
        seen.add(ray)


def _check_cones(variety):
    n, rays = variety.dim, variety.rays
    seen = set()
    used = set()
    for ci, cone in enumerate(variety.max_cones):
        if len(cone) != n:
            raise NotSimplicial(f"cone {ci} does not have {n} rays")
        if len(set(cone)) != n:
            raise ValidationError(f"cone {ci} repeats a ray index")
        if any(not 0 <= i < len(rays) for i in cone):
            raise ValidationError(f"cone {ci} references a missing ray")
        key = frozenset(cone)
        if key in seen:
            raise ValidationError(f"cone {ci} is listed twice")
        seen.add(key)
        used.update(cone)
    variety.cone_inverses  # certifies every cone unimodular
    if used != set(range(len(rays))):
        raise ValidationError("some rays belong to no maximal cone")


def _unimodular_inverse(rows, ci):
    """Integer inverse of cone ``ci``'s ray matrix R, certified unimodular.

    ``ratgeom.echelon`` of [R | I] is [U | L] = M [R | I] with M invertible,
    so U = L R.  If R is nonsingular, its n columns are the n pivots and the
    last one is U_(n-1)(n-1) = +-det R.  If not, the rows from rank R on are
    zero in the R block when the elimination leaves it, and later pivots
    only change columns past it, so U_(n-1)(n-1) = 0.  Hence 0 is
    NotSimplicial and any other value but +-1 NotSmooth; then back
    substitution solves U X = L for X = R^-1, integral, so every division
    by a pivot is exact.
    """
    n = len(rows)
    wide = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    m = ratgeom.echelon(wide)[1]
    det = m[-1][n - 1]
    if not det:
        raise NotSimplicial(f"cone {ci} has linearly dependent rays")
    if abs(det) != 1:
        raise NotSmooth(f"cone {ci} with rays {list(rows)} has |det| = {abs(det)}")
    inverse = [None] * n
    for i in range(n - 1, -1, -1):
        x = m[i][n:]
        for j in range(i + 1, n):
            x = [a - m[i][j] * b for a, b in zip(x, inverse[j])]
        inverse[i] = tuple(a // m[i][i] for a in x)
    return tuple(inverse)


def _walk(variety):
    """``(inverses, incidence, crossings, connected)`` from one walk over
    the graph of two-cone walls (module docstring).

    ``incidence`` maps each sorted (n-1)-subset of a cone to its owners,
    ``crossings`` each two-cone wall to ``(c, relation)``, and
    ``connected`` tells whether the walk from cone 0 reached every cone.
    Raises NotSimplicial or NotSmooth for the lowest-index cone that is
    not unimodular.
    """
    n, rays, cones = variety.dim, variety.rays, variety.max_cones
    incidence = {}
    for ci, cone in enumerate(cones):
        for sub in combinations(sorted(cone), n - 1):
            incidence.setdefault(sub, []).append(ci)
    links = [[] for _ in cones]
    for sub, owners in incidence.items():
        if len(owners) == 2:
            a, b = owners
            links[a].append((sub, b))
            links[b].append((sub, a))
    inverses = [None] * len(cones)
    errors = {}
    crossings = {}
    roots = 0
    for root in range(len(cones)):
        if inverses[root] is not None or root in errors:
            continue
        roots += 1
        try:
            inverses[root] = _unimodular_inverse(
                [rays[i] for i in cones[root]], root
            )
        except (NotSimplicial, NotSmooth) as exc:
            errors[root] = exc
            continue
        stack = [root]
        while stack:
            a = stack.pop()
            dual = dict(zip(cones[a], zip(*inverses[a])))  # ray i -> m_i
            for sub, b in links[a]:
                if sub in crossings or b in errors:
                    continue
                (p,) = set(cones[a]).difference(sub)
                (q,) = set(cones[b]).difference(sub)
                x = {i: sum(map(mul, rays[q], m)) for i, m in dual.items()}
                c = x[p]
                crossings[sub] = c, tuple(-x[i] for i in sub)
                if inverses[b] is not None:
                    continue
                if c == 0:
                    errors[b] = NotSimplicial(f"cone {b} has linearly dependent rays")
                elif abs(c) != 1:
                    errors[b] = NotSmooth(
                        f"cone {b} with rays {[rays[i] for i in cones[b]]} "
                        f"has |det| = {abs(c)}"
                    )
                else:
                    m_p = dual[p]
                    new = {q: tuple(c * y for y in m_p)}
                    for i in sub:
                        f = x[i] * c
                        new[i] = tuple(y - f * z for y, z in zip(dual[i], m_p))
                    inverses[b] = tuple(zip(*(new[i] for i in cones[b])))
                    stack.append(b)
    if errors:
        raise errors[min(errors)]
    return tuple(inverses), incidence, crossings, roots <= 1


def _build_walls(variety):
    cones = variety.max_cones
    _, incidence, crossings, connected = variety._cone_walk
    walls = []
    for sub in sorted(incidence):
        owners = incidence[sub]
        if len(owners) != 2:
            raise NotComplete(
                f"wall {sub} lies in {len(owners)} maximal cones, expected 2"
            )
        ca, cb = owners
        c, relation = crossings[sub]
        if c != -1:
            raise NotComplete(
                f"cones {ca} and {cb} are not on opposite sides of wall {sub}"
            )
        (opp_a,) = set(cones[ca]).difference(sub)
        (opp_b,) = set(cones[cb]).difference(sub)
        walls.append(Wall(sub, ca, cb, opp_a, opp_b, relation))
    if not connected:
        raise NotComplete("cone adjacency graph is disconnected")
    return tuple(walls)


def validate_fan(dim, rays, max_cones, name="") -> ToricVariety:
    """Build a variety after checking smoothness and completeness."""
    if dim < 1:
        raise ValidationError("dimension must be at least 1")
    variety = ToricVariety(dim, rays, max_cones, name)
    if not variety.max_cones:
        raise ValidationError("fan has no maximal cones")
    _check_rays(dim, variety.rays)
    _check_cones(variety)
    variety.walls  # builds and certifies the wall structure
    return variety


# ---------------------------------------------------------------------------
# blow-ups


@dataclass(frozen=True)
class Blowup:
    """Star subdivision at the fixed point of one maximal cone."""

    source: ToricVariety
    result: ToricVariety
    cone_index: int
    e_index: int  # ray index of the exceptional divisor on the result

    @property
    def e_ray(self):
        return self.result.rays[self.e_index]


def blowup_at_fixed_point(variety: ToricVariety, cone_index: int) -> Blowup:
    """Replace one maximal cone by the star subdivision at its ray sum."""
    if variety.dim < 2:
        raise ValidationError("a blow-up at a fixed point needs dimension >= 2")
    cone = variety.max_cone(cone_index)
    new_ray = tuple(sum(variety.rays[i][c] for i in cone) for c in range(variety.dim))
    rays = variety.rays + (new_ray,)
    e_index = len(variety.rays)
    cones = [c for i, c in enumerate(variety.max_cones) if i != cone_index]
    for drop in cone:
        cones.append(tuple(i for i in cone if i != drop) + (e_index,))
    name = f"Bl_{cone_index}({variety.name})" if variety.name else ""
    result = validate_fan(variety.dim, rays, cones, name)
    return Blowup(variety, result, cone_index, e_index)


def pullback(divisor: TDivisor, blowup: Blowup) -> TDivisor:
    """Total transform: old coefficients plus the cone sum on the new ray."""
    if divisor.variety is not blowup.source:
        raise ValidationError("divisor does not live on the blown-up variety")
    cone = blowup.source.max_cones[blowup.cone_index]
    a_e = sum(divisor.coeffs[i] for i in cone)
    return TDivisor(blowup.result, divisor.coeffs + (a_e,))


# ---------------------------------------------------------------------------
# fan isomorphism


def ray_maps(rays, cones, inverse, target_rays, target_cones):
    """Yield the ray permutations of the linear maps carrying one smooth
    fan onto another: ``image[i]`` is the target ray that ray i maps to.

    The source fan has ``rays`` and ``cones``; ``inverse`` is the integer
    inverse of its cone 0's ray matrix.  A map sends cone 0 onto some
    target cone in some order, and a basis image fixes the map, so each
    map is met exactly once.  It is integer and unimodular: it takes one
    lattice basis (cone 0 is smooth) to another (the target cone is).  A
    map keeps the degree of a ray, the number of maximal cones through
    it, so orderings that break it are skipped, and an ordering is dropped
    at the first ray whose image is not a target ray of the same degree.
    With the source fan as its own target this yields the automorphism
    group.
    """
    # each ray v in the basis of cone 0: v = sum_k c_k u_k, c = v B^-1
    inv_cols = tuple(zip(*inverse))
    coords = [[sum(map(mul, ray, col)) for col in inv_cols] for ray in rays]
    deg = Counter(chain.from_iterable(cones))
    target_deg = Counter(chain.from_iterable(target_cones))
    cone0_deg = [deg[i] for i in cones[0]]
    target_index = {ray: k for k, ray in enumerate(target_rays)}
    target_set = {frozenset(c) for c in target_cones}
    for cone in target_cones:
        for perm in permutations(cone):
            if [target_deg[j] for j in perm] != cone0_deg:
                continue
            # the linear map taking u_k to the target ray perm[k]
            cols = tuple(zip(*(target_rays[j] for j in perm)))
            image = []
            for i, c in enumerate(coords):
                j = target_index.get(tuple(sum(map(mul, c, col)) for col in cols))
                if j is None or target_deg[j] != deg[i]:
                    break
                image.append(j)
            else:
                if {frozenset(image[i] for i in c) for c in cones} == target_set:
                    yield tuple(image)


def _class_rows(variety):
    """Rows of L: c -> c + div(chi^m), m the vertex of cone 0, off cone 0.

    Column k is L e_k = e_k + div(chi^(m_k)), m_k the cone-0 point of D_k,
    which is 0 unless k is on cone 0."""
    rays = variety.rays
    r = len(rays)
    cone0 = variety.max_cones[0]
    inv0 = variety.cone_inverses[:1]
    points = [
        cone_points([cone0], inv0, [int(j == k) for j in range(r)])[0]
        for k in cone0
    ]
    rows = []
    for rho, u in enumerate(rays):
        if rho not in cone0:
            row = [0] * r
            row[rho] = 1
            for k, m in zip(cone0, points):
                row[k] = sum(map(mul, m, u))
            rows.append(tuple(row))
    return tuple(rows)


def _needs_search(variety, cols):
    """Whether some fan automorphism may act on classes
    (torifan._sweep_pure, reduction 6).

    ``cols[k]`` is the class L e_k of the ray divisor D_k.  A ray class's
    signature is the number of rays in that class and its sorted column
    of the curve rows.  When no two distinct ray classes share a
    signature, every automorphism fixes every class.
    """
    count = Counter(cols)
    owners = {}  # signature -> a ray class carrying it
    for k, col in enumerate(cols):
        sig = (count[col], tuple(sorted(w[k] for w, _ in variety.curve_rows)))
        if owners.setdefault(sig, col) != col:
            return True
    return False


def _class_maps(variety):
    """The distinct non-identity maps that fan automorphisms induce on
    class vectors L c, as integer matrices (torifan._sweep_pure,
    reduction 6).

    An automorphism sends ray k to ray image[k], so it sends the class of
    D_k, column k of ``class_rows``, to column image[k].  For a free ray
    (one off cone 0) column k is a unit vector, so the map's column for it
    is L e_image[k].
    """
    cols = list(zip(*variety.class_rows))
    if not _needs_search(variety, cols):
        return ()
    rays, cones = variety.rays, variety.max_cones
    free = [k for k in range(len(rays)) if k not in cones[0]]
    maps = {
        tuple(zip(*(cols[image[k]] for k in free)))
        for image in ray_maps(rays, cones, variety.cone_inverses[0], rays, cones)
    }
    maps.discard(tuple(zip(*(cols[k] for k in free))))
    return tuple(maps)


def fans_isomorphic(x: ToricVariety, y: ToricVariety) -> bool:
    """Whether a unimodular map carries one fan onto the other."""
    if x.dim != y.dim or x.n_rays != y.n_rays:
        return False
    if len(x.max_cones) != len(y.max_cones):
        return False
    return any(
        ray_maps(x.rays, x.max_cones, x.cone_inverses[0], y.rays, y.max_cones)
    )


def is_projective_space(variety: ToricVariety) -> bool:
    """Whether the fan is that of P^n: for a smooth complete fan, n + 1 rays.

    P^n has n + 1 rays, and a unimodular map keeps the count.  Conversely
    let the fan be smooth and complete (``walls`` certifies both) with rays
    u_0..u_n.  They span R^n and the fan covers -(u_0 + ... + u_n), so
    their relations form a line holding one relation sum a_i u_i = 0 with
    every a_i > 0.  Let D_i be the determinant of the rays other than u_i.
    Substituting u_k = -(1/a_k) sum_(j != k) a_j u_j into D_i leaves one
    term, so |D_i| / a_i = |D_k| / a_k, which is nonzero.  Adding multiples
    of the relation, a point sum_(j != i) l_j u_j with every l_j > 0 has one
    nonnegative representation with a zero coefficient, the one at i; so it
    lies in no cone but cone(u_j : j != i), which completeness makes a
    maximal cone.  Smoothness gives |D_i| = 1 for every i, so all a_i are
    equal, u_0 = -(u_1 + ... + u_n), and the unimodular map taking u_1..u_n
    to e_1..e_n carries the fan onto that of P^n.
    """
    variety.walls  # certifies a complete smooth fan
    return variety.n_rays == variety.dim + 1


def require_fano(variety: ToricVariety, source):
    """Refuse a fan whose -K is not ample, naming ``source`` (its file).

    -K has every coefficient 1, so -K.C on a wall curve is the sum of that
    wall's row, an integer; by the toric Kleiman criterion -K is ample iff
    every such sum is positive.  The first wall with -K.C <= 0 is named.
    """
    for index, k in enumerate(map(sum, variety.wall_rows)):
        if k <= 0:
            wall = variety.walls[index]
            raise NotFano(
                f"{source}: not Fano: -K.C = {k} <= 0 on wall {index}, "
                f"between cones {wall.cone_a} and {wall.cone_b}"
            )


def _refusal(divisor: TDivisor, what):
    return (
        f"divisor {format_rationals(divisor.coeffs)} on "
        f"{divisor.variety.name or 'X'} is not {what}"
    )


def require_ample(divisor: TDivisor):
    if not divisor.is_ample():
        raise NotAmple(_refusal(divisor, "ample"))


def require_big(divisor: TDivisor):
    if not divisor.is_big():
        raise NotBig(_refusal(divisor, "big"))


def require_nef(divisor: TDivisor):
    if not divisor.is_nef():
        raise NotNef(_refusal(divisor, "nef"))
