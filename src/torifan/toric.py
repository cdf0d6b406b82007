"""Smooth complete toric varieties from rational fans.

A fan is given by primitive integer ray generators and simplicial maximal
cones.  Completeness is certified combinatorially: every wall (codimension-1
cone) lies in exactly two maximal cones that sit on opposite sides of it, and
the cone-adjacency graph is connected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations
from math import factorial, gcd
from operator import mul

from torifan import ratgeom
from torifan.errors import (
    NotAmple,
    NotBig,
    NotComplete,
    NotNef,
    NotSimplicial,
    NotSmooth,
    ValidationError,
)
from torifan.ratgeom import HalfSpace, Polytope


def _int_matrix_inverse(rows):
    """Inverse of an integer matrix with determinant +-1."""
    n = len(rows)
    d = ratgeom.int_det(rows)
    assert abs(d) == 1
    inv = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [
                [rows[r][c] for c in range(n) if c != i]
                for r in range(n)
                if r != j
            ]
            cof = ratgeom.int_det(minor) if minor else 1
            row.append(((-1) ** (i + j)) * cof * d)
        inv.append(row)
    return inv


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

    def divisor(self, coeffs) -> "TDivisor":
        return TDivisor(self, coeffs)

    def anticanonical(self) -> "TDivisor":
        return TDivisor(self, [1] * self.n_rays)

    @cached_property
    def walls(self):
        return _build_walls(self)

    def cone_rays(self, cone_index):
        return tuple(self.rays[i] for i in self.max_cones[cone_index])

    def cone_vertex(self, cone_index, coeffs):
        """The point m with <m, u_rho> = -a_rho for every ray of the cone."""
        rows = self.cone_rays(cone_index)
        _require_unimodular(rows, cone_index)
        inv = _int_matrix_inverse(rows)
        rhs = [-Fraction(coeffs[i]) for i in self.max_cones[cone_index]]
        return tuple(sum(map(mul, r, rhs)) for r in inv)

    def wall_value(self, wall: Wall, coeffs) -> Fraction:
        acc = Fraction(coeffs[wall.opp_a]) + Fraction(coeffs[wall.opp_b])
        for b, i in zip(wall.relation, wall.rays):
            acc += b * Fraction(coeffs[i])
        return acc

    def fixed_points(self):
        """Indices of maximal cones, one torus-fixed point each."""
        return range(len(self.max_cones))


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
        """{m : <m, u_rho> >= -a_rho for all rays}."""
        if self._polytope is None:
            hs = [
                HalfSpace(tuple(Fraction(c) for c in ray), a)
                for ray, a in zip(self.variety.rays, self.coeffs)
            ]
            self._polytope = Polytope(self.variety.dim, hs)
        return self._polytope

    def wall_values(self):
        return [self.variety.wall_value(w, self.coeffs) for w in self.variety.walls]

    def is_nef(self) -> bool:
        return all(v >= 0 for v in self.wall_values())

    def is_ample(self) -> bool:
        return all(v > 0 for v in self.wall_values())

    def is_big(self) -> bool:
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
        _require_unimodular([rays[i] for i in cone], ci)
    if used != set(range(len(rays))):
        raise ValidationError("some rays belong to no maximal cone")


def _require_unimodular(rows, ci):
    """The determinant of cone ``ci``'s rays, which must be +-1."""
    d = ratgeom.int_det(rows)
    if d == 0:
        raise NotSimplicial(f"cone {ci} has linearly dependent rays")
    if abs(d) != 1:
        raise NotSmooth(f"cone {ci} with rays {list(rows)} has |det| = {abs(d)}")
    return d


def _build_walls(variety):
    n = variety.dim
    incidence = {}
    for ci, cone in enumerate(variety.max_cones):
        for sub in combinations(sorted(cone), n - 1):
            incidence.setdefault(sub, []).append(ci)
    walls = []
    for sub in sorted(incidence):
        owners = incidence[sub]
        if len(owners) != 2:
            raise NotComplete(
                f"wall {sub} lies in {len(owners)} maximal cones, expected 2"
            )
        ca, cb = owners
        (opp_a,) = set(variety.max_cones[ca]) - set(sub)
        (opp_b,) = set(variety.max_cones[cb]) - set(sub)
        # express u_opp_b in the basis (wall rays, u_opp_a) by Cramer's rule,
        # exact in integers as cone_a is unimodular; the u_opp_a coordinate
        # is +-det(cone_b), which must be -1 or the two cones overlap
        basis = [variety.rays[i] for i in sub] + [variety.rays[opp_a]]
        d = _require_unimodular(basis, ca)
        target = variety.rays[opp_b]
        coords = [
            d * ratgeom.int_det(basis[:j] + [target] + basis[j + 1 :])
            for j in range(n)
        ]
        if abs(coords[-1]) != 1:
            _require_unimodular(basis[:-1] + [target], cb)
        if coords[-1] != -1:
            raise NotComplete(
                f"cones {ca} and {cb} are not on opposite sides of wall {sub}"
            )
        relation = tuple(-c for c in coords[:-1])
        walls.append(Wall(sub, ca, cb, opp_a, opp_b, relation))
    # connectivity of the adjacency graph completes the certificate
    if variety.max_cones:
        adjacency = {i: set() for i in range(len(variety.max_cones))}
        for w in walls:
            adjacency[w.cone_a].add(w.cone_b)
            adjacency[w.cone_b].add(w.cone_a)
        seen = {0}
        stack = [0]
        while stack:
            for nb in adjacency[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) != len(variety.max_cones):
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
    if not 0 <= cone_index < len(variety.max_cones):
        raise ValidationError(f"no maximal cone with index {cone_index}")
    cone = variety.max_cones[cone_index]
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


def exceptional(blowup: Blowup) -> TDivisor:
    coeffs = [0] * blowup.result.n_rays
    coeffs[blowup.e_index] = 1
    return TDivisor(blowup.result, coeffs)


# ---------------------------------------------------------------------------
# fan isomorphism


def fans_isomorphic(x: ToricVariety, y: ToricVariety) -> bool:
    """Whether a unimodular map carries one fan onto the other."""
    if x.dim != y.dim or x.n_rays != y.n_rays:
        return False
    if len(x.max_cones) != len(y.max_cones):
        return False
    n = x.dim
    base = [x.rays[i] for i in x.max_cones[0]]
    base_inv = _int_matrix_inverse(base)
    x_ray_set = set(x.rays)
    x_cone_set = {frozenset(c) for c in x.max_cones}
    for cone in y.max_cones:
        for perm in permutations(cone):
            target = [y.rays[i] for i in perm]
            # g maps base[k] to target[k]: g = T^t . (B^t)^-1 acting on rows
            g = [
                [
                    sum(target[k][i] * base_inv[j][k] for k in range(n))
                    for j in range(n)
                ]
                for i in range(n)
            ]

            def apply(v):
                return tuple(sum(g[i][j] * v[j] for j in range(n)) for i in range(n))

            image = {ray: apply(ray) for ray in x_ray_set}
            if set(image.values()) != set(y.rays):
                continue
            index_of = {ray: k for k, ray in enumerate(y.rays)}
            mapped_cones = {
                frozenset(index_of[image[x.rays[i]]] for i in c) for c in x_cone_set
            }
            if mapped_cones == {frozenset(c) for c in y.max_cones}:
                return True
    return False


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


def require_ample(divisor: TDivisor):
    if not divisor.is_ample():
        raise NotAmple(
            f"divisor {divisor.coeffs} on {divisor.variety.name or 'X'} is not ample"
        )


def require_big(divisor: TDivisor):
    if not divisor.is_big():
        raise NotBig(
            f"divisor {divisor.coeffs} on {divisor.variety.name or 'X'} is not big"
        )


def require_nef(divisor: TDivisor):
    if not divisor.is_nef():
        raise NotNef(
            f"divisor {divisor.coeffs} on {divisor.variety.name or 'X'} is not nef"
        )
