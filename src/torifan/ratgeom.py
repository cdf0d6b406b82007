"""Exact rational convex geometry.

A polytope is an intersection of rational halfspaces
``{m : <normal, m> + offset >= 0}`` in Q^n.  Everything here runs on Python
integers and :class:`fractions.Fraction`; no floating point enters any
predicate or measure.

:class:`Polytope` stores each halfspace once, as a primitive integer row
``(a, b)``: the constructor scales ``(normal, offset)`` by the lcm of its
denominators and divides the result by the gcd of its entries.  The row is
the given pair times a positive rational k, and ``<a, m> + b = k * (<normal,
m> + offset)`` has the same sign, so the rows cut out exactly the given set.
Everything below decides on those rows with integers only; the one
elimination, ``echelon``, is fraction-free (Bareiss, *Sylvester's identity
and multistep integer-preserving Gaussian elimination*, 1968):

- Vertices.  A nonsingular n-subset of rows, ``A x = -b``, has by Cramer's
  rule the one solution ``x = num / d`` with ``d = det A`` and ``num_j`` the
  determinant of A with column j replaced by ``-b``; negating both makes
  ``d > 0``.  Then ``<a, x> + b = (<a, num> + b*d) / d``, so x is feasible
  iff ``<a, num> + b*d >= 0`` for every row.  Two subsets give the same
  point iff their ``(num, d)`` agree after division by ``gcd(d, *num)``,
  which is the reduced form of the point with a common denominator.  A
  has rank n iff some n of its rows are independent, that is iff some
  n-subset has ``d != 0``, so the scan sees the rank for free; rows of
  lower rank, whose feasible set is empty or holds a line, are refused.
- Rank, incidence and membership.  Ranks are read off ``echelon``.
  Scaling points by the lcm ``scale > 0`` of their denominators makes them
  integral and changes neither the rank of their differences nor the sign
  of ``<a, v> + b``, which becomes ``(<a, scale*v> + b*scale) / scale``.

Polytopes are bounded by construction, and nothing here tests it: the
caller of ``Polytope`` proves its rows cut out a bounded set, as the
callers of ``fill_vertices`` and ``affine_image`` prove theirs.  Then a
nonempty set has a vertex, so the scan above finds them all, and an empty
one has none.  A set ``{A m + b >= 0}`` is bounded iff its recession cone
``{A m >= 0}`` is {0}, and the package builds a ``Polytope`` at four sites:

- ``TDivisor.section_polytope`` (torifan.toric), one row ``<m, u_rho> +
  a_rho`` per ray.  Its ``is_nef()`` reads the walls, so
  ``ToricVariety.walls`` has certified the fan complete (Cox-Little-Schenck,
  *Toric Varieties*, 2011, 4.3).  Every u in N_R then lies in a maximal
  cone, u = sum l_i u_i with l_i >= 0, so an m with ``<m, u_rho> >= 0``
  for every ray has ``<m, u> >= 0`` for every u; u = -m gives m = 0.
- The sweep's fresh argmax polytope (torifan.sweep): the same rows, on a
  fan whose walls ``build_skeleton`` has read (``curve_rows``).
- ``truncate``: added rows only shrink the recession cone.
- ``affine_image``: an affine bijection maps bounded sets to bounded sets.

A polytope caches its vertices once, in that integer form: ``vertex_points``
returns ``(scale, points)`` with ``scale`` the lcm of the vertices'
denominators and ``points`` the vertices times ``scale``, sorted.  One
positive scale keeps lexicographic order, so ``points`` sorts like the
Fraction vertices of ``enumerate_vertices``.  A vertex found as ``(num,
d)`` with ``gcd(d, *num) = 1`` has d as the lcm of its coordinates'
denominators (``lcm_j(d / gcd(d, num_j)) = d / gcd(d, *num)``), so the lcm
of the d's is ``scale``.  The form depends on the vertex set alone, so two
polytopes are equal iff their forms are (``polytopes_equal``).

Newton-Okounkov bodies (torifan.okounkov) are ``affine_image``s of section
polytopes, and ``translate`` is the image under the identity matrix.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, lcm
from operator import mul, sub

from torifan.errors import DegeneratePolytope, ValidationError


def scale_to_integers(coeffs):
    """``(lam, lam * coeffs)`` with lam the lcm of the Fractions' denominators."""
    lam = lcm(*(c.denominator for c in coeffs))
    return lam, [c.numerator * (lam // c.denominator) for c in coeffs]


class Polytope:
    """Immutable H-representation of a bounded set, with write-once caches;
    the caller proves the set bounded (module docstring).

    ``rows`` holds one primitive integer row ``(a, b)``, meaning
    ``<a, m> + b >= 0``, per ``(normal, offset)`` pair given.  Vertices
    (integer form, and the Fraction tuples read off it), full
    dimensionality, volume and barycenter are cached on the instance; the
    cached assignments are idempotent, so concurrent recomputation is
    harmless.
    """

    def __init__(self, ambient_dim, rows):
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be at least 1")
        primitive = []
        for normal, offset in rows:
            if len(normal) != ambient_dim:
                raise ValueError("halfspace dimension mismatch")
            if not any(normal):
                raise ValueError("halfspace normal must be nonzero")
            _, row = scale_to_integers((*normal, offset))
            g = gcd(*row)
            if g > 1:
                row = [c // g for c in row]
            primitive.append((tuple(row[:-1]), row[-1]))
        self.ambient_dim = ambient_dim
        self.rows = tuple(primitive)
        self._points = None  # (scale, integer points), see vertex_points
        self._vertices = None
        self._full = None  # see is_full_dimensional
        self._volume = None
        self._barycenter = None

    def __repr__(self):
        return f"Polytope(dim={self.ambient_dim}, facets<={len(self.rows)})"


# ---------------------------------------------------------------------------
# exact linear algebra on small integer matrices


def echelon(rows):
    """``(pivots, m, sign)``: the fraction-free row echelon form m of an
    integer matrix A (Bareiss), with ``sign`` the parity of the row swaps.

    The step on column c swaps a row i >= k with m_ic != 0 into the next
    pivot row k (none: c is skipped), then sets m_ic = 0 and m_ij to
    (p m_ij - m_ic m_kj) / prev for i > k, j > c, with p = m_kc and prev
    the previous pivot (1 at first).  With A' the swapped A, pivot columns
    c_0..c_k and M_k(i, j) the minor of A' on rows 0..k, i and columns
    c_0..c_k, j, inductively m_ij = M_k(i, j) after step k, and the pivot
    m_kc = D_k is the leading minor.  Sylvester's identity D_(k-1) M_k(i, j)
    = D_k M_(k-1)(i, j) - M_(k-1)(i, c) M_(k-1)(k, j) makes each division
    exact.  The steps are invertible row operations, and below k pivots the
    columns before c vanish; so c is a pivot iff column c is independent of
    those before it, m has A's row space and is zero from row len(pivots)
    on, and det A = sign * m[-1][-1] at full rank.
    """
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    sign = prev = 1
    k = 0
    for col in range(ncols):
        if k == len(m):
            break
        if m[k][col] == 0:
            for i in range(k + 1, len(m)):
                if m[i][col]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                continue
        top = m[k]
        p = top[col]
        cols = range(col + 1, ncols)
        for row in m[k + 1 :]:
            f = row[col]
            row[col] = 0
            for j in cols:
                row[j] = (row[j] * p - f * top[j]) // prev
        prev = p
        pivots.append(col)
        k += 1
    return pivots, m, sign


def int_det(rows) -> int:
    """Determinant of a square integer matrix: cofactor expansion up to
    3x3, ``echelon`` above.  The 0x0 determinant is 1, the empty product."""
    n = len(rows)
    if n < 2:
        return rows[0][0] if n else 1
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    pivots, m, sign = echelon(rows)
    return sign * m[-1][-1] if len(pivots) == n else 0


def int_rank(rows) -> int:
    """Rank of an integer matrix."""
    return len(echelon(rows)[0])


def _affine_rank(int_points):
    if len(int_points) <= 1:
        return 0
    base = int_points[0]
    return int_rank([list(map(sub, p, base)) for p in int_points[1:]])


# ---------------------------------------------------------------------------
# vertex enumeration


def _candidate_vertices(rows, n):
    """Feasible intersections of n facet hyperplanes, deduplicated.

    Each is ``(num, d)`` with ``d > 0`` and ``gcd(d, *num) = 1``, the point
    ``num / d``.  Returns None when no n-subset of the rows is nonsingular,
    that is when the rows have rank below n.
    """
    seen = set()
    found = []
    nonsingular = False
    for subset in combinations(rows, n):
        a = [r[0] for r in subset]
        d = int_det(a)
        if not d:
            continue
        nonsingular = True
        rhs = [-r[1] for r in subset]
        num = [
            int_det([row[:j] + (c,) + row[j + 1 :] for row, c in zip(a, rhs)])
            for j in range(n)
        ]
        if d < 0:
            d = -d
            num = [-x for x in num]
        g = gcd(d, *num)
        key = (tuple(x // g for x in num), d // g)
        if key in seen:
            continue
        seen.add(key)
        if all(sum(map(mul, ai, num)) + bi * d >= 0 for ai, bi in rows):
            found.append(key)
    return found if nonsingular else None


def vertex_points(poly: Polytope):
    """``(scale, points)``: the vertices times the lcm ``scale`` of their
    denominators, as sorted integer tuples (module docstring); ``points``
    is empty when the polytope is.  Raises ValueError when the rows have
    rank below n.
    """
    if poly._points is None:
        poly._points = _enumerate(poly)
    return poly._points


def enumerate_vertices(poly: Polytope):
    """All vertices of the polytope as Fraction tuples, sorted
    lexicographically: ``vertex_points`` over its scale."""
    if poly._vertices is None:
        scale, points = vertex_points(poly)
        poly._vertices = tuple(tuple(Fraction(x, scale) for x in p) for p in points)
    return poly._vertices


def fill_vertices(poly: Polytope, scale, points) -> Polytope:
    """Cache ``points / scale``, integer points and ``scale > 0``, as the
    vertices of ``poly``; the caller proves that they are.  Returns poly."""
    g = gcd(scale, *(x for p in points for x in p))
    poly._points = scale // g, tuple(sorted({tuple(x // g for x in p) for p in points}))
    return poly


def _enumerate(poly):
    candidates = _candidate_vertices(poly.rows, poly.ambient_dim)
    if candidates is None:
        raise ValueError("halfspace normals must have rank n")
    if not candidates:
        # a bounded nonempty set would have a vertex
        return 1, ()
    scale = lcm(*(d for _, d in candidates))
    points = (tuple(x * (scale // d) for x in num) for num, d in candidates)
    return scale, tuple(sorted(points))


def is_full_dimensional(poly: Polytope) -> bool:
    """Whether the vertices have affine rank n; cached on the polytope."""
    if poly._full is None:
        poly._full = _affine_rank(vertex_points(poly)[1]) == poly.ambient_dim
    return poly._full


def polytopes_equal(p: Polytope, q: Polytope) -> bool:
    """Set equality of polytopes: equal ``vertex_points``.

    A polytope is bounded, so it is the hull of its vertices, and
    ``vertex_points`` depends on the vertex set alone: its points are sorted
    and distinct, and its scale is the least s > 0 that makes them integral.
    That is the lcm of the vertex denominators in ``_enumerate``;
    ``fill_vertices`` (hence ``affine_image``) leaves it by dividing by
    gcd(scale, coordinates), as a valid scale is t times the least one, and
    t divides it and every coordinate.
    """
    if p.ambient_dim != q.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return vertex_points(p) == vertex_points(q)


# ---------------------------------------------------------------------------
# triangulation, volume, barycenter
#
# One pulling triangulation serves fan_triangulation, the sweep's
# triangulation (torifan.toric.ToricVariety.simplices) and the slice
# profiles of torifan.okounkov.slice_profile, and it reads only
# vertex-facet incidence.
# A face is its vertex set; the facets of a face F are the inclusion-maximal
# sets F & G, over the facets G of the polytope, that are neither empty nor
# F (each face of F is an intersection of facets of the polytope).  Pulling
# F from its least vertex v cones v over the triangulations of the facets of
# F that miss v; since every face is pulled from its own least vertex, the
# pieces agree on shared faces (De Loera, Rambau and Santos,
# *Triangulations*, on pulling triangulations).
#
# (P^1)^k has k! simplices (362,880 at k = 9, where invariants would run
# for tens of seconds), so a face whose triangulation passes MAX_SIMPLICES
# is refused as it is built.
MAX_SIMPLICES = 10**5


def pulling_triangulation(labels, facets):
    """Pulling triangulation of a polytope from its vertex-facet incidence.

    ``labels`` are mutually comparable vertex labels and ``facets`` holds
    one set of labels per facet; lower faces and repeats among them change
    nothing, as they are never inclusion-maximal.  Returns the simplices as
    label tuples, each led by its least label.  Raises ValidationError once
    a face holds more than ``MAX_SIMPLICES`` simplices.
    """
    return _pull(frozenset(labels), [frozenset(f) for f in facets], {})


def _pull(face, facets, memo):
    """Pulling triangulation of ``face``, memoised in ``memo``.

    A module-level function rather than a closure, so that no reference
    cycle (closure -> cell -> closure) outlives the call.
    """
    out = memo.get(face)
    if out is not None:
        return out
    pivot = min(face)
    if len(face) == 1:
        out = [(pivot,)]
    else:
        subfaces = []
        for g in facets:
            sub = face & g
            if sub and sub != face and sub not in subfaces:
                subfaces.append(sub)
        out = []
        for sub in subfaces:
            if pivot in sub or any(sub < other for other in subfaces):
                continue  # a facet through the pivot, or not a facet at all
            out.extend((pivot,) + s for s in _pull(sub, facets, memo))
            if len(out) > MAX_SIMPLICES:
                raise ValidationError(
                    f"triangulation exceeds MAX_SIMPLICES = {MAX_SIMPLICES} simplices"
                )
    memo[face] = out
    return out


def _pulling(poly: Polytope):
    """``(scale, points, simplices)``: ``vertex_points`` and their pulling
    triangulation as index tuples into those points, empty when not
    full-dimensional."""
    scale, points = vertex_points(poly)
    if not is_full_dimensional(poly):
        return scale, points, []
    tight = [
        [i for i, v in enumerate(points) if sum(map(mul, a, v)) + b * scale == 0]
        for a, b in poly.rows
    ]
    return scale, points, pulling_triangulation(range(len(points)), tight)


def fan_triangulation(poly: Polytope):
    """Triangulate a full-dimensional polytope by pulling.

    Every face is pulled from its lexicographically least vertex, so every
    simplex holds the least vertex of the polytope.  Returns a list of
    simplices, each a tuple of ambient_dim + 1 vertices.  The result is
    empty when the polytope is not full-dimensional.
    """
    verts = enumerate_vertices(poly)
    return [tuple(verts[i] for i in s) for s in _pulling(poly)[2]]


def simplex_det(points, simplex) -> int:
    """The determinant of the simplex's edge vectors from its first point;
    ``points`` maps each label of ``simplex`` to an integer point."""
    base = points[simplex[0]]
    return int_det([list(map(sub, points[v], base)) for v in simplex[1:]])


def simplex_sums(points, simplices, n):
    """Sum of |det| over the simplices and the |det|-weighted vertex sums.

    ``points`` maps each simplex label to an integer point of Z^n.  With
    d_s the |det| of simplex s, returns sum_s d_s (n! times the volume) and
    the vector sum_s d_s * (sum of the vertices of s) ((n+1) * n! times the
    first moment), both exact integers.
    """
    total = 0
    acc = [0] * n
    for s in simplices:
        d = abs(simplex_det(points, s))
        total += d
        cols = zip(*(points[v] for v in s))
        acc = [a + d * sum(col) for a, col in zip(acc, cols)]
    return total, acc


def _measure(poly: Polytope):
    """Fill the volume and barycenter caches from one triangulation.

    The triangulation runs on ``vertex_points``, so every simplex
    determinant and coordinate sum is an integer.  The barycenter stays
    None when the volume is zero.
    """
    n = poly.ambient_dim
    scale, points, simplices = _pulling(poly)
    total, acc = simplex_sums(points, simplices, n)
    poly._volume = Fraction(total, factorial(n) * scale**n)
    if total:
        poly._barycenter = tuple(
            Fraction(a, (n + 1) * scale * total) for a in acc
        )


def volume(poly: Polytope) -> Fraction:
    """Lebesgue measure; zero for empty or lower-dimensional sets."""
    if poly._volume is None:
        _measure(poly)
    return poly._volume


def barycenter(poly: Polytope):
    """Volume-weighted centroid; requires positive volume."""
    if poly._volume is None:
        _measure(poly)
    if poly._barycenter is None:
        raise DegeneratePolytope("barycenter of a zero-volume polytope")
    return poly._barycenter


# ---------------------------------------------------------------------------
# polytope constructors


def truncate(poly: Polytope, axis: int, lo=None, hi=None) -> Polytope:
    """Intersect with the slab {lo <= x_axis <= hi}; None leaves a side open."""
    n = poly.ambient_dim
    if not 0 <= axis < n:
        raise ValueError("axis out of range")
    if lo is not None and hi is not None and lo > hi:
        raise ValueError("truncation needs lo <= hi")
    unit = [0] * n
    unit[axis] = 1
    rows = list(poly.rows)
    if lo is not None:
        rows.append((unit, -lo))
    if hi is not None:
        rows.append(([-c for c in unit], hi))
    return Polytope(n, rows)


def affine_image(poly: Polytope, matrix, inverse, shift) -> Polytope:
    """``{matrix m + shift : m in poly}``, with its vertex and dimension
    caches if filled; the caller proves the integer ``matrix`` unimodular
    with ``inverse``.

    With m = inverse (nu - shift), ``<a, m> + b >= 0`` reads ``<inverse^T a,
    nu> + b - <inverse^T a, shift> >= 0``.  With (lam, c) =
    ``scale_to_integers(shift)``, lam > 0 and c = lam * shift integral, lam
    times that row is the integer row ``(lam * inverse^T a, lam * b -
    <inverse^T a, c>)``: a positive multiple, so it cuts out the same set
    and ``Polytope`` reduces it to the same primitive row.  The bijection
    maps the vertices p / s onto the vertices and keeps the dimension;
    lcm(s, lam) times each image is integral."""
    n = poly.ambient_dim
    if len(shift) != n:
        raise ValueError("vector dimension mismatch")
    lam, c = scale_to_integers(shift)
    cols = tuple(zip(*inverse))
    rows = []
    for a, b in poly.rows:
        normal = [sum(map(mul, col, a)) for col in cols]
        rows.append(([lam * x for x in normal], lam * b - sum(map(mul, normal, c))))
    image = Polytope(n, rows)
    image._full = poly._full
    if poly._points is not None:
        s, points = poly._points
        common = lcm(s, lam)
        k, j = common // s, common // lam
        images = [
            [sum(map(mul, row, p)) * k + x * j for row, x in zip(matrix, c)]
            for p in points
        ]
        fill_vertices(image, common, images)
    return image


def translate(poly: Polytope, vector) -> Polytope:
    """Shift the polytope by a rational vector, with its caches if filled."""
    n = poly.ambient_dim
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return affine_image(poly, identity, identity, vector)
