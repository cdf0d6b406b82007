"""Per-node slice profile: the construction okounkov.slice_profile reduces.

Builds the slice ``{nu_1 = r}`` of the body as a fresh ``ratgeom.Polytope``
at each of n interpolation nodes per piece, enumerates its vertices from
scratch, measures it with ``ratgeom.volume`` and interpolates the n areas
with ``ratpoly.interpolate``.  It shares with ``okounkov.slice_profile``
only the vertex levels, so agreement checks the edge, crossing,
one-triangulation-per-piece and integer-piece reductions.
"""

from fractions import Fraction

from torifan import ratgeom, ratpoly
from torifan.okounkov import SliceProfile
from torifan.ratgeom import Polytope


def slice_polytope(poly: Polytope, axis: int, value) -> Polytope:
    """Intersect with {x_axis = value} and drop that coordinate.

    An empty slice is the empty polytope; a slice with no constraint left
    is all of Q^(n-1) and raises ValueError."""
    n = poly.ambient_dim
    if n < 2:
        raise ValueError("slicing needs ambient dimension at least 2")
    if not 0 <= axis < n:
        raise ValueError("axis out of range")
    value = Fraction(value)
    keep = [i for i in range(n) if i != axis]
    hs = []
    infeasible = False
    for normal, offset in poly.rows:
        new_normal = tuple(normal[i] for i in keep)
        new_offset = offset + normal[axis] * value
        if not any(new_normal):
            if new_offset < 0:
                infeasible = True
            continue
        hs.append((new_normal, new_offset))
    if infeasible:
        # constant constraint violated: the empty slice
        # {x >= 0, sum x <= -1}, whose normals have rank n - 1
        hs = [(tuple(int(i == j) for j in range(n - 1)), 0) for i in range(n - 1)]
        hs.append(((-1,) * (n - 1), -1))
    elif not hs:
        # every constraint is constant and holds: the slice is all of Q^(n-1)
        raise ValueError("the slice has no constraint left and is unbounded")
    return Polytope(n - 1, hs)


def nodewise_slice_profile(body) -> SliceProfile:
    """Slice areas measured on a fresh slice polytope at every node."""
    n = body.dim
    # a fresh copy, so that no vertex cache filled elsewhere is read
    verts = ratgeom.enumerate_vertices(Polytope(n, body.polytope.rows))
    levels = sorted({v[0] for v in verts})
    if n == 1:
        return SliceProfile(
            dim=1,
            breakpoints=(levels[0], levels[-1]),
            pieces=((Fraction(1),),),
        )

    def area_at(r):
        return ratgeom.volume(slice_polytope(body.polytope, 0, r))

    pieces = []
    for i in range(len(levels) - 1):
        lo, hi = levels[i], levels[i + 1]
        nodes = [lo + (hi - lo) * Fraction(j, n - 1) for j in range(n)]
        pieces.append(ratpoly.interpolate([(r, area_at(r)) for r in nodes]))
    return SliceProfile(dim=n, breakpoints=tuple(levels), pieces=tuple(pieces))
