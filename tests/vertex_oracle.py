"""Fraction vertex enumeration: the computation ratgeom's integer one reduces.

Solves every n-subset of rows by Fraction Gaussian elimination and decides
feasibility on the rational point.  ``ratgeom`` takes boundedness as the
caller's proof; this oracle checks it, with a Fraction nullspace per
(n-1)-subset for recession rays and a nullspace up front for lines, and
raises ``Unbounded`` on a set with either.  It shares with
``ratgeom.enumerate_vertices`` only the primitive integer rows
``Polytope.rows``, so agreement checks Cramer's rule, the integer sign
tests and the rank-n test.  ``det``, ``pivot_columns`` and
``solve_square`` are the Fraction eliminations that ``ratgeom.echelon``,
``ratgeom.int_det`` and ``toric._unimodular_inverse`` are checked against.
"""

from fractions import Fraction
from itertools import combinations


class Unbounded(Exception):
    """A feasible set with a recession direction, kept in ``direction``."""

    def __init__(self, direction):
        super().__init__(f"unbounded along {tuple(direction)}")
        self.direction = tuple(direction)


def det(rows) -> Fraction:
    """Determinant of a rational matrix by Gaussian elimination."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        p = m[col][col]
        result *= p
        for r in range(col + 1, n):
            f = m[r][col] / p
            if f:
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return sign * result


def solve_square(rows, rhs):
    """Solve an n x n rational system exactly; None when singular."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        p = m[col][col]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col] / p
                for c in range(col, n + 1):
                    m[r][c] -= f * m[col][c]
    return tuple(m[i][n] / m[i][i] for i in range(n))


def _echelon(m, ncols):
    """Row-reduce the Fraction matrix m in place; return its pivot columns."""
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        m[rank] = [x / m[rank][col] for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        pivots.append(col)
    return pivots


def pivot_columns(rows):
    """Columns independent of the columns before them."""
    m = [[Fraction(x) for x in row] for row in rows]
    return _echelon(m, len(m[0])) if m else []


def matrix_rank(rows) -> int:
    return len(pivot_columns(rows))


def nullspace(rows, ncols):
    """Basis of the rational nullspace of a matrix given as rows."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = _echelon(m, ncols)
    basis = []
    for col in range(ncols):
        if col in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[col] = Fraction(1)
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -m[prow][col]
        basis.append(tuple(vec))
    return basis


def _candidate_vertices(rows, n):
    found = set()
    for subset in combinations(rows, n):
        point = solve_square([r[0] for r in subset], [-r[1] for r in subset])
        if point is None:
            continue
        if all(sum(a * x for a, x in zip(row[0], point)) + row[1] >= 0 for row in rows):
            found.add(point)
    return found


def _recession_ray(rows, n):
    a_rows = [r[0] for r in rows]
    for subset in combinations(a_rows, n - 1):
        basis = nullspace(subset, n)
        if len(basis) != 1:
            continue
        d = basis[0]
        if all(sum(a * x for a, x in zip(row, d)) >= 0 for row in a_rows):
            return d
        neg = tuple(-x for x in d)
        if all(sum(a * x for a, x in zip(row, neg)) >= 0 for row in a_rows):
            return neg
    return None


def _feasible(rows, n) -> bool:
    m = [[Fraction(x) for x in r[0]] for r in rows]
    pivot_cols = _echelon(m, n)
    if not pivot_cols:
        return all(r[1] >= 0 for r in rows)
    reduced = [(tuple(row[0][c] for c in pivot_cols), row[1]) for row in rows]
    return bool(_candidate_vertices(reduced, len(pivot_cols)))


def fraction_vertices(poly):
    """Sorted vertices of a bounded polytope, from a Fraction enumeration.

    Raises ``Unbounded`` when the feasible set has a ray or a line and
    returns an empty tuple when it is empty.  Reads no vertex cache.
    """
    n = poly.ambient_dim
    rows = poly.rows
    lines = nullspace([r[0] for r in rows], n)
    if lines:
        if _feasible(rows, n):
            raise Unbounded(lines[0])
        return ()
    candidates = _candidate_vertices(rows, n)
    if not candidates:
        return ()
    ray = _recession_ray(rows, n)
    if ray is not None:
        raise Unbounded(ray)
    return tuple(sorted(candidates))
