"""Exact univariate polynomials over Q, and piecewise polynomials of them.

A polynomial is a tuple of Fractions, lowest degree first.  Interpolation
recovers each slice-area piece exactly from point evaluations,
antiderivatives integrate slice areas into volume profiles, and Sturm
sequences certify sign conditions on intervals without floating point.
:class:`Piecewise` evaluates, integrates, certifies and samples both of
those profiles.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import pairwise

ZERO = (Fraction(0),)


def _frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def trim(p):
    p = tuple(_frac(c) for c in p)
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p if p else ZERO


def is_zero(p) -> bool:
    return all(c == 0 for c in p)


def evaluate(p, x) -> Fraction:
    x = _frac(x)
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def add(p, q):
    n = max(len(p), len(q))
    return trim(
        tuple(
            (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
            for i in range(n)
        )
    )


def subtract(p, q):
    return add(p, tuple(-_frac(c) for c in q))


def multiply(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += _frac(a) * b
    return trim(tuple(out))


def scale(p, c):
    c = _frac(c)
    return trim(tuple(_frac(a) * c for a in p))


def derivative(p):
    if len(p) <= 1:
        return ZERO
    return tuple(_frac(c) * i for i, c in enumerate(p) if i >= 1)


def antiderivative(p):
    """The antiderivative of p that vanishes at 0."""
    return trim(ZERO + tuple(_frac(c) / (i + 1) for i, c in enumerate(p)))


def integrate(p, a, b) -> Fraction:
    """Definite integral over [a, b]."""
    anti = antiderivative(p)
    return evaluate(anti, b) - evaluate(anti, a)


def interpolate(points):
    """The unique polynomial of degree < len(points) through the points."""
    xs = [_frac(x) for x, _ in points]
    ys = [_frac(y) for _, y in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    result = ZERO
    for i, yi in enumerate(ys):
        if yi == 0:
            continue
        basis = (Fraction(1),)
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            basis = multiply(basis, (-xj, Fraction(1)))
            denom *= xs[i] - xj
        result = add(result, scale(basis, yi / denom))
    return result


def equal(p, q) -> bool:
    return trim(p) == trim(q)


# ---------------------------------------------------------------------------
# sign certificates via Sturm sequences


def _divmod_poly(p, q):
    p = list(trim(p))
    q = trim(q)
    if is_zero(q):
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(1, len(p) - len(q) + 1)
    while len(p) >= len(q) and not (len(p) == 1 and p[0] == 0):
        shift = len(p) - len(q)
        factor = p[-1] / q[-1]
        quot[shift] = factor
        for i, c in enumerate(q):
            p[shift + i] -= factor * c
        while len(p) > 1 and p[-1] == 0:
            p.pop()
    return trim(tuple(quot)), trim(tuple(p))


def gcd_poly(p, q):
    p, q = trim(p), trim(q)
    while not is_zero(q):
        _, r = _divmod_poly(p, q)
        p, q = q, r
    if is_zero(p):
        return ZERO
    return scale(p, 1 / p[-1])  # monic


def squarefree(p):
    p = trim(p)
    if len(p) <= 2:
        return p
    g = gcd_poly(p, derivative(p))
    if len(g) == 1:
        return p
    q, r = _divmod_poly(p, g)
    assert is_zero(r)
    return q


def _sturm_sequence(p):
    seq = [trim(p), derivative(p)]
    while not is_zero(seq[-1]):
        _, r = _divmod_poly(seq[-2], seq[-1])
        seq.append(tuple(-c for c in r))
    return seq[:-1]


def _sign_changes(seq, x):
    signs = []
    for p in seq:
        v = evaluate(p, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(p, a, b) -> int:
    """Number of distinct real roots in (a, b]; requires p(a) != 0."""
    p = trim(p)
    if is_zero(p):
        raise ValueError("root counting needs a nonzero polynomial")
    seq = _sturm_sequence(p)
    return _sign_changes(seq, a) - _sign_changes(seq, b)


def _strip_root(p, x):
    """Divide out (t - x) as often as possible."""
    while evaluate(p, x) == 0 and len(p) > 1:
        quot, rem = _divmod_poly(p, (-_frac(x), Fraction(1)))
        assert is_zero(rem)
        p = quot
    return p


def _sign_just_right(p, x):
    """Sign of p on (x, x + eps): sign of the first nonzero derivative."""
    q = p
    while not is_zero(q):
        v = evaluate(q, x)
        if v:
            return 1 if v > 0 else -1
        q = derivative(q)
    return 0


def _sign_just_left(p, x):
    """Sign of p on (x - eps, x)."""
    q = p
    parity = 1
    while not is_zero(q):
        v = evaluate(q, x)
        if v:
            return parity if v > 0 else -parity
        q = derivative(q)
        parity = -parity
    return 0


def _nonneg_rec(p, q, lo, hi):
    """Decide p >= 0 on [lo, hi].

    Invariants: q is squarefree with the same roots as p inside (lo, hi),
    q(lo) != 0, q(hi) != 0, and p is nonnegative at and just inside both
    endpoints.  With at most one interior root the one-sided endpoint signs
    already decide; with more, bisection separates roots, so the recursion
    terminates once interval lengths drop below the least root gap.
    """
    if count_roots(q, lo, hi) <= 1:
        return True
    mid = (lo + hi) / 2
    v = evaluate(p, mid)
    if v < 0:
        return False
    if v == 0:
        if _sign_just_left(p, mid) < 0 or _sign_just_right(p, mid) < 0:
            return False
        q = _strip_root(q, mid)
    return _nonneg_rec(p, q, lo, mid) and _nonneg_rec(p, q, mid, hi)


def nonnegative_on(p, a, b) -> bool:
    """Exact decision of ``p >= 0`` everywhere on [a, b]."""
    a, b = _frac(a), _frac(b)
    if a > b:
        raise ValueError("empty interval")
    p = trim(p)
    if is_zero(p):
        return True
    if evaluate(p, a) < 0 or (a != b and evaluate(p, b) < 0):
        return False
    if a == b:
        return True
    if _sign_just_right(p, a) < 0 or _sign_just_left(p, b) < 0:
        return False
    return _nonneg_rec(p, _interior_part(p, a, b), a, b)


def _interior_part(p, a, b):
    """Squarefree, with p's roots in (a, b) and none at a or b."""
    return _strip_root(_strip_root(squarefree(p), a), b)


def has_root_inside(p, a, b) -> bool:
    """Exact decision of whether p has a root strictly between a and b."""
    a, b = _frac(a), _frac(b)
    p = trim(p)
    if a >= b:
        return False
    if is_zero(p):
        return True
    return count_roots(_interior_part(p, a, b), a, b) > 0


# ---------------------------------------------------------------------------
# piecewise polynomials


class Piecewise:
    """Methods over ``self.breakpoints`` and ``self.pieces``.

    Piece i is the polynomial on [breakpoints[i], breakpoints[i+1]], so
    there is one more breakpoint than pieces; an interior breakpoint reads
    the piece on its left.  Subclasses supply both attributes.
    """

    def piece_value(self, x) -> Fraction:
        """The covering piece at x; 0 off the support or without pieces."""
        x = _frac(x)
        points = self.breakpoints
        if not self.pieces or x < points[0] or x > points[-1]:
            return Fraction(0)
        return evaluate(self.pieces[max(bisect_left(points, x) - 1, 0)], x)

    def integral(self, hi=None) -> Fraction:
        """Integral from the first breakpoint up to hi (default: the end)."""
        hi = self.breakpoints[-1] if hi is None else _frac(hi)
        total = Fraction(0)
        for (a, b), p in zip(pairwise(self.breakpoints), self.pieces):
            if hi <= a:
                break
            total += integrate(p, a, min(b, hi))
        return total

    def all_nonnegative(self, transform=None) -> bool:
        """Exact decision that every piece, transformed, is >= 0 on its span."""
        return all(
            nonnegative_on(p if transform is None else transform(p), a, b)
            for (a, b), p in zip(pairwise(self.breakpoints), self.pieces)
        )

    def is_continuous(self) -> bool:
        """Do neighbouring pieces agree at every interior breakpoint."""
        return all(
            evaluate(p, x) == evaluate(q, x)
            for x, p, q in zip(self.breakpoints[1:], self.pieces, self.pieces[1:])
        )

    def sample_points(self, count):
        """The breakpoints and count + 1 evenly spaced points, sorted, once each."""
        lo, span = self.breakpoints[0], self.breakpoints[-1] - self.breakpoints[0]
        even = (lo + span * Fraction(j, count) for j in range(count + 1))
        points = []
        for x in sorted([*self.breakpoints, *even]):  # merges two sorted runs
            if not points or x != points[-1]:
                points.append(x)
        return points
