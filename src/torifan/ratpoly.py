"""Exact univariate polynomials over Q, and piecewise polynomials of them.

A polynomial is a tuple of Fractions, lowest degree first.
``Piecewise.primitives``, one integer antiderivative per piece, integrates
slice areas into volume profiles, and Sturm sequences certify sign
conditions on intervals without floating point.
:class:`Piecewise` evaluates, integrates, certifies and samples both of
those profiles.  Values and signs are computed on integers: ``primitive``
writes p = c * P with c > 0 rational and P coprime integers.

1. ``_horner`` runs acc <- acc * N + P_k D^(d-k), k = d, ..., 0, for P of
   degree d and x = N/D, D > 0.  After step k, acc = sum_(j >= k) P_j
   N^(j-k) D^(d-j) by induction, so it ends at D^d P(x), signed as p(x).
2. Sturm's theorem counts the distinct roots in (a, b) of any nonzero p,
   squarefree or not, with p(a) != 0 != p(b), as V(a) - V(b), V(x) the
   sign changes (zeros dropped) of s_0(x), s_1(x), ..., where s_0 = p,
   s_1 = p', s_(i+1) = -rem(s_(i-1), s_i).  A root at b of a squarefree
   p is counted too.  Any S_i = k_i s_i with all k_i > 0 have the same V.
   ``_sturm_sequence`` builds such S_i over Z: S_0 = P, then P' and each
   remainder over its positive content.
   With l = |lc(S_i)|, ``_prem`` sets r <- l r - sign(lc(S_i)) lc(r)
   t^m S_i from r = S_(i-1) until deg r < deg S_i.  No step divides, and
   r = l^e S_(i-1) - Q S_i = l^e k_(i-1) rem(s_(i-1), s_i), as rem is
   linear in the dividend and blind to scaling the divisor.  So -r over
   its content is a positive multiple of s_(i+1).  Begun at (P, Q), the
   sequence ends at a positive multiple of gcd(P, Q).
3. p changes sign exactly at its roots of odd multiplicity.  So counting
   the roots of p, gcd(p, p'), ... decides a sign condition on an interval
   without isolating any root (``nonnegative_on``).
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from itertools import pairwise, zip_longest
from math import factorial, gcd, lcm

from torifan.errors import VerificationError

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


def primitive(p):
    """(c, P) with p = c * P, c > 0 a Fraction and P trimmed coprime ints."""
    den = lcm(*(c.denominator for c in p))
    ints = [c.numerator * (den // c.denominator) for c in p] or [0]
    while len(ints) > 1 and ints[-1] == 0:
        ints.pop()
    g = gcd(*ints) or 1
    return Fraction(g, den), tuple(v // g for v in ints)


def _horner(P, n, d) -> int:
    """d^deg(P) * P(n/d) for integer P, n and d (module docstring, 1)."""
    acc, power = 0, 1
    for c in reversed(P):
        acc = acc * n + c * power
        power *= d
    return acc


def _sign(P, x) -> int:
    v = _horner(P, x.numerator, x.denominator)
    return (v > 0) - (v < 0)


def evaluate(p, x) -> Fraction:
    return evaluate_primitive(*primitive(p), x)


def evaluate_primitive(c, P, x) -> Fraction:
    """c * P(x) for a Fraction c and integer coefficients P."""
    x = _frac(x)
    v = c.numerator * _horner(P, x.numerator, x.denominator)
    return Fraction(v, c.denominator * x.denominator ** (len(P) - 1))


def add(p, q):
    return trim(tuple(a + b for a, b in zip_longest(p, q, fillvalue=0)))


def subtract(p, q):
    return add(p, tuple(-_frac(c) for c in q))


def multiply(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += _frac(a) * b
    return trim(tuple(out))


def scale(p, c):
    return trim(tuple(_frac(a) * c for a in p))


def derivative(p):
    return tuple(c * i for i, c in enumerate(p) if i) or ZERO


def interpolate(points):
    """The unique polynomial of degree < len(points) through the points.

    Newton's divided differences over Fractions.  The package builds its
    slice pieces on integers instead (``factorial_interpolate``); this one
    is kept as the test oracle and for perfbench's trace table.
    """
    xs = [_frac(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    coeffs = [_frac(y) for _, y in points]  # to Newton's divided differences
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - j])
    result = ZERO
    for c, x in zip(reversed(coeffs), reversed(xs)):
        result = add(multiply(result, (-x, 1)), (c,))
    return result


def factorial_interpolate(values):
    """m! p as integer coefficients, lowest degree first, for the polynomial
    p of degree <= m with the integer values p(0), ..., p(m).

    The forward differences D_k = Delta^k p(0) are integers, and Newton's
    formula p(t) = sum_k D_k binom(t, k) gives m! p(t) = sum_k D_k (m!/k!)
    t (t-1) ... (t-k+1), an integer polynomial, built here by Horner in that
    falling-factorial basis.
    """
    m = len(values) - 1
    diffs = list(values)
    for j in range(1, m + 1):
        for i in range(m, j - 1, -1):
            diffs[i] -= diffs[i - 1]
    acc, weight = [diffs[m]], 1  # weight = m!/k!
    for k in range(m - 1, -1, -1):
        weight *= k + 1
        # acc <- acc * (t - k) + D_k m!/k!
        acc = [-k * acc[0]] + [a - k * b for a, b in zip(acc, acc[1:])] + [acc[-1]]
        acc[0] += diffs[k] * weight
    return acc


# ---------------------------------------------------------------------------
# sign certificates via integer Sturm sequences


def _prem(P, Q):
    """A positive multiple of rem(P, Q) over Z (module docstring, 2)."""
    r, l, s = list(P), abs(Q[-1]), 1 if Q[-1] > 0 else -1
    while len(r) >= len(Q) and any(r):
        f, shift = s * r[-1], len(r) - len(Q)
        r = [l * a for a in r]
        for i, b in enumerate(Q):
            r[shift + i] -= f * b
        while len(r) > 1 and r[-1] == 0:
            r.pop()
    return r


def _sturm_sequence(P, Q):
    """P, then Q and each negated remainder over its content, while nonzero."""
    seq, r = [P], Q
    while any(r):
        g = gcd(*r)
        seq.append(tuple(a // g for a in r))
        r = [-a for a in _prem(seq[-2], seq[-1])]
    return seq


def _divide(P, G):
    """P / G for G primitive and dividing P: over Z by Gauss's lemma."""
    r, quot = list(P), [0] * (len(P) - len(G) + 1)
    for shift in range(len(quot) - 1, -1, -1):
        f = quot[shift] = r[shift + len(G) - 1] // G[-1]
        for i, b in enumerate(G):
            r[shift + i] -= f * b
    if any(r):
        raise VerificationError("polynomial division left a remainder")
    return tuple(quot)


def _sign_changes(seq, x):
    signs = [s for s in (_sign(P, x) for P in seq) if s]
    return sum(a != b for a, b in pairwise(signs))


def _sturm(P):
    """The Sturm sequence of a nonzero integer polynomial P."""
    return _sturm_sequence(P, derivative(P))


def count_roots(p, a, b) -> int:
    """Number of distinct real roots in (a, b]; requires p(a) != 0, and
    p(b) != 0 unless p is squarefree (module docstring, 2)."""
    P = primitive(p)[1]
    if not any(P):
        raise ValueError("root counting needs a nonzero polynomial")
    seq = _sturm(P)
    return _sign_changes(seq, _frac(a)) - _sign_changes(seq, _frac(b))


def _strip_ends(P, a, b):
    """P over its factors (t - a)^i (t - b)^j, so with no root at a or b."""
    for x in (a, b):
        while len(P) > 1 and _sign(P, x) == 0:
            P = _divide(P, (-x.numerator, x.denominator))
    return P


def nonnegative_on(p, a, b) -> bool:
    """Exact decision of ``p >= 0`` everywhere on [a, b] (module docstring, 3).

    For a < b and p != 0, let Q be p over its factors at a and b, G_0 = Q
    and G_(k+1) = gcd(G_k, G_k'), the last entry of G_k's Sturm sequence.
    A root of Q of multiplicity m is a root of exactly G_0, ..., G_(m-1),
    and Q has p's roots in (a, b) with their multiplicities.  So
    sum_k (-1)^k (distinct roots of G_k in (a, b)) counts each root of p in
    (a, b) of odd multiplicity once and each of even multiplicity never.
    p changes sign exactly at its roots of odd multiplicity: near a root r
    of multiplicity m, p = (t - r)^m u with u(r) != 0.  If the sum is 0, p
    keeps one sign on the points of (a, b) where it is nonzero, so p >= 0
    on [a, b] iff p(a), p(b) >= 0 and p > 0 at one interior non-root.  The
    points a + (b - a) / 2^j, j = 1, 2, ..., are distinct and interior, and
    p has at most deg p roots, so one of the first deg p + 1 is no root.
    If the sum is not 0, p changes sign inside and is negative somewhere.
    """
    a, b = _frac(a), _frac(b)
    if a > b:
        raise ValueError("empty interval")
    P = primitive(p)[1]  # a positive multiple of p
    if _sign(P, a) < 0 or _sign(P, b) < 0:
        return False
    if a == b or not any(P):
        return True
    odd, parity, G = 0, 1, _strip_ends(P, a, b)
    while len(G) > 1:
        seq = _sturm(G)
        roots = _sign_changes(seq, a) - _sign_changes(seq, b)
        odd, parity, G = odd + parity * roots, -parity, seq[-1]
    if odd:
        return False
    x = (a + b) / 2
    while not (s := _sign(P, x)):
        x = (a + x) / 2
    return s > 0


def has_root_inside(p, a, b) -> bool:
    """Exact decision of whether p has a root strictly between a and b."""
    a, b = _frac(a), _frac(b)
    P = primitive(p)[1]
    return a < b and (not any(P) or count_roots(_strip_ends(P, a, b), a, b) > 0)


# ---------------------------------------------------------------------------
# piecewise polynomials


class Piecewise:
    """Methods over the ``breakpoints`` and ``pieces`` a subclass supplies.

    Piece i is the polynomial on [breakpoints[i], breakpoints[i+1]]; an
    interior breakpoint reads the piece on its left.  ``values_at`` reads
    every value.
    """

    @cached_property
    def integer_pieces(self):
        """``primitive(p)`` per piece, built once per profile."""
        return tuple(primitive(p) for p in self.pieces)

    @cached_property
    def primitives(self):
        """``(c / k!, Q)`` per piece ``(c, P)`` of ``integer_pieces``,
        k = len(P): c / k! * Q is the antiderivative of the piece vanishing
        at 0, as Q(0) = 0 and Q' = k! P.  Q is integral, as k!/(j+1) is an
        integer for j < k."""
        out = []
        for c, P in self.integer_pieces:
            kf = factorial(len(P))
            out.append((c / kf, (0, *(v * (kf // (j + 1)) for j, v in enumerate(P)))))
        return tuple(out)

    def values_at(self, nums, den):
        """(numerator, denominator) of the covering piece at each n/den, or
        (0, 1) off the support; den clears every breakpoint's denominator."""
        bounds = [b.numerator * (den // b.denominator) for b in self.breakpoints]
        for n in nums:
            if not self.pieces or not bounds[0] <= n <= bounds[-1]:
                yield 0, 1
                continue
            c, P = self.integer_pieces[max(bisect_left(bounds, n) - 1, 0)]
            yield c.numerator * _horner(P, n, den), c.denominator * den ** (len(P) - 1)

    def piece_value(self, x) -> Fraction:
        """The covering piece at x; 0 off the support or without pieces."""
        x = _frac(x)
        den = lcm(x.denominator, *(b.denominator for b in self.breakpoints))
        n = x.numerator * (den // x.denominator)
        return Fraction(*next(self.values_at((n,), den)))

    def integral(self, hi=None) -> Fraction:
        """Integral from the first breakpoint up to hi (default: the end)."""
        hi = self.breakpoints[-1] if hi is None else _frac(hi)
        parts = (
            evaluate_primitive(c, Q, min(b, hi)) - evaluate_primitive(c, Q, a)
            for (a, b), (c, Q) in zip(pairwise(self.breakpoints), self.primitives)
            if a < hi
        )
        return sum(parts, Fraction(0))

    def all_nonnegative(self, transform=None) -> bool:
        """Exact decision that every piece, transformed, is >= 0 on its span."""
        return all(
            nonnegative_on(p if transform is None else transform(p), a, b)
            for (a, b), p in zip(pairwise(self.breakpoints), self.pieces)
        )

    def is_continuous(self) -> bool:
        """Do neighbouring pieces agree at every interior breakpoint."""
        ints = self.integer_pieces
        return all(
            evaluate_primitive(*p, x) == evaluate_primitive(*q, x)
            for x, p, q in zip(self.breakpoints[1:], ints, ints[1:])
        )

    def grid(self, count):
        """(D, numerators over D) of the breakpoints and count + 1 evenly
        spaced points, sorted, once each; D = lcm of their denominators."""
        points = self.breakpoints
        lo, span = points[0], points[-1] - points[0]
        den = lcm((span / count).denominator, *(b.denominator for b in points))
        start, stride = int(lo * den), int(span * den) // count
        even = range(start, start + stride * count + 1, stride or 1)
        return den, sorted({*(int(b * den) for b in points), *even})
