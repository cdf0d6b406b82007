"""Sign decisions by root isolation over Fractions: an independent oracle.

Euclid's remainder sequence over Q with Fraction long division, signs read
by Fraction Horner, the squarefree part as p over a monic gcd.
``nonnegative_on`` isolates the roots of the squarefree part by bisection
and reads one-sided signs from derivatives at each midpoint root, where
``ratpoly`` counts roots of odd multiplicity without isolating any.  It
shares with ``ratpoly`` only ``trim`` and ``derivative``, so
agreement checks the primitive remainder sequence, the homogeneous integer
Horner, the integer exact division and the odd-multiplicity rule.
"""

from fractions import Fraction

from torifan.ratpoly import derivative, trim


def is_zero(p) -> bool:
    return all(c == 0 for c in p)


def horner(p, x) -> Fraction:
    """p(x) by Horner's rule over Fractions."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def divmod_poly(p, q):
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
        _, r = divmod_poly(p, q)
        p, q = q, r
    if is_zero(p):
        return p
    return tuple(c / p[-1] for c in p)  # monic


def squarefree(p):
    p = trim(p)
    if len(p) <= 2:
        return p
    g = gcd_poly(p, derivative(p))
    if len(g) == 1:
        return p
    q, r = divmod_poly(p, g)
    assert is_zero(r)
    return q


def sturm_sequence(p):
    seq = [trim(p), trim(derivative(p))]
    while not is_zero(seq[-1]):
        _, r = divmod_poly(seq[-2], seq[-1])
        seq.append(tuple(-c for c in r))
    return seq[:-1]


def sign_changes(seq, x):
    signs = []
    for p in seq:
        v = horner(p, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(p, a, b) -> int:
    """Number of distinct real roots in (a, b]; requires p(a) != 0."""
    p = trim(p)
    if is_zero(p):
        raise ValueError("root counting needs a nonzero polynomial")
    seq = sturm_sequence(p)
    return sign_changes(seq, a) - sign_changes(seq, b)


def strip_root(p, x):
    """Divide out (t - x) as often as possible."""
    while horner(p, x) == 0 and len(p) > 1:
        quot, rem = divmod_poly(p, (-Fraction(x), Fraction(1)))
        assert is_zero(rem)
        p = quot
    return p


def sign_just_right(p, x):
    """Sign of p on (x, x + eps): sign of the first nonzero derivative."""
    q = p
    while not is_zero(q):
        v = horner(q, x)
        if v:
            return 1 if v > 0 else -1
        q = derivative(q)
    return 0


def sign_just_left(p, x):
    """Sign of p on (x - eps, x)."""
    q = p
    parity = 1
    while not is_zero(q):
        v = horner(q, x)
        if v:
            return parity if v > 0 else -parity
        q = derivative(q)
        parity = -parity
    return 0


def _nonneg_rec(p, q, lo, hi):
    if count_roots(q, lo, hi) <= 1:
        return True
    mid = (lo + hi) / 2
    v = horner(p, mid)
    if v < 0:
        return False
    if v == 0:
        if sign_just_left(p, mid) < 0 or sign_just_right(p, mid) < 0:
            return False
        q = strip_root(q, mid)
    return _nonneg_rec(p, q, lo, mid) and _nonneg_rec(p, q, mid, hi)


def interior_part(p, a, b):
    """Squarefree, with p's roots in (a, b) and none at a or b."""
    return strip_root(strip_root(squarefree(p), a), b)


def nonnegative_on(p, a, b) -> bool:
    """Exact decision of ``p >= 0`` everywhere on [a, b]."""
    a, b = Fraction(a), Fraction(b)
    if a > b:
        raise ValueError("empty interval")
    p = trim(p)
    if is_zero(p):
        return True
    if horner(p, a) < 0 or (a != b and horner(p, b) < 0):
        return False
    if a == b:
        return True
    if sign_just_right(p, a) < 0 or sign_just_left(p, b) < 0:
        return False
    return _nonneg_rec(p, interior_part(p, a, b), a, b)


def has_root_inside(p, a, b) -> bool:
    """Exact decision of whether p has a root strictly between a and b."""
    a, b = Fraction(a), Fraction(b)
    p = trim(p)
    if a >= b:
        return False
    if is_zero(p):
        return True
    return count_roots(interior_part(p, a, b), a, b) > 0
