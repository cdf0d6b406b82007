"""The sweep engine: exact integer arithmetic, any dimension.

Works on the precomputed skeleton from torifan.sweep.  All quantities stay
integers: for integer coefficient vectors c the vertex maps, wall values,
volume sum and barycenter numerator are integer-valued, and both theorem
checks reduce to integer comparisons.  Python bignums make overflow a
non-issue.

The result is the one a point-by-point walk gives -- visit every gcd-1
vector of {1..res}^r in lexicographic order (last coordinate fastest),
score each ample one, keep the first strict maximiser -- but the walk does
far less work, by four reductions.

1. Class invariance.  For m in M, D' = D + div(chi^m) has coefficients
   c'_rho = c_rho + <m, u_rho>.  Each cone vertex moves by -m (it solves
   <v, u_i> = -c_i on the cone's rays), so every simplex determinant, hence
   the volume sum ``vol``, is unchanged, and the barycenter numerator
   becomes bary - (n+1) vol m.  The support numerators
   t_rho = <bary, u_rho> + (n+1) vol c_rho are therefore unchanged, and so
   is every wall value, since a wall row pairs with div(chi^m) to
   <m, u_a + u_b + sum b_i u_i> = 0.  Every integer that ``_evaluate``
   compares is thus equal for D and D': same score, same extremal test,
   same checks.

2. Scale invariance.  Replacing c by lam*c (lam a positive integer)
   multiplies the vertices by lam, vol by lam^n, bary and every t_rho by
   lam^(n+1) and every wall value by lam.  Each comparison in
   ``_evaluate`` (the argmin over walls, eps against delta, vol^(n+1)
   against t_max^n, lhs against rhs) then has both sides multiplied by the
   same power of lam, and the score beta^n * vol is unchanged as a
   Fraction.

   The class map c -> L c, which adds div(chi^m) with m the vertex of cone
   0 so that the result vanishes on cone 0's rays, has as kernel exactly
   the principal divisors.  Two samples whose classes L c1 = a v and
   L c2 = b v are positive multiples of one primitive vector v therefore
   satisfy: b c1 and a c2 differ by a principal divisor, and by 1 and 2
   score(c1) = score(b c1) = score(a c2) = score(c2).  So the score, the
   checks and the extremal test are functions of the primitive class
   vector v, which keys a memo: each class is evaluated once.

3. Intervals.  With the first r-1 coordinates fixed, every wall value is
   p_w + a_w x, affine in the last coordinate x.  D is ample iff every
   wall value is positive (the toric Kleiman criterion), and each
   condition is a half-line in x, so the ample samples on the line form
   one integer interval [lo, hi], found by floor division.  Earlier
   coordinates get a necessary interval in the same way, with each wall's
   largest possible contribution from the later coordinates added in, so
   no prefix with an ample completion is skipped.  On a line of prefix
   gcd g the grid keeps the x with gcd(g, x) = 1, all of them when g = 1.
   The candidate total needs no walk at all: by Moebius inversion there
   are sum_d mu(d) floor(res/d)^r gcd-1 vectors in {1..res}^r.

4. Integer classes as keys.  L c is packed into one integer,
   sum_i (L c)_i K^i, with K larger than twice any |(L c)_i| on the grid,
   so the packing is injective there.  It is linear in c, so the keys of
   a line are the arithmetic progression A + x B with B the packed class
   of D_(r-1), which is not zero: on a complete fan the only effective
   principal divisor is 0.  A set test over
   that progression skips every line whose integer classes were all seen
   before; only new integer classes are reduced to primitive vectors.

Every check in ``_evaluate`` is a class function by 1 and 2, so the first
failing sample of the point-by-point walk is the first sample, in grid
order, of the first failing class.  The walk here visits lines in
lexicographic order and each line in increasing x, and runs the checks on
the first sample of each class it meets, so it raises on that same sample
with the same message.  For the same reason the first sample of the first
class with the largest score is the point-by-point argmax, and ``extremal``
counts samples, not classes: each line adds its samples whose integer
class is extremal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul, sub

from torifan.errors import VerificationError
from torifan.ratgeom import int_det


@dataclass
class RawSweep:
    candidates: int  # gcd-reduced grid vectors seen
    ample: int
    extremal: int  # samples attaining the (n+1)^n bound exactly
    best: Fraction | None
    argmax: tuple | None
    collected: list  # ample coefficient vectors, capped
    collect_complete: bool


def _evaluate(skel, c):
    """Exact score of the ample sample c and whether it meets the bound.

    Raises VerificationError when the volume is not positive, when
    delta^n * vol exceeds the simplex bound, or when the score exceeds
    (n+1)^n.
    """
    n = skel["dim"]
    bound = (n + 1) ** n
    svals = [sum(map(mul, row, c)) for row in skel["walls"]]
    verts = []
    for idx, mat in zip(skel["cone_indices"], skel["cone_matrices"]):
        coeffs = [c[i] for i in idx]
        verts.append([sum(map(mul, row, coeffs)) for row in mat])
    vol = 0
    bary_num = [0] * n
    for simplex in skel["simplices"]:
        base = verts[simplex[0]]
        d = abs(
            int_det([list(map(sub, verts[s], base)) for s in simplex[1:]])
        )
        vol += d
        corners = zip(*(verts[s] for s in simplex))
        bary_num = [b + d * sum(col) for b, col in zip(bary_num, corners)]
    if vol <= 0:
        raise VerificationError(
            "ample sample with nonpositive volume", sample=c
        )

    # t_rho = (n+1) * vol * S(D_rho); the delta bound is vol^(n+1) <= t_max^n
    t_max = max(
        sum(map(mul, bary_num, u)) + (n + 1) * vol * x
        for u, x in zip(skel["rays"], c)
    )
    if vol ** (n + 1) > t_max**n:
        raise VerificationError(
            "delta^n * vol exceeds the simplex bound", sample=c
        )

    eps_n, eps_d = None, None
    for k, s in zip(skel["wall_k"], svals):
        if eps_n is None or k * eps_d < eps_n * s:
            eps_n, eps_d = k, s
    del_n, del_d = (n + 1) * vol, t_max
    if eps_n * del_d <= del_n * eps_d:
        beta_n, beta_d = eps_n, eps_d
    else:
        beta_n, beta_d = del_n, del_d

    lhs = beta_n**n * vol
    rhs = bound * beta_d**n
    if lhs > rhs:
        raise VerificationError("score exceeds the (n+1)^n bound", sample=c)
    return Fraction(lhs, beta_d**n), lhs == rhs


def _class_rows(skel):
    """Rows of L: c -> c + div(chi^m), m the vertex of cone 0, off cone 0."""
    n = skel["dim"]
    rays = skel["rays"]
    cone0 = skel["cone_indices"][0]
    mat0 = skel["cone_matrices"][0]
    rows = []
    for rho in range(len(rays)):
        if rho in cone0:
            continue  # L c vanishes there
        row = [0] * len(rays)
        row[rho] = 1
        for pos, k in enumerate(cone0):
            row[k] += sum(rays[rho][j] * mat0[j][pos] for j in range(n))
        rows.append(row)
    return rows


def _coprime_count(res, r):
    """Number of gcd-1 vectors in {1..res}^r: sum_d mu(d) floor(res/d)^r."""
    mu = [1] * (res + 1)
    composite = [False] * (res + 1)
    for p in range(2, res + 1):
        if composite[p]:
            continue
        for k in range(p, res + 1, p):
            composite[k] = True
            mu[k] = -mu[k]
        for k in range(p * p, res + 1, p * p):
            mu[k] = 0
    return sum(mu[d] * (res // d) ** r for d in range(1, res + 1))


def run_sweep(skel, resolution, collect_cap):
    """Score every ample grid sample exactly; track max, counts and checks.

    Returns the RawSweep of the point-by-point walk over the gcd-1 vectors
    of {1..resolution}^r; the module docstring proves the reductions.
    """
    res = resolution
    walls = skel["walls"]
    r = len(skel["rays"])
    last = r - 1

    rows = _class_rows(skel)
    radix = 2 * res * max(sum(abs(a) for a in row) for row in rows) + 1
    packed = [
        sum(row[k] * radix**i for i, row in enumerate(rows)) for k in range(r)
    ]
    step = packed[last]
    tail = [row[last] for row in rows]

    # the most the coordinates after k can add to each wall value
    reach = [
        [sum(max(w[j], w[j] * res) for j in range(k + 1, r)) for w in walls]
        for k in range(r)
    ]
    raising = []  # per level: (wall, a) with a > 0
    lowering = []  # per level: (wall, -a) with a < 0
    for k in range(r):
        raising.append([(t, w[k]) for t, w in enumerate(walls) if w[k] > 0])
        lowering.append([(t, -w[k]) for t, w in enumerate(walls) if w[k] < 0])

    ample = 0
    extremal = 0
    best = None
    argmax = None
    collected = []
    seen = set()  # packed integer classes met so far
    extremal_keys = set()
    classes = {}  # primitive class vector -> (score, meets the bound)
    c = [0] * r

    def bounds(k, p):
        """Interval of c_k after which every wall can still turn positive."""
        lo, hi = 1, res
        slack = reach[k]
        for t, a in raising[k]:
            lo = max(lo, -(p[t] + slack[t]) // a + 1)
        for t, b in lowering[k]:
            hi = min(hi, (p[t] + slack[t] - 1) // b)
        return lo, hi

    def line(lo, hi, base, g):
        nonlocal ample, extremal, best, argmax
        if g == 1:
            xs = range(lo, hi + 1)
            keys = range(base + lo * step, base + (hi + 1) * step, step)
        else:
            xs = [x for x in range(lo, hi + 1) if gcd(g, x) == 1]
            keys = [base + x * step for x in xs]
        if not xs:
            return
        ample += len(xs)
        prefix = tuple(c[:last])
        room = collect_cap - len(collected)
        if room > 0:
            collected.extend(prefix + (x,) for x in xs[:room])
        if not seen.issuperset(keys):
            head = [sum(map(mul, row, prefix)) for row in rows]
            for x, key in zip(xs, keys):
                if key in seen:
                    continue
                seen.add(key)
                v = [h + x * t for h, t in zip(head, tail)]
                d = gcd(*v)
                cls = tuple(a // d for a in v)
                hit = classes.get(cls)
                if hit is None:
                    sample = prefix + (x,)
                    hit = classes[cls] = _evaluate(skel, sample)
                    if best is None or hit[0] > best:
                        best, argmax = hit[0], sample
                if hit[1]:
                    extremal_keys.add(key)
        if extremal_keys:
            extremal += len(extremal_keys.intersection(keys))

    # odometer over the prefixes, each coordinate kept inside its bounds;
    # level k holds the wall sums, packed class and gcd of c_0..c_(k-1)
    sums = [[0] * len(walls)] + [None] * (last - 1)
    bases = [0] * last
    gcds = [0] * last
    tops = [0] * last
    lo, tops[0] = bounds(0, sums[0])
    c[0] = lo - 1
    # a wall that no grid vector makes positive leaves nothing ample; the
    # bounds at level 0 rely on every other wall being reachable
    k = 0 if all(sum(max(a, a * res) for a in w) > 0 for w in walls) else -1
    while k >= 0:
        c[k] += 1
        if c[k] > tops[k]:
            k -= 1
            continue
        x = c[k]
        p = [s + w[k] * x for s, w in zip(sums[k], walls)]
        base = bases[k] + packed[k] * x
        g = gcd(gcds[k], x)
        lo, hi = bounds(k + 1, p)
        if k + 1 == last:
            line(lo, hi, base, g)
            continue
        k += 1
        sums[k], bases[k], gcds[k], tops[k] = p, base, g, hi
        c[k] = lo - 1

    return RawSweep(
        candidates=_coprime_count(res, r),
        ample=ample,
        extremal=extremal,
        best=best,
        argmax=argmax,
        collected=collected,
        collect_complete=ample <= collect_cap,
    )
