"""The sweep engine: exact integer arithmetic, any dimension.

``build_skeleton`` gathers a variety's integer tables once per variety
object; the cache holds the variety weakly, so it keeps none alive.  The
wall rows are the distinct ``wall_rows`` of the variety, one per curve
class (reduction 5), and the vertex maps its own ``cone_inverses``, from
which ``toric.cone_points`` reads the cone vertices m_sigma; the skeleton
adds the triangulation.
``_evaluate`` reads every invariant of one ample class off them, and it is
the one evaluator of ample classes: ``run_sweep`` scores grid samples with
it, and torifan.invariants.score scores any ample Q-divisor with it by the
unscaling rule under 2.  All quantities stay integers: for integer
coefficient vectors c the vertex maps, wall values, volume sum and
barycenter numerator are integer-valued, and both theorem checks reduce to
integer comparisons.  Python bignums make overflow a non-issue.  The
sweep's argmax is re-checked in torifan.sweep by the independent ratgeom
composition, never by this evaluator.

The result is the one a point-by-point walk gives -- visit every gcd-1
vector of {1..res}^r in lexicographic order (last coordinate fastest),
score each ample one, keep the first strict maximiser -- but the walk does
far less work, by six reductions.

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

   Unscaling.  The same homogeneity holds for rational lam > 0, so a
   Q-divisor D whose coefficients have lcm of denominators lam is scored
   through the integer vector c = lam D, ample with D:
   vol(D) = vol(c) / lam^n, eps(D) = lam eps(c) (K.C is fixed and every
   wall value is divided by lam) and delta(D) = lam delta(c), with
   delta(c) = (n+1) vol / t_max.  Every t_rho carries the same positive
   factor, so the witness (least index of the largest t_rho) is unchanged,
   and so is the extremal flag.

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

5. One wall row per curve class.  The skeleton keeps the distinct rows of
   ``wall_rows`` in first-occurrence order.  Two walls with equal rows w
   have equal D.C = <w, c> for every c and equal K.C = sum w (``wall_k``,
   the row on the all-ones anticanonical vector), so dropping the later
   copy changes no comparison.  The Kleiman test (every wall value
   positive), every ``bounds`` interval with the ``reach``, ``raising``
   and ``lowering`` tables behind it, and the level-0 test that every
   wall can turn positive are conditions on the set of rows, which the
   copy does not change.  ``_evaluate``'s eps is the first wall whose
   ratio K.C / D.C is strictly smallest; a later copy of a row has the
   ratio of its first occurrence, so it never replaces it, and eps keeps
   the same pair (K.C, D.C).  On P^n every wall curve is a line
   (Cox-Little-Schenck, *Toric Varieties*, 2011, 6.3-6.4), so its
   n(n+1)/2 walls leave one row; P1xP1xP1 keeps 3 of 12.

6. One evaluation per orbit of the automorphism group.  Precondition:
   the skeleton's simplices triangulate P_D for every ample D, as
   ``build_skeleton`` guarantees (torifan.sweep) and tests/test_sweep.py
   checks.  Reductions 1-5 hold for any simplex list; this one does not.
   Let phi be a fan automorphism, a unimodular map of N with
   phi(u_rho) = u_pi(rho) for a ray permutation pi that carries maximal
   cones onto maximal cones, and let c'_pi(rho) = c_rho.  Then
   <m, u_pi(rho)> = <phi^T m, u_rho>, so P_c' = psi P_c with
   psi = (phi^T)^-1 unimodular, and psi carries the vertex of cone sigma
   to the vertex of cone phi(sigma).

   - Volume and barycenter.  Lattice volume is unimodular invariant, so
     the volume sum of a triangulation, vol, is the same for c and c'.
     The centroid maps by psi, so t'_pi(rho) = t_rho and t_max is the
     same; only the witness, which ``run_sweep`` discards, may move.  Both
     facts need the simplices to triangulate: phi permutes the cones, not
     the skeleton's simplex list.
   - Walls.  phi carries a wall and its relation to a wall, so the row
     of phi(w) at pi(rho) is the row of w at rho.  D'.phi(C) = D.C and
     K.C = K.phi(C) (K has all coefficients 1), and equal rows go to equal
     rows, so the pairs (K.C, D.C) over the skeleton's rows are the same
     multiset for c and c'.  The Kleiman test is the same, and so is the
     least ratio K.C / D.C, although the pair at its first minimiser may
     be another pair of equal ratio.
   - Checks and score.  vol <= 0 and vol^(n+1) > t_max^n compare equal
     integers; beta = min(eps, delta) is the same rational, and lhs > rhs
     and lhs == rhs compare beta^n * vol with (n+1)^n.  So the score, the
     extremal test and every check's verdict agree on c and c'.

   On classes, c -> c' maps principal divisors to principal divisors
   (<m, u_rho> becomes <psi m, u_pi(rho)>), and L e_rho is the unit
   vector of rho for every ray rho off cone 0.  So c has the class of
   sum (L c)_rho e_rho over those rays, and L c' = M (L c) with M the
   integer map whose column for such a ray is L e_pi(rho)
   (``_class_maps``).  M is invertible over Z (phi^-1 gives its inverse),
   so it keeps primitive vectors primitive.  With the identity the maps M
   form a group, so evaluating the class v and storing its (score, meets)
   under every M v covers v's orbit, and each orbit is evaluated once, at
   the first of its classes that the walk meets.

   ``toric.ray_maps`` enumerates the automorphisms, and ``_needs_search``
   skips the search when none can act on classes.  M sends the class of
   D_k to that of D_pi(k), so it keeps the number of rays in a ray class,
   and the column pi(k) of the wall rows is a permutation of column k.
   Ray classes span Pic, so a non-identity M moves some ray class onto a
   distinct one with the same signature (that number, the sorted column).
   P^n, F1 and the blow-up of P^n at a point never search.

Every check in ``_evaluate`` is a class function by 1 and 2, so the first
failing sample of the point-by-point walk is the first sample, in grid
order, of the first failing class F.  The walk here visits lines in
lexicographic order and each line in increasing x, and evaluates the first
class of each orbit it meets, on that class's first sample.  By 6 the
first class of F's orbit fails too, and it is met no later than F, so it
is F: the walk raises on that same sample with the same message.  In the
same way the first class C with the largest score is the first of its
orbit, so it is evaluated, and every class evaluated before it scores
less; a strict comparison over evaluated classes therefore keeps the first
sample of C, the point-by-point argmax.  ``extremal`` counts samples, not
classes: each line adds its samples whose integer class is extremal.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from types import MappingProxyType

from torifan import toric
from torifan.errors import VerificationError
from torifan.ratgeom import pulling_triangulation, simplex_sums

# variety -> skeleton; weak keys, so a cached skeleton keeps no variety alive
_skeletons = weakref.WeakKeyDictionary()


@dataclass
class RawSweep:
    candidates: int  # gcd-reduced grid vectors seen
    ample: int
    extremal: int  # samples attaining the (n+1)^n bound exactly
    best: Fraction | None
    argmax: tuple | None
    collected: list  # ample coefficient vectors, capped
    collect_complete: bool


def build_skeleton(variety) -> MappingProxyType:
    """Integer tables driving the per-sample arithmetic, once per variety.

    The skeleton is cached per variety object and shared by every caller,
    so it is returned as a read-only mapping.
    """
    skel = _skeletons.get(variety)
    if skel is not None:
        return skel
    cones = variety.max_cones
    facets = [
        [j for j, cone in enumerate(cones) if rho in cone]
        for rho in range(variety.n_rays)
    ]
    walls = tuple(dict.fromkeys(variety.wall_rows))  # reduction 5
    skel = _skeletons[variety] = MappingProxyType({
        "dim": variety.dim,
        "rays": variety.rays,
        "walls": walls,
        "wall_k": tuple(map(sum, walls)),
        "cone_indices": cones,
        "cone_inverses": variety.cone_inverses,
        "simplices": tuple(pulling_triangulation(range(len(cones)), facets)),
    })
    return skel


def _evaluate(skel, c):
    """Exact invariants of the ample integer sample c, as plain integers.

    Returns ``(vol, eps, delta, witness, extremal)``: vol = D^n, the pairs
    eps = (K.C, D.C) at the first wall minimising the ratio and
    delta = ((n+1) vol, t_max), the witness (least ray index attaining
    t_max) and whether beta^n * vol meets (n+1)^n exactly.  Raises
    VerificationError when the volume is not positive, when delta^n * vol
    exceeds the simplex bound, or when the score exceeds (n+1)^n.
    """
    n = skel["dim"]
    verts = toric.cone_points(skel["cone_indices"], skel["cone_inverses"], c)
    vol, bary_num = simplex_sums(verts, skel["simplices"], n)
    if vol <= 0:
        raise VerificationError(
            "ample sample with nonpositive volume", sample=c
        )

    # t_rho = (n+1) * vol * S(D_rho); the delta bound is vol^(n+1) <= t_max^n
    nvol = (n + 1) * vol
    t = [nvol * x + sum(map(mul, bary_num, u)) for u, x in zip(skel["rays"], c)]
    t_max = max(t)
    if vol ** (n + 1) > t_max**n:
        raise VerificationError(
            "delta^n * vol exceeds the simplex bound", sample=c
        )

    eps = None
    for k, row in zip(skel["wall_k"], skel["walls"]):
        s = sum(map(mul, row, c))
        if eps is None or k * eps[1] < eps[0] * s:
            eps = (k, s)
    delta = (nvol, t_max)
    beta_n, beta_d = _beta(eps, delta)
    lhs = beta_n**n * vol
    rhs = (n + 1) ** n * beta_d**n
    if lhs > rhs:
        raise VerificationError("score exceeds the (n+1)^n bound", sample=c)
    return vol, eps, delta, t.index(t_max), lhs == rhs


def _beta(eps, delta):
    """beta = min(eps, delta) as an integer pair, eps on a tie."""
    return eps if eps[0] * delta[1] <= delta[0] * eps[1] else delta


def _class_rows(skel):
    """Rows of L: c -> c + div(chi^m), m the vertex of cone 0, off cone 0."""
    n = skel["dim"]
    rays = skel["rays"]
    cone0 = skel["cone_indices"][0]
    inv0 = skel["cone_inverses"][0]  # m = -inv0 (c on cone 0's rays)
    rows = []
    for rho in range(len(rays)):
        if rho in cone0:
            continue  # L c vanishes there
        row = [0] * len(rays)
        row[rho] = 1
        for pos, k in enumerate(cone0):
            row[k] -= sum(rays[rho][j] * inv0[j][pos] for j in range(n))
        rows.append(row)
    return rows


def _needs_search(skel, cols):
    """Whether some fan automorphism may act on classes (reduction 6).

    ``cols[k]`` is the class L e_k of the ray divisor D_k.  A ray class's
    signature is the number of rays in that class and its sorted column
    of the skeleton's wall rows.  When no two distinct ray classes share a
    signature, every automorphism fixes every class.
    """
    count = Counter(cols)
    walls = skel["walls"]
    owners = {}  # signature -> a ray class carrying it
    for k, col in enumerate(cols):
        sig = (count[col], tuple(sorted(w[k] for w in walls)))
        if owners.setdefault(sig, col) != col:
            return True
    return False


def _class_maps(skel, rows):
    """The distinct non-identity maps that fan automorphisms induce on
    class vectors L c, as integer matrices (reduction 6).

    An automorphism sends ray k to ray image[k], so it sends the class of
    D_k, column k of ``rows``, to column image[k].  For a free ray (one
    off cone 0) column k is a unit vector, so the map's column for it is
    L e_image[k].
    """
    cols = list(zip(*rows))
    if not _needs_search(skel, cols):
        return ()
    cones = skel["cone_indices"]
    rays = skel["rays"]
    inverse = skel["cone_inverses"][0]
    free = [k for k in range(len(rays)) if k not in cones[0]]
    maps = {
        tuple(zip(*(cols[image[k]] for k in free)))
        for image in toric.ray_maps(rays, cones, inverse, rays, cones)
    }
    maps.discard(tuple(zip(*(cols[k] for k in free))))
    return tuple(maps)


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
    n = skel["dim"]
    walls = skel["walls"]
    r = len(skel["rays"])
    last = r - 1

    rows = _class_rows(skel)
    maps = _class_maps(skel, rows)
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
                    vol, eps, delta, _, meets = _evaluate(skel, sample)
                    beta_n, beta_d = _beta(eps, delta)
                    value = Fraction(beta_n**n * vol, beta_d**n)
                    hit = classes[cls] = (value, meets)
                    for m in maps:  # reduction 6: the rest of the orbit
                        classes[tuple(sum(map(mul, w, cls)) for w in m)] = hit
                    if best is None or value > best:
                        best, argmax = value, sample
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
