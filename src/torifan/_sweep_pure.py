"""The sweep engine: exact integer arithmetic, any dimension.

Both functions take the variety and read its cached integer tables, built
once per variety: ``curve_rows``, the distinct dense wall rows with their
K.C, one per curve class (reduction 5); ``cone_inverses``, from which
``toric.cone_points`` reads the cone vertices m_sigma; ``simplices``, the
triangulation; and ``class_rows`` and ``class_maps`` (reductions 2 and 6).
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
far less work, by seven reductions.

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

   The class map c -> L c (``ToricVariety.class_rows``), which adds
   div(chi^m) with m the vertex of cone 0 so that the result vanishes on
   cone 0's rays, has as kernel exactly the principal divisors.  Two
   samples whose classes L c1 = a v and L c2 = b v are positive multiples
   of one primitive vector v therefore satisfy: b c1 and a c2 differ by a
   principal divisor, and by 1 and 2 score(c1) = score(b c1) =
   score(a c2) = score(c2).  So the score, the
   checks and the extremal test are functions of the primitive class
   vector v, which keys a memo (as one packed integer, 4): each class is
   evaluated once.

3. Intervals.  D is ample iff every wall value <w, c> is positive (the
   toric Kleiman criterion).  With c_0..c_(k-1) fixed at wall sums p_w,
   the later coordinates add at most reach_k(w) = sum_(j>k) max(w_j,
   res w_j) on the grid, so p_w + w_k c_k + reach_k(w) > 0 is necessary
   for an ample completion.  The walk bounds c_k by these half-lines, one
   per wall with w_k != 0, by floor division, and so skips no prefix with
   an ample completion.  The bound is exact at a wall's last nonzero level
   K: reach_K(w) = 0 and nothing after K changes <w, c>, so every c_K it
   admits makes that wall positive.  Every wall row is nonzero (it is 1 at
   the two rays of the wall's cones off the wall), so every wall is
   enforced at some level, and every sample in a line's interval [lo, hi]
   (level r-1) is ample.  A wall that no grid vector makes positive
   empties every interval at its level K, so the walk finds nothing
   without a separate test.  On a line of prefix gcd g the grid keeps the
   x with gcd(g, x) = 1, all of them when g = 1.  The candidate total
   needs no walk at all: by Moebius inversion there are
   sum_d mu(d) floor(res/d)^r gcd-1 vectors in {1..res}^r.

4. Integer classes as keys.  L c is packed into one integer,
   sum_i (L c)_i K^i, with K larger than twice any |(L c)_i| on the grid,
   so the packing is injective there.  It is linear in c, so the keys of
   a line are the arithmetic progression A + x B with B the packed class
   of D_(r-1), which is not zero: on a complete fan the only effective
   principal divisor is 0.  A set test over
   that progression skips every line whose integer classes were all seen
   before; only new integer classes are reduced to primitive vectors.

   The class memo is keyed by packed integers too.  Every class L c of a
   grid sample has |(L c)_i| <= res sum_j |L_ij| <= (K - 1) / 2, and on
   vectors with entries that small the packing is injective: if two such
   vectors a != b packed equal, then at the least i with a_i != b_i,
   K would divide a_i - b_i, whose size is at most K - 1.  Let v = L c and
   d = gcd(v).  Packing is linear, so its key is pack(v) = d pack(v / d);
   ``key // d`` is exact and equals pack(v / d), the packed primitive
   class.  v / d has entries no larger than v's, so it lies in the
   injective range, and two primitive classes of grid samples share a key
   iff they are equal.

5. One wall row per curve class.  ``curve_rows`` keeps the distinct dense
   rows of the walls in first-occurrence order.  Two walls with equal rows
   w have equal D.C = <w, c> for every c and equal K.C = sum w (the row
   on the all-ones anticanonical vector), so dropping the later copy
   changes no comparison.  The Kleiman test (every wall value positive)
   and the walk's bounds, with the ``reach``, ``raising`` and
   ``lowering`` tables behind them, are conditions on the set of rows,
   which the copy does not change.  ``_evaluate``'s eps is the first wall
   whose ratio K.C / D.C is strictly smallest; a later copy of a row has the
   ratio of its first occurrence, so it never replaces it, and eps keeps
   the same pair (K.C, D.C).  On P^n every wall curve is a line
   (Cox-Little-Schenck, *Toric Varieties*, 2011, 6.3-6.4), so its
   n(n+1)/2 walls leave one row; P1xP1xP1 keeps 3 of 12.

6. One evaluation per orbit of the automorphism group.  Precondition:
   the variety's ``simplices`` triangulate P_D for every ample D, as the
   incidence argument of ``ToricVariety.simplices`` guarantees and
   tests/test_sweep.py checks.  Reductions 1-5 hold for any simplex
   list; this one does not.  Let phi be a fan automorphism, a unimodular
   map of N with phi(u_rho) = u_pi(rho) for a ray permutation pi that
   carries maximal cones onto maximal cones, and let c'_pi(rho) = c_rho.
   Then <m, u_pi(rho)> = <phi^T m, u_rho>, so P_c' = psi P_c with
   psi = (phi^T)^-1 unimodular, and psi carries the vertex of cone sigma
   to the vertex of cone phi(sigma).

   - Volume and barycenter.  Lattice volume is unimodular invariant, so
     the volume sum of a triangulation, vol, is the same for c and c'.
     The centroid maps by psi, so t'_pi(rho) = t_rho and t_max is the
     same; only the witness, which ``run_sweep`` discards, may move.  Both
     facts need the simplices to triangulate: phi permutes the cones, not
     the variety's simplex list.
   - Walls.  phi carries a wall and its relation to a wall, so the row
     of phi(w) at pi(rho) is the row of w at rho.  D'.phi(C) = D.C and
     K.C = K.phi(C) (K has all coefficients 1), and equal rows go to equal
     rows, so the pairs (K.C, D.C) over the curve rows are the same
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
   (``ToricVariety.class_maps``).  M is invertible over Z (phi^-1 gives its inverse),
   so it keeps primitive vectors primitive.  With the identity the maps M
   form a group, so evaluating the class v and storing its (score, meets)
   under every M v covers v's orbit, and each orbit is evaluated once, at
   the first of its classes that the walk meets.

   ``toric.ray_maps`` enumerates the automorphisms, once per variety, and
   ``toric._needs_search`` skips the search when none can act on classes.
   M sends the class of D_k to that of D_pi(k), so it keeps the number of
   rays in a ray class, and the column pi(k) of the curve rows is a
   permutation of column k.
   Ray classes span Pic, so a non-identity M moves some ray class onto a
   distinct one with the same signature (that number, the sorted column).
   P^n, F1 and the blow-up of P^n at a point never search.

   The images are written under packed keys (4).  Packing is linear, so
   pack(M v) = sum_j v_j pack(M e_j): each class map is kept as its
   packed columns, and an image costs one integer dot product.  It stays
   in the injective range of 4: v = L c / d for a grid sample c, and
   M L c = L c' for the sample c'_pi(rho) = c_rho, a permutation of c's
   coordinates and so again a grid sample.  Hence M v = L c' / d has
   entries no larger than those of L c', and pack(M v) is the packed
   primitive class of c', the key under which the walk looks c' up.

7. Rows in place.  The walk pushes prefixes of length at most r - 2 only.
   A prefix c_0..c_(r-3) with wall sums p takes its interval [lo, hi] for
   c_(r-2) as in 3 and walks its rows x = c_(r-2) in increasing order.
   Row x has wall sums p_w + w_(r-2) x, and reach_(r-1)(w) = 0, so the
   line bounds it reads off them are the half-lines and floor divisions
   that 3 applies at level r - 1 to the prefix c_0..c_(r-3), x: the same
   interval, exact at the last level.  Its packed class base +
   packed_(r-2) x and gcd gcd(g, x) are those that prefix would carry.
   Pushed on the stack, the prefixes c_0..c_(r-3), x would have no
   children and would come off in increasing x, each line taken whole
   before the next: the order in which rows are walked here.  So every
   line keeps its interval, its keys and its place in lexicographic
   order; only the stack entry, the prefix tuple and the wall-sum list of
   each row are gone.  On P^1 (r = 2) the prefix is the empty root.

Every check in ``_evaluate`` is a class function by 1 and 2, so the first
failing sample of the point-by-point walk is the first sample, in grid
order, of the first failing class F.  The walk here is depth-first on one
explicit stack of prefixes of length at most r - 2, each with its wall
sums, packed class and gcd (a stack, not recursion: the depth is the ray
count, which the grid cap leaves unbounded at resolution 1).  It pops the
last entry and pushes that prefix's children in decreasing c_k, so the
least child and its whole subtree come off before its next sibling; a
prefix of length r - 2 walks its rows in increasing order instead (7).
Lines are met in lexicographic order, each line is taken in increasing
c_(r-1), and the first class of each
orbit met is evaluated, on that class's first sample.  By 6 the first
class of F's orbit fails too, and it is met no later than F, so it is F:
the walk raises on that same sample with the same message.  In the same
way the first class C with the largest score is the first of its orbit,
so it is evaluated, and every class evaluated before it scores less; a
strict comparison over evaluated classes therefore keeps the first sample
of C, the point-by-point argmax.  ``extremal`` counts samples, not
classes: each line adds its samples whose integer class is extremal.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import NamedTuple

from torifan import toric
from torifan.errors import VerificationError
from torifan.ratgeom import simplex_sums


class RawSweep(NamedTuple):
    candidates: int  # gcd-reduced grid vectors seen
    ample: int
    extremal: int  # samples attaining the (n+1)^n bound exactly
    best: Fraction | None
    argmax: tuple | None
    collected: list  # ample coefficient vectors, capped
    collect_complete: bool


def _evaluate(variety, c):
    """Exact invariants of the ample integer sample c, as plain integers.

    Returns ``(vol, eps, delta, witness, extremal, score)``: vol = D^n,
    the pairs eps = (K.C, D.C) at the first wall minimising the ratio and
    delta = ((n+1) vol, t_max), the witness (least ray index attaining
    t_max), whether beta^n * vol meets (n+1)^n exactly, and the score
    beta^n * vol as a Fraction, beta = min(eps, delta).  Raises
    VerificationError when the volume is not positive, when delta^n * vol
    exceeds the simplex bound, or when the score exceeds (n+1)^n.
    """
    n = variety.dim
    verts = toric.cone_points(variety.max_cones, variety.cone_inverses, c)
    vol, bary_num = simplex_sums(verts, variety.simplices, n)
    if vol <= 0:
        raise VerificationError(
            "ample sample with nonpositive volume",
            variety=variety.name,
            sample=tuple(c),
        )

    # t_rho = (n+1) * vol * S(D_rho); the delta bound is vol^(n+1) <= t_max^n
    nvol = (n + 1) * vol
    t = [nvol * x + sum(map(mul, bary_num, u)) for u, x in zip(variety.rays, c)]
    t_max = max(t)
    if vol ** (n + 1) > t_max**n:
        raise VerificationError(
            "delta^n * vol exceeds the simplex bound",
            variety=variety.name,
            sample=tuple(c),
        )

    eps = None
    for row, k in variety.curve_rows:
        s = sum(map(mul, row, c))
        if eps is None or k * eps[1] < eps[0] * s:
            eps = (k, s)
    delta = (nvol, t_max)
    # beta = min(eps, delta) as an integer pair, eps on a tie
    beta_n, beta_d = eps if eps[0] * delta[1] <= delta[0] * eps[1] else delta
    lhs = beta_n**n * vol
    den = beta_d**n
    rhs = (n + 1) ** n * den
    if lhs > rhs:
        raise VerificationError(
            "score exceeds the (n+1)^n bound",
            variety=variety.name,
            sample=tuple(c),
        )
    return vol, eps, delta, t.index(t_max), lhs == rhs, Fraction(lhs, den)


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


def run_sweep(variety, resolution, collect_cap):
    """Score every ample grid sample exactly; track max, counts and checks.

    Returns the RawSweep of the point-by-point walk over the gcd-1 vectors
    of {1..resolution}^r; the module docstring proves the reductions.
    """
    res = resolution
    walls = [w for w, _ in variety.curve_rows]
    r = variety.n_rays
    last = r - 1
    fold = r - 2  # the level whose rows are walked in place (reduction 7)

    rows = variety.class_rows
    radix = 2 * res * max(sum(abs(a) for a in row) for row in rows) + 1
    powers = [radix**i for i in range(len(rows))]
    packed = [sum(map(mul, col, powers)) for col in zip(*rows)]
    step = packed[last]
    tail = [row[last] for row in rows]
    beside = [row[fold] for row in rows]
    # each class map M as its packed columns: M v packs to sum_j v_j M e_j
    maps = [
        [sum(map(mul, col, powers)) for col in zip(*m)]
        for m in variety.class_maps
    ]

    # reach[k]: the most the coordinates after k can add to each wall value
    reach = [[0] * len(walls)]
    for k in range(last, 0, -1):
        reach.append([s + max(w[k], w[k] * res) for s, w in zip(reach[-1], walls)])
    reach.reverse()
    # per level k: the pairs (wall, a) with a = w[k] > 0, and with a = -w[k] > 0
    raising = [[(t, w[k]) for t, w in enumerate(walls) if w[k] > 0] for k in range(r)]
    lowering = [[(t, -w[k]) for t, w in enumerate(walls) if w[k] < 0] for k in range(r)]
    # the line bounds of a row x: (wall, a, w[fold]) for the walls of the last level
    rising = [(t, a, walls[t][fold]) for t, a in raising[last]]
    falling = [(t, b, walls[t][fold]) for t, b in lowering[last]]

    ample = 0
    extremal = 0
    best = None
    argmax = None
    collected = []
    seen = set()  # packed integer classes met so far
    extremal_keys = set()
    classes = {}  # packed primitive class -> (meets the bound, score)

    # depth-first over the prefixes c_0..c_(k-1), k <= fold, each coordinate
    # inside its bounds: an entry is (prefix, wall sums, packed class, gcd),
    # and its children go on in decreasing x, so lines come off in
    # lexicographic order; a prefix of length fold walks its rows in place
    stack = [((), [0] * len(walls), 0, 0)]
    while stack:
        prefix, p, base, g = stack.pop()
        k = len(prefix)
        # the bounds: the c_k after which every wall can still turn positive
        lo, hi, slack = 1, res, reach[k]
        for t, a in raising[k]:
            y = -(p[t] + slack[t]) // a + 1
            if y > lo:
                lo = y
        for t, b in lowering[k]:
            y = (p[t] + slack[t] - 1) // b
            if y < hi:
                hi = y
        if k < fold:
            stack.extend(
                (prefix + (x,), [s + w[k] * x for s, w in zip(p, walls)],
                 base + packed[k] * x, gcd(g, x))
                for x in range(hi, lo - 1, -1)
            )
            continue
        head = None  # the class of the prefix, once a row has a new class
        for x in range(lo, hi + 1):
            # the row's line: c_last in [ylo, yhi], exact as reach is 0 there
            ylo = 1
            for t, a, s in rising:
                y = -(p[t] + s * x) // a + 1
                if y > ylo:
                    ylo = y
            yhi = res
            for t, b, s in falling:
                y = (p[t] + s * x - 1) // b
                if y < yhi:
                    yhi = y
            if ylo > yhi:
                continue
            start = base + packed[fold] * x
            h = gcd(g, x)
            if h == 1:
                ys = range(ylo, yhi + 1)
                keys = range(start + ylo * step, start + (yhi + 1) * step, step)
            else:
                ys = [y for y in range(ylo, yhi + 1) if gcd(h, y) == 1]
                if not ys:
                    continue
                keys = [start + y * step for y in ys]
            ample += len(ys)
            room = collect_cap - len(collected)
            if room > 0:
                collected.extend(prefix + (x, y) for y in ys[:room])
            if not seen.issuperset(keys):
                if head is None:
                    head = [sum(map(mul, row, prefix)) for row in rows]
                row_head = [a + x * b for a, b in zip(head, beside)]
                for y, key in zip(ys, keys):
                    if key in seen:
                        continue
                    seen.add(key)
                    v = [a + y * b for a, b in zip(row_head, tail)]
                    d = gcd(*v)
                    hit = classes.get(key // d)
                    if hit is None:
                        sample = prefix + (x, y)
                        hit = classes[key // d] = _evaluate(variety, sample)[4:]
                        if maps:  # reduction 6: the rest of the orbit
                            v = [a // d for a in v]
                            for m in maps:
                                classes[sum(map(mul, m, v))] = hit
                        if best is None or hit[1] > best:
                            best, argmax = hit[1], sample
                    if hit[0]:
                        extremal_keys.add(key)
            if extremal_keys:
                extremal += len(extremal_keys.intersection(keys))

    return RawSweep(
        candidates=_coprime_count(res, r),
        ample=ample,
        extremal=extremal,
        best=best,
        argmax=argmax,
        collected=collected,
        collect_complete=ample <= collect_cap,
    )
