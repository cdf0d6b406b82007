"""Brute-force sweep: the point-by-point walk torifan._sweep_pure reduces.

Visits every gcd-1 vector of {1..resolution}^r in lexicographic order,
tests each for ampleness on the given rows, one per wall (``rows_per_wall``,
not the variety's ``curve_rows``, one per curve class), and scores every
ample one from the (vol, eps, delta) of the engine's own exact evaluator,
never from the evaluator's score.  It knows nothing of classes, curve
classes or automorphisms, so agreement with ``_sweep_pure.run_sweep``
checks the walk's reductions (intervals, class and orbit memo, one row per
curve class, counting) and nothing else.
"""

from fractions import Fraction
from math import gcd

from torifan._sweep_pure import RawSweep, _evaluate


def grid(r, resolution):
    """Lexicographic odometer over {1..resolution}^r, gcd-reduced vectors only."""
    c = [1] * r
    while True:
        g = 0
        for x in c:
            g = gcd(g, x)
        if g == 1:
            yield tuple(c)
        i = r - 1
        while i >= 0 and c[i] == resolution:
            c[i] = 1
            i -= 1
        if i < 0:
            return
        c[i] += 1


def rows_per_wall(variety):
    """One dense integer row w per wall of the variety, repeats kept, with
    D.C = sum_rho w_rho a_rho: 1 at opp_a and opp_b, the relation's b_i at
    the wall rays, 0 elsewhere."""
    rows = []
    for w in variety.walls:
        row = [0] * variety.n_rays
        for i, b in zip((w.opp_a, w.opp_b) + w.rays, (1, 1) + w.relation):
            row[i] = b
        rows.append(tuple(row))
    return tuple(rows)


def pointwise_sweep(rows, variety, resolution, collect_cap):
    """The RawSweep of the point-by-point walk: ampleness from ``rows``,
    scores from ``_evaluate(variety, c)``."""
    candidates = 0
    ample = 0
    extremal = 0
    best = None
    argmax = None
    collected = []
    collect_complete = True
    for c in grid(variety.n_rays, resolution):
        candidates += 1
        if any(sum(w * x for w, x in zip(row, c)) <= 0 for row in rows):
            continue
        ample += 1
        if len(collected) < collect_cap:
            collected.append(c)
        else:
            collect_complete = False
        vol, eps, delta, _, meets_bound, _ = _evaluate(variety, c)  # not its score
        score = min(Fraction(*eps), Fraction(*delta)) ** variety.dim * vol
        if meets_bound:
            extremal += 1
        if best is None or score > best:
            best = score
            argmax = c
    return RawSweep(
        candidates=candidates,
        ample=ample,
        extremal=extremal,
        best=best,
        argmax=argmax,
        collected=collected,
        collect_complete=collect_complete,
    )
