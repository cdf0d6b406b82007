"""Exact invariants of polarized smooth toric Fano varieties.

Everything reduces to rational convex geometry on the section polytope:

* the Seshadri constant is a minimum of wall ratios,
* the expected vanishing order along a ray divisor is a barycenter pairing,
* the stability threshold delta is the reciprocal of the largest expected
  vanishing order over the rays,
* a volume profile x -> vol(D - x*E) is n! vol(Delta intersect {nu_1 >= x})
  for the Okounkov body Delta flagged from E (Lazarsfeld-Mustata), read off
  Delta's exact piecewise polynomial slice areas.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import pairwise
from math import factorial
from typing import NamedTuple

from torifan import _sweep_pure, okounkov, ratpoly
from torifan.errors import VerificationError
from torifan.ratgeom import scale_to_integers
from torifan.toric import (
    TDivisor,
    ToricVariety,
    blowup_at_fixed_point,
    pullback,
    require_ample,
    require_big,
    require_nef,
)


def seshadri_constant(divisor: TDivisor) -> Fraction:
    """sup{mu : -K - mu*D nef}: least wall ratio (-K.C)/(D.C).

    Proof.  The wall curves span the Mori cone (Cox-Little-Schenck,
    *Toric Varieties*, 2011, 6.3; the toric Kleiman criterion, Theorem
    6.3.12, as ``ToricVariety.nef_vertex_points`` cites), so -K - mu*D is
    nef iff (-K - mu*D).C = -K.C - mu D.C >= 0 on every wall curve C.  An
    ample D has D.C > 0 on every curve, so each wall allows exactly
    mu <= (-K.C)/(D.C), and the supremum is the least of these ratios.

    -K.C = 2 + sum(relation) (torifan.toric), and D.C = x / lam for the
    scaled wall values x of D, all positive as D is ample."""
    require_ample(divisor)
    walls = divisor.variety.walls
    lam, values = divisor.variety.scaled_wall_values(divisor.coeffs)
    return lam * min(Fraction(2 + sum(w.relation), x) for w, x in zip(walls, values))


def delta_from_barycenter(divisor: TDivisor, center):
    """Stability threshold and its witness ray, for the section polytope's
    barycenter ``center``.

    The expected vanishing order along a ray divisor is
    S(D_rho) = <center, u_rho> + a_rho.  Over the torus-invariant prime
    divisors the log discrepancy is 1, so the threshold is
    1 / max S(D_rho); ties go to the smallest ray index.
    """
    orders = [
        sum(c * u for c, u in zip(center, ray)) + a
        for ray, a in zip(divisor.variety.rays, divisor.coeffs)
    ]
    best = max(orders)
    if best <= 0:
        raise VerificationError("no positive vanishing order at the barycenter")
    return 1 / best, orders.index(best)


class InvariantReport(NamedTuple):
    """Exact invariants of one polarized variety."""

    variety: str
    dim: int
    coeffs: tuple
    vol: Fraction
    eps: Fraction
    delta: Fraction
    delta_witness_ray: int
    beta: Fraction
    score: Fraction
    bound: Fraction
    is_extremal: bool


def score(divisor: TDivisor) -> InvariantReport:
    """beta^n * vol together with everything that went into it.

    Runs the sweep's integer evaluator on lam * D, lam the lcm of the
    coefficient denominators, and unscales by the rule proven in
    torifan._sweep_pure: vol / lam^n, eps * lam, delta * lam; the score is
    scale invariant, so the evaluator's is D's.
    """
    require_ample(divisor)
    variety = divisor.variety
    n = variety.dim
    lam, c = scale_to_integers(divisor.coeffs)
    vol, eps, delta, witness, extremal, value = _sweep_pure._evaluate(variety, c)
    eps = Fraction(*eps) * lam
    delta = Fraction(*delta) * lam
    return InvariantReport(
        variety=variety.name,
        dim=n,
        coeffs=divisor.coeffs,
        vol=Fraction(vol, lam**n),
        eps=eps,
        delta=delta,
        delta_witness_ray=witness,
        beta=min(eps, delta),
        score=value,
        bound=Fraction(n + 1) ** n,
        is_extremal=extremal,
    )


# ---------------------------------------------------------------------------
# volume profiles


class VolumeProfile(
    NamedTuple(
        "VolumeProfile",
        [("dim", int), ("total", Fraction), ("breakpoints", tuple), ("pieces", tuple)],
    ),
    ratpoly.Piecewise,
):
    """x -> vol(pullback - x*E) as an exact piecewise polynomial on [0, end].

    ``breakpoints`` has one more entry than ``pieces``; piece i is valid on
    [breakpoints[i], breakpoints[i+1]].  Coefficients are Fractions, lowest
    degree first.  The last piece vanishes at the end, since
    ``vanishing_order_profile`` checks that n! int A = vol, and
    ``piece_value`` reads 0 past it.  ``total`` is the volume at x = 0.
    """

    @property
    def domain_end(self):
        return self.breakpoints[-1]

    def inequality_certificate(self) -> bool:
        """Symbolic proof that value >= vol - x^n holds on every piece.

        With vol = T/U and a piece c * P, c = c_num / c_den > 0, the
        integer polynomial U c_den (c P - (T/U - x^n)) = U c_num P -
        c_den T + U c_den x^n is a positive multiple of the piece minus the
        bound (``Piecewise.all_nonnegative``)."""
        n, t, u = self.dim, self.total.numerator, self.total.denominator

        def margin(c, P):
            out = [u * c.numerator * v for v in P] + [0] * (n + 1 - len(P))
            out[0] -= c.denominator * t
            out[n] += u * c.denominator
            return out

        return self.all_nonnegative(margin)

    def monotone_certificate(self) -> bool:
        """Symbolic proof that the profile never increases: -P' >= 0 for
        each piece c * P, c > 0, a positive multiple of -(c P)'."""
        return self.all_nonnegative(lambda c, P: [-v for v in ratpoly.derivative(P)])


def fujita_profile(variety: ToricVariety, cone_index: int, divisor: TDivisor):
    """Volume profile of the pullback minus x times the exceptional divisor.

    vol(pi^*D - xE) = n! vol(Delta intersect {nu_1 >= x}) for the Okounkov
    body Delta of pi^*D flagged from E: the vanishing-order profile of the
    pullback along E.  Returns ``(profile, blowup)``.  D must be nef and big.

    Bigness is checked once, on pi^*D by ``vanishing_order_profile``, which
    decides it for D too: the two have the same section polytope, so
    vol(pi^*D) = vol(D).  E's ray is u_E = sum of the rays u_i of the
    blown-up cone, and ``pullback`` gives it a_E = sum a_i, so every m in
    P_D has <m, u_E> + a_E = sum (<m, u_i> + a_i) >= 0: the one added row
    cuts nothing off P_D.
    """
    require_nef(divisor)
    bl = blowup_at_fixed_point(variety, cone_index)
    return vanishing_order_profile(pullback(divisor, bl), bl.e_index), bl


def vanishing_order_profile(divisor: TDivisor, ray_index: int) -> VolumeProfile:
    """Profile of x -> vol(D - x * D_ray) on the variety itself.

    vol(D - x D_ray) = n! vol(Delta intersect {nu_1 >= x}) for the Okounkov
    body Delta flagged from D_ray.  With A its slice profile and b_i the
    breakpoints, that is n! int_x^end A = vol - n! int_(b_0)^x A, once
    n! int A = vol is checked.  Delta lies in nu_1 >= 0; on [0, b_0], which
    is more than a point only if D_ray is in the base locus of D (a big
    non-nef class), the profile is the constant vol.
    """
    require_big(divisor)
    variety = divisor.variety
    if not 0 <= ray_index < variety.n_rays:
        raise ValueError(f"no ray with index {ray_index}")
    c = next(i for i, cone in enumerate(variety.max_cones) if ray_index in cone)
    rest = tuple(i for i in variety.max_cones[c] if i != ray_index)
    flag = okounkov.FlagSpec(variety, c, (ray_index,) + rest)
    slices = okounkov.slice_profile(okounkov.okounkov_body(divisor, flag))
    n_fact, vol = factorial(variety.dim), divisor.vol()
    points, pieces = list(slices.breakpoints), []
    head = Fraction(0)  # n! int A from b_0 to b_i
    for (a, b), (c, Q) in zip(pairwise(points), slices.primitives):
        c *= n_fact  # n! int_0^x A = c * Q(x)
        start = ratpoly.evaluate_primitive(c, Q, a)
        pieces.append(ratpoly.trim((vol - head + start, *(-c * v for v in Q[1:]))))
        head += ratpoly.evaluate_primitive(c, Q, b) - start
    if head != vol:
        raise VerificationError("n! times the integrated slice areas is not the volume")
    if points[0] > 0:
        points.insert(0, Fraction(0))
        pieces.insert(0, (vol,))
    profile = VolumeProfile(
        dim=variety.dim, total=vol, breakpoints=tuple(points), pieces=tuple(pieces)
    )
    if not profile.is_continuous():
        raise VerificationError("vanishing-order profile is not continuous")
    return profile


# ---------------------------------------------------------------------------
# the inequality chain at a blown-up point


def _int_nth_root(k: int, n: int) -> int:
    """Floor of the n-th root of a nonnegative integer, Newton iteration."""
    if k < 2:
        return k
    x = 1 << ((k.bit_length() + n - 1) // n)
    while True:
        y = ((n - 1) * x + k // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


def _nth_root_exact(x: Fraction, n: int):
    """Exact n-th root of a positive rational, or None."""
    p = _int_nth_root(x.numerator, n)
    q = _int_nth_root(x.denominator, n)
    if p**n == x.numerator and q**n == x.denominator:
        return Fraction(p, q)
    return None


class ChainReport(NamedTuple):
    """The comparison n >= beta*S(E) >= n*beta*vol^(1/n)/(n+1), exactly.

    ``root`` is the exact vol^(1/n) when rational, else None; the final
    comparison is still exact because it only needs n-th powers.
    """

    dim: int
    vol: Fraction
    beta: Fraction
    s_exceptional: Fraction
    log_discrepancy: Fraction
    first_holds: bool
    second_holds: bool
    all_tight: bool
    root: object

    def final_value_squared_comparison(self):
        """(n*beta*vol^(1/n)/(n+1))^n <= n^n restated without roots."""
        n = self.dim
        lhs = (Fraction(n) * self.beta / (n + 1)) ** n * self.vol
        return lhs, Fraction(n) ** n


def chain_report(profile: VolumeProfile, beta: Fraction) -> ChainReport:
    """Exact evaluation of the vanishing-order chain for one blow-up."""
    n = profile.dim
    vol = profile.total
    s_exc = profile.integral() / vol
    log_disc = Fraction(n)
    beta_s = beta * s_exc
    # beta*S >= n*beta*vol^(1/n)/(n+1), i.e. ((n+1)S/n)^n >= vol
    power = (Fraction(n + 1) * s_exc / n) ** n
    first = log_disc >= beta_s
    second = power >= vol
    if not (first and second):
        raise VerificationError(
            "vanishing-order chain failed", sample=(beta, s_exc)
        )
    root = _nth_root_exact(vol, n)
    tight = log_disc == beta_s and power == vol
    return ChainReport(
        dim=n,
        vol=vol,
        beta=beta,
        s_exceptional=s_exc,
        log_discrepancy=log_disc,
        first_holds=first,
        second_holds=second,
        all_tight=tight,
        root=root,
    )
