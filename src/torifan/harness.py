"""Catalog-wide commands: theorem verification, gap, blow-up and body reports.

Every verdict here is decided on exact rationals; decimal columns are
display only.  Reports render to CSV or JSON deterministically: fixed row
order, fixed key order, "p/q" rationals, no timestamps.

Each fact has one source.  ``gap_report`` is a view of ``verify_theorem``:
it sweeps nothing itself, so it checks the theorem both ways too, and its
entries are sweep records cut to a few keys.  Each table is formatted
once, by its report's ``cells``: the gap rows from their exact epsilons, and
the blow-up and Okounkov rows from integers alone (``Piecewise.grid`` and
``values_at``), which JSON writes as one ``jsonio.Table`` each.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from math import factorial, gcd
from typing import NamedTuple

from torifan import invariants, jsonio
from torifan.errors import ValidationError, VerificationError, format_rational
from torifan.invariants import chain_report, fujita_profile
from torifan.okounkov import (
    bm_concavity_check,
    default_flag,
    okounkov_body,
    pseff_threshold,
    slice_profile,
    translation_identity_check,
)
from torifan.toric import TDivisor, ToricVariety, is_projective_space

_fmt = format_rational
_ratio = jsonio.format_ratio
_dec = jsonio.decimal_string


def render_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _cell(value):
    return " ".join(map(str, value)) if isinstance(value, list) else value


def render_records(header, records) -> str:
    """CSV of the ``header`` keys of each record; a list cell is joined by
    spaces."""
    return render_csv(header, [[_cell(r[key]) for key in header] for r in records])


# ---------------------------------------------------------------------------
# report records: one dict per SweepResult and per InvariantReport, in key
# order, read by every JSON and CSV rendering of them

SWEEP_CSV = (
    "variety", "n", "resolution", "engine", "candidates", "ample_samples",
    "max_score", "max_score_decimal", "gap", "argmax",
)
INVARIANTS_CSV = (
    "variety", "n", "vol", "seshadri", "delta", "beta", "score",
    "score_decimal", "gap",
)


def sweep_record(result) -> dict:
    return {
        "variety": result.variety_name,
        "n": result.dim,
        "resolution": result.resolution,
        "engine": result.engine,
        "candidates": result.candidates,
        "ample_samples": result.ample_samples,
        "extremal_samples": result.extremal_samples,
        "max_score": _fmt(result.max_score),
        "max_score_decimal": _dec(result.max_score),
        "argmax": list(result.argmax_coeffs),
        "gap": _fmt(result.gap),
        "bound": result.bound,
    }


def invariant_record(rep) -> dict:
    return {
        "variety": rep.variety,
        "n": rep.dim,
        "coeffs": [_fmt(c) for c in rep.coeffs],
        "vol": _fmt(rep.vol),
        "seshadri": _fmt(rep.eps),
        "delta": _fmt(rep.delta),
        "delta_witness_ray": rep.delta_witness_ray,
        "beta": _fmt(rep.beta),
        "score": _fmt(rep.score),
        "score_decimal": _dec(rep.score),
        "bound": _fmt(rep.bound),
        "gap": _fmt(rep.bound - rep.score),
        "is_extremal": rep.is_extremal,
    }


# ---------------------------------------------------------------------------
# theorem verification and gap reports


class VerifyReport(NamedTuple):
    resolution: int
    results: tuple  # SweepResult per entry, catalog order
    projective: tuple  # matching is-P^n flags

    def entries(self):
        """Each entry's sweep record without its resolution, then whether it
        is P^n."""
        for res, pn in zip(self.results, self.projective):
            record = sweep_record(res)
            del record["resolution"]
            record["is_projective_space"] = pn
            yield record

    def csv_text(self) -> str:
        return render_records(
            ("variety", "n", "max_score", "max_score_decimal", "gap"),
            self.entries(),
        )

    def json_dict(self) -> dict:
        return {"resolution": self.resolution, "entries": list(self.entries())}


def verify_theorem(catalog, resolution: int) -> VerifyReport:
    """Sweep every entry; the bound must be met exactly on P^n alone.

    The per-sample inequalities are enforced inside the sweep engine; a
    violation surfaces as VerificationError with the offending coefficient
    vector.  An empty catalog is refused: it would pass vacuously.
    """
    from torifan.sweep import sweep_ample_cone
    if not catalog:
        raise ValidationError("verify-theorem needs at least one fan")
    results = []
    projective = []
    for variety in catalog:
        res = sweep_ample_cone(variety, resolution, collect_cap=0)
        is_pn = is_projective_space(variety)
        if is_pn and res.gap != 0:
            raise VerificationError(
                "projective space must attain the bound exactly",
                variety=variety.name,
                sample=res.argmax_coeffs,
            )
        if not is_pn and res.gap <= 0:
            raise VerificationError(
                "only projective space may attain the bound",
                variety=variety.name,
                sample=res.argmax_coeffs,
            )
        results.append(res)
        projective.append(is_pn)
    return VerifyReport(
        resolution=resolution, results=tuple(results), projective=tuple(projective)
    )


GAP_ENTRY = ("variety", "n", "max_score", "gap", "is_projective_space")
GAP_ROW = ("dimension", "epsilon", "epsilon_decimal", "achieved_by")


class GapReport(NamedTuple):
    sweep: VerifyReport  # verify_theorem of the dimension-filtered catalog
    note: str
    rows: tuple  # (dim, epsilon, achieving variety), sorted by dim

    @property
    def resolution(self) -> int:
        return self.sweep.resolution

    def cells(self):
        """The rows as (dimension, epsilon, its decimal, achieving variety)."""
        return [(dim, _fmt(eps), _dec(eps), name) for dim, eps, name in self.rows]

    def csv_text(self) -> str:
        return render_csv(
            ("dimension", "epsilon_toric", "epsilon_decimal", "achieved_by"),
            self.cells(),
        )

    def json_dict(self) -> dict:
        return {
            "resolution": self.resolution,
            "note": self.note,
            "epsilon_toric": [dict(zip(GAP_ROW, row)) for row in self.cells()],
            "entries": [
                {key: record[key] for key in GAP_ENTRY}
                for record in self.sweep.entries()
            ],
        }


def gap_report(catalog, resolution: int, dimension=None) -> GapReport:
    """Empirical volume-gap margin: per dimension, the smallest gap among the
    non-P^n entries of ``verify_theorem``'s sweep, which also holds the
    bound to equality on P^n alone.  An empty catalog is refused, as by
    ``verify_theorem``."""
    if not catalog:
        raise ValidationError("gap-report needs at least one fan")
    entries = [v for v in catalog if dimension is None or v.dim == dimension]
    if not entries:
        raise ValidationError(f"no catalog entry of dimension {dimension}")
    if all(map(is_projective_space, entries)):
        raise ValidationError(
            "gap report needs at least one entry besides projective space"
        )
    sweep = verify_theorem(entries, resolution)
    best = {}
    for res, is_pn in zip(sweep.results, sweep.projective):
        held = best.get(res.dim)
        if not is_pn and (held is None or res.gap < held[0]):
            best[res.dim] = (res.gap, res.variety_name)
    note = (
        "empirical exploration over the toric catalog at resolution "
        f"{resolution}; a lower-bound witness, not a proof"
    )
    rows = tuple((dim, *best[dim]) for dim in sorted(best))
    return GapReport(sweep=sweep, note=note, rows=rows)


# ---------------------------------------------------------------------------
# blow-up profile report


BLOWUP_ROW = ("x", "volume", "lower_bound", "margin")


class BlowupReport(NamedTuple):
    variety_name: str
    cone_index: int
    exceptional_ray: tuple
    dim: int
    vol: Fraction
    domain_end: Fraction
    breakpoints: tuple
    grid: tuple  # Piecewise.grid: (D, the sample numerators over D)
    values: tuple  # Piecewise.values_at the grid: (num, den) pairs
    margin_certified: bool
    monotone_certified: bool
    chain: object

    def cells(self):
        """The rows (x, profile value, vol - x^n, margin) as "p/q" strings,
        each cell ``format_ratio`` of its (num, den), den > 0, worked out
        inline: one gcd per cell and no Fraction.  At x = N/D, value V/W
        and vol = T/U, vol - x^n = L / (U D^n) with L = T D^n - U N^n, and
        the margin is (V U D^n - L W) / (W U D^n)."""
        den, nums = self.grid
        n, t, u = self.dim, self.vol.numerator, self.vol.denominator
        low_den, top = u * den**n, t * den**n
        out = []
        for x, (v, w) in zip(nums, self.values):
            low = top - u * x**n
            m, m_den = v * low_den - low * w, w * low_den
            g, h, k, q = gcd(x, den), gcd(v, w), gcd(low, low_den), gcd(m, m_den)
            out.append((
                f"{x // g}/{den // g}",
                f"{v // h}/{w // h}",
                f"{low // k}/{low_den // k}",
                f"{m // q}/{m_den // q}",
            ))
        return out

    def csv_text(self) -> str:
        return render_csv(BLOWUP_ROW, self.cells())

    def json_dict(self) -> dict:
        chain = self.chain
        final_lhs, final_rhs = chain.final_value_squared_comparison()
        return {
            "variety": self.variety_name,
            "cone_index": self.cone_index,
            "exceptional_ray": list(self.exceptional_ray),
            "n": self.dim,
            "vol": _fmt(self.vol),
            "domain_end": _fmt(self.domain_end),
            "breakpoints": [_fmt(b) for b in self.breakpoints],
            "margin_certified_nonnegative": self.margin_certified,
            "profile_certified_monotone": self.monotone_certified,
            "chain": {
                "log_discrepancy": _fmt(chain.log_discrepancy),
                "beta": _fmt(chain.beta),
                "s_exceptional": _fmt(chain.s_exceptional),
                "beta_times_s": _fmt(chain.beta * chain.s_exceptional),
                "first_holds": chain.first_holds,
                "second_holds": chain.second_holds,
                "all_tight": chain.all_tight,
                "vol_nth_root": None if chain.root is None else _fmt(chain.root),
                "final_comparison_nth_power": [
                    _fmt(final_lhs),
                    _fmt(final_rhs),
                ],
            },
            "rows": jsonio.Table(BLOWUP_ROW, self.cells()),
        }


# Each report table has a row per Piecewise.grid point, at least
# samples + 1 (3.1 s and 64 MB for blowup at 10^5 on P2), and a sweep scores
# each collected sample, so larger counts are refused before any work.
MAX_SAMPLES = 10**5


def require_count(name, value, least):
    """Refuse a sample count outside least..MAX_SAMPLES."""
    if not least <= value <= MAX_SAMPLES:
        raise ValidationError(f"{name} must be between {least} and {MAX_SAMPLES}")


def blowup_command(
    variety: ToricVariety,
    cone_index: int,
    divisor: TDivisor,
    samples: int = 100,
) -> BlowupReport:
    """Fujita profile at a fixed point plus the vanishing-order chain.

    A verification failure raised below without a fan names this one."""
    require_count("samples", samples, 1)
    try:
        beta = invariants.score(divisor).beta  # refuses a class that is not ample
        profile, bl = fujita_profile(variety, cone_index, divisor)
        margin_ok = profile.inequality_certificate()
        if not margin_ok:
            raise VerificationError(
                "volume profile dips below vol - x^n", sample=(cone_index,)
            )
        chain = chain_report(profile, beta)
        monotone_ok = profile.monotone_certificate()
    except VerificationError as exc:
        exc.variety = exc.variety or variety.name
        raise
    den, nums = profile.grid(samples)
    return BlowupReport(
        variety_name=variety.name,
        cone_index=cone_index,
        exceptional_ray=bl.e_ray,
        dim=profile.dim,
        vol=profile.total,
        domain_end=profile.domain_end,
        breakpoints=profile.breakpoints,
        grid=(den, tuple(nums)),
        values=tuple(profile.values_at(nums, den)),
        margin_certified=margin_ok,
        monotone_certified=monotone_ok,
        chain=chain,
    )


# ---------------------------------------------------------------------------
# Okounkov body report


class OkounkovReport(NamedTuple):
    variety_name: str
    cone_index: int
    ray_order: tuple
    vertices: tuple
    body_volume: Fraction
    divisor_volume: Fraction
    pseff: Fraction
    translation_results: tuple  # (t, verdict) pairs
    support: tuple
    concave: bool
    grid: tuple  # Piecewise.grid: (D, the sample numerators over D)
    values: tuple  # Piecewise.values_at the grid: (num, den) pairs

    def cells(self):
        """The rows as "p/q" strings, one gcd per cell and no Fraction."""
        den, nums = self.grid
        return [(_ratio(r, den), _ratio(*a)) for r, a in zip(nums, self.values)]

    def csv_text(self) -> str:
        return render_csv(("r", "slice_area"), self.cells())

    def json_dict(self) -> dict:
        return {
            "variety": self.variety_name,
            "cone_index": self.cone_index,
            "ray_order": list(self.ray_order),
            "vertices": [[_fmt(c) for c in v] for v in self.vertices],
            "body_volume": _fmt(self.body_volume),
            "divisor_volume": _fmt(self.divisor_volume),
            "volume_identity": "ok",
            "pseff_threshold": _fmt(self.pseff),
            "translation_checks": [
                {"t": _fmt(t), "verdict": "OK" if ok else "FAILED"}
                for t, ok in self.translation_results
            ],
            "support": [_fmt(self.support[0]), _fmt(self.support[1])],
            "bm_concave": self.concave,
            "slice_samples": jsonio.Table(("r", "area"), self.cells()),
        }


def okounkov_command(
    variety: ToricVariety,
    divisor: TDivisor,
    flag=None,
    translations=(),
    samples: int = 32,
) -> OkounkovReport:
    """Drive the body end to end: vertices, identities, slices, concavity.

    A verification failure raised below without a fan names this one."""
    require_count("samples", samples, 1)
    if flag is None:
        flag = default_flag(variety, 0)
    try:
        body = okounkov_body(divisor, flag)
        # the slice areas integrate to the body's volume, here checked
        # against the class volume from the triangulated section polytope
        profile = slice_profile(body)
        body_volume = profile.integral()
        if factorial(variety.dim) * body_volume != divisor.vol():
            raise VerificationError(
                "body volume does not match the divisor volume",
                sample=flag.ray_order,
            )
        checks = []
        for t in translations:
            ok = translation_identity_check(body, t)
            if not ok:
                raise VerificationError("translation identity failed", sample=(t,))
            checks.append((Fraction(t), ok))
        den, nums = profile.grid(samples)
        return OkounkovReport(
            variety_name=variety.name,
            cone_index=flag.cone_index,
            ray_order=flag.ray_order,
            vertices=body.vertices(),
            body_volume=body_volume,
            divisor_volume=divisor.vol(),
            pseff=pseff_threshold(divisor, flag),
            translation_results=tuple(checks),
            support=profile.support,
            concave=bm_concavity_check(profile),
            grid=(den, tuple(nums)),
            values=tuple(profile.values_at(nums, den)),
        )
    except VerificationError as exc:
        exc.variety = exc.variety or variety.name
        raise
