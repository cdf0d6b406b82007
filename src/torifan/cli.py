"""Command line interface.

Exit codes: 0 success, 1 verification failure (an exact theorem check did
not hold), 2 usage or input errors, among them a fan that is not Fano
given to a command whose report carries eps, beta or a score.  All reports
are deterministic: same input, byte-identical output.  Each command
imports its own modules: ``validate`` loads ``jsonio`` and ``toric`` alone.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from torifan import jsonio, toric
from torifan.catalog import load_catalog
from torifan.errors import ParseError, TorifanError, VerificationError, format_rationals


def _write(text: str, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(report, args):
    """Write ``report`` as ``args.format`` asks; exit code 0."""
    if args.format == "json":
        _write(jsonio.dumps(report.json_dict()), args.out)
    else:
        _write(report.csv_text(), args.out)
    return 0


def _emit_record(record, csv_header, args):
    """Write one report record as ``args.format`` asks; exit code 0."""
    from torifan import harness
    if args.format == "json":
        _write(jsonio.dumps(record), args.out)
    else:
        _write(harness.render_records(csv_header, [record]), args.out)
    return 0


def _load_fano(path):
    """The fan in file ``path``, refused (NotFano) unless -K is ample: the
    commands that report eps, beta or a score need the theorem's case."""
    variety = jsonio.load_fan(path)
    toric.require_fano(variety, path)
    return variety


def _divisor_from_args(variety, args):
    if getattr(args, "divisor", None):
        return jsonio.load_divisor(args.divisor, variety)
    return variety.anticanonical()


def _parse_flag(variety, text):
    """--flag CONE or --flag CONE:r0,r1,... (a permutation of the cone)."""
    from torifan.okounkov import FlagSpec, default_flag
    head, sep, tail = text.partition(":")
    try:
        cone_index = int(head)
    except ValueError:
        raise ParseError(f"bad flag spec {text!r}: cone index must be an integer")
    if not sep:
        return default_flag(variety, cone_index)
    try:
        order = tuple(int(part) for part in tail.split(","))
    except ValueError:
        raise ParseError(f"bad flag spec {text!r}: ray order must be integers")
    return FlagSpec(variety, cone_index, order)


def _cmd_validate(args):
    variety = jsonio.load_fan(args.fan)
    payload = {
        "name": variety.name,
        **jsonio.fan_to_dict(variety),
        "n_walls": len(variety.walls),
        "anticanonical_ample": variety.anticanonical().is_ample(),
        "valid": True,
    }
    _write(jsonio.dumps(payload), args.out)
    return 0


def _cmd_invariants(args):
    from torifan import harness, invariants
    variety = _load_fano(args.fan)
    record = harness.invariant_record(
        invariants.score(_divisor_from_args(variety, args))
    )
    return _emit_record(record, harness.INVARIANTS_CSV, args)


def _cmd_sweep(args):
    from torifan import harness
    from torifan.sweep import sweep_ample_cone
    variety = _load_fano(args.fan)
    harness.require_count("samples cap", args.samples_cap, 0)
    cap = args.samples_cap if args.include_samples else 0
    result = sweep_ample_cone(variety, args.resolution, collect_cap=cap)
    record = harness.sweep_record(result)
    if args.include_samples:
        record["sample_reports_complete"] = result.sample_reports_complete
        record["sample_reports"] = [
            harness.invariant_record(rep) for rep in result.sample_reports
        ]
    return _emit_record(record, harness.SWEEP_CSV, args)


def _cmd_blowup(args):
    from torifan import harness
    variety = _load_fano(args.fan)
    divisor = _divisor_from_args(variety, args)
    report = harness.blowup_command(
        variety, args.cone, divisor, samples=args.samples
    )
    return _emit(report, args)


def _cmd_okounkov(args):
    from torifan import harness
    variety = jsonio.load_fan(args.fan)
    divisor = _divisor_from_args(variety, args)
    flag = _parse_flag(variety, args.flag) if args.flag else None
    translations = [jsonio.parse_rational(t) for t in args.check_translation]
    report = harness.okounkov_command(
        variety, divisor, flag=flag, translations=translations,
        samples=args.samples,
    )
    return _emit(report, args)


def _cmd_verify(args):
    from torifan import harness
    catalog = load_catalog(args.catalog)
    report = harness.verify_theorem(catalog, args.resolution)
    return _emit(report, args)


def _cmd_gap(args):
    from torifan import harness
    catalog = load_catalog(args.catalog)
    report = harness.gap_report(
        catalog, args.resolution, dimension=args.dimension
    )
    return _emit(report, args)


def _add_divisor_options(sub):
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--divisor", help="divisor coefficient JSON file")
    group.add_argument(
        "--anticanonical",
        action="store_true",
        help="use the anticanonical divisor (default)",
    )


def _add_common(sub, default_format=None):
    sub.add_argument("--out", help="write output to this path instead of stdout")
    if default_format:
        sub.add_argument("--format", choices=("csv", "json"), default=default_format)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torifan",
        description="exact verification toolkit for toric Fano inequalities",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="validate a fan file")
    p.add_argument("fan")
    _add_common(p)
    p.set_defaults(handler=_cmd_validate)

    p = subs.add_parser("invariants", help="exact invariants of one class")
    p.add_argument("fan")
    _add_divisor_options(p)
    _add_common(p, "json")
    p.set_defaults(handler=_cmd_invariants)

    p = subs.add_parser("sweep", help="score sweep over the ample cone")
    p.add_argument("fan")
    p.add_argument("--resolution", type=int, required=True)
    p.add_argument("--include-samples", action="store_true")
    p.add_argument("--samples-cap", type=int, default=512)
    _add_common(p, "json")
    p.set_defaults(handler=_cmd_sweep)

    p = subs.add_parser("blowup", help="Fujita profile at a fixed point")
    p.add_argument("fan")
    p.add_argument("--cone", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)
    _add_divisor_options(p)
    _add_common(p, "csv")
    p.set_defaults(handler=_cmd_blowup)

    p = subs.add_parser("okounkov", help="Okounkov body of a big class")
    p.add_argument("fan")
    p.add_argument(
        "--flag",
        help="CONE or CONE:r0,r1,... choosing the flag at a fixed point",
    )
    p.add_argument(
        "--check-translation",
        action="append",
        default=[],
        metavar="T",
        help="verify the truncation-translation identity at t = T",
    )
    p.add_argument("--samples", type=int, default=32)
    _add_divisor_options(p)
    _add_common(p, "json")
    p.set_defaults(handler=_cmd_okounkov)

    p = subs.add_parser(
        "verify-theorem", help="sweep the catalog against the (n+1)^n bound"
    )
    p.add_argument("--catalog", help="directory of fan JSON files")
    p.add_argument("--resolution", type=int, required=True)
    _add_common(p, "csv")
    p.set_defaults(handler=_cmd_verify)

    p = subs.add_parser(
        "gap-report", help="empirical score gap of non-P^n entries"
    )
    p.add_argument("--catalog", help="directory of fan JSON files")
    p.add_argument("--resolution", type=int, required=True)
    p.add_argument("--dimension", type=int, default=None)
    _add_common(p, "csv")
    p.set_defaults(handler=_cmd_gap)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use; parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except VerificationError as exc:
        parts = [f"variety {exc.variety}"] if exc.variety else []
        if exc.sample is not None:
            parts.append(f"sample {format_rationals(exc.sample)}")
        where = f" ({', '.join(parts)})" if parts else ""
        print(f"verification failure: {exc}{where}", file=sys.stderr)
        return 1
    except (TorifanError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
