"""Time okounkov.slice_profile and its per-node oracle; check they agree.

Builds the Okounkov body of -K at every flag cone of the chosen fans, runs
``okounkov.slice_profile`` and the per-node construction it reduces
(tests/slice_oracle.py) on it, and prints one row per (variety, cone) with
both times and the oracle's time as a multiple of slice_profile's.

With ``--reports`` it times the report layer instead: one
``harness.blowup_command`` (100 samples) and one ``harness.okounkov_command``
(32 samples) on -K at cone 0 of each chosen fan, one row per variety.  The
next columns time ``okounkov.okounkov_body`` of the same class and flag
(the integer affine image of its section polytope), then the Sturm
certificates of the two profiles: ``inequality_certificate`` and
``monotone_certificate`` of the volume profile and
``okounkov.bm_concavity_check`` of the slice profile.  The last times
rendering both reports (``json_dict`` and ``jsonio.dumps``, which writes
each table as one ``jsonio.Table``); the run exits non-zero if that JSON,
or the CSV, differs from the rendering by ``format_rational`` and
``json.dumps`` of the Fraction rows that tests/test_report_tables.py
rebuilds on its own.

    python3 benchmarks/bench_profiles.py --repeat 3
    python3 benchmarks/bench_profiles.py --repeat 5 --reports
"""

import argparse
import json
import sys
import time
from pathlib import Path

from torifan import catalog, harness, invariants, jsonio, okounkov

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from slice_oracle import nodewise_slice_profile  # noqa: E402
from test_report_tables import (  # noqa: E402
    formatted,
    reference_blowup_rows,
    reference_slice_rows,
)


def best_of(run, repeat):
    """Least time of ``repeat`` calls of run() and the last result."""
    times = []
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - t0)
    return min(times), result


def bench_slices(chosen, repeat):
    header = f"{'variety':<10} {'cone':>4} {'slice_profile (s)':>18}"
    header += f" {'per-node (s)':>13} {'ratio':>8}"
    print(header)
    for variety in chosen:
        divisor = variety.anticanonical()
        for cone_index in range(len(variety.max_cones)):
            body = okounkov.okounkov_body(
                divisor, okounkov.default_flag(variety, cone_index)
            )
            t_new, profile = best_of(lambda: okounkov.slice_profile(body), repeat)
            t_old, oracle = best_of(lambda: nodewise_slice_profile(body), repeat)
            if profile != oracle:
                raise SystemExit(
                    f"slice_profile and the oracle disagree on {variety.name} "
                    f"at cone {cone_index}"
                )
            line = f"{variety.name:<10} {cone_index:>4} {t_new:>18.4f}"
            line += f" {t_old:>13.4f} {t_old / t_new:>7.1f}x"
            print(line)


def certify(volume, slices):
    return (
        volume.inequality_certificate(),
        volume.monotone_certificate(),
        okounkov.bm_concavity_check(slices),
    )


BLOWUP_SAMPLES, SLICE_SAMPLES = 100, 32
BLOWUP_COLUMNS = ("x", "volume", "lower_bound", "margin")
# per report: the JSON key of its table and the table's columns in JSON and
# in CSV
TABLES = {
    harness.BlowupReport: ("rows", BLOWUP_COLUMNS, BLOWUP_COLUMNS),
    harness.OkounkovReport: ("slice_samples", ("r", "area"), ("r", "slice_area")),
}


def render(report):
    return jsonio.dumps(report.json_dict())


def check_rendering(report, rows, name):
    """Exit unless the report renders as the Fraction ``rows`` do."""
    key, columns, csv_columns = TABLES[type(report)]
    cells = formatted(rows)
    payload = report.json_dict()
    payload[key] = [dict(zip(columns, row)) for row in cells]
    csv_text = harness.render_csv(csv_columns, cells)
    if render(report) != json.dumps(payload, indent=2) + "\n":
        raise SystemExit(f"{key} JSON differs from its Fraction rendering on {name}")
    if report.csv_text() != csv_text:
        raise SystemExit(f"{key} CSV differs from its Fraction rendering on {name}")


def bench_reports(chosen, repeat):
    header = f"{'variety':<10} {'blowup (s)':>11} {'rows':>5}"
    header += f" {'okounkov (s)':>13} {'rows':>5} {'body (s)':>9}"
    header += f" {'certificates (s)':>17} {'render (s)':>11}"
    print(header)
    total = bodies = certificates = rendering = 0.0
    for variety in chosen:
        divisor = variety.anticanonical()
        t_blowup, blowup = best_of(
            lambda: harness.blowup_command(
                variety, 0, divisor, samples=BLOWUP_SAMPLES
            ),
            repeat,
        )
        t_body, body = best_of(
            lambda: harness.okounkov_command(
                variety, divisor, samples=SLICE_SAMPLES
            ),
            repeat,
        )
        volume, _ = invariants.fujita_profile(variety, 0, divisor)
        flag = okounkov.default_flag(variety, 0)
        t_okb, okb = best_of(lambda: okounkov.okounkov_body(divisor, flag), repeat)
        slices = okounkov.slice_profile(okb)
        t_cert, verdicts = best_of(lambda: certify(volume, slices), repeat)
        if not all(verdicts):
            raise SystemExit(f"a certificate failed on {variety.name}")
        t_render, _ = best_of(lambda: (render(blowup), render(body)), repeat)
        blowup_rows = reference_blowup_rows(volume, BLOWUP_SAMPLES)
        slice_rows = reference_slice_rows(slices, SLICE_SAMPLES)
        check_rendering(blowup, blowup_rows, variety.name)
        check_rendering(body, slice_rows, variety.name)
        total += t_blowup + t_body
        bodies += t_okb
        certificates += t_cert
        rendering += t_render
        line = f"{variety.name:<10} {t_blowup:>11.4f} {len(blowup.values):>5}"
        line += f" {t_body:>13.4f} {len(body.values):>5} {t_okb:>9.4f}"
        line += f" {t_cert:>17.4f} {t_render:>11.4f}"
        print(line)
    line = f"{'total':<10} {total:>11.4f}{'':>26} {bodies:>9.4f}"
    print(line + f" {certificates:>17.4f} {rendering:>11.4f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument(
        "--varieties",
        nargs="+",
        default=None,
        help="catalog names; defaults to every fan of dimension 2 to 4",
    )
    parser.add_argument(
        "--reports",
        action="store_true",
        help="time blowup and okounkov reports on -K at cone 0 instead",
    )
    args = parser.parse_args(argv)

    entries = {v.name: v for v in catalog.bundled_catalog()}
    if args.varieties:
        chosen = [entries[name] for name in args.varieties]
    else:
        chosen = [v for v in entries.values() if 2 <= v.dim <= 4]
    (bench_reports if args.reports else bench_slices)(chosen, args.repeat)


if __name__ == "__main__":
    main()
