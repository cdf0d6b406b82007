"""Time the sweep engine and its point-by-point oracle; check they agree.

Runs the same ample-cone sweep through the engine (torifan._sweep_pure) and
the point-by-point oracle it reduces (tests/sweep_oracle.py), and prints
one row per (variety, resolution) with both times, the oracle's time as a
multiple of the engine's, and how many times each run called the exact
evaluator ``_evaluate``.  The defaults are every surface plus P3 and
P1xP1xP1, the 3-fold whose automorphism group acts on classes.

    python3 benchmarks/bench_sweep.py --resolutions 3 5 8 --repeat 3

``--engine-only`` times the engine alone, without the oracle or its check,
for sizes the point-by-point walk cannot reach in reasonable time:

    python3 benchmarks/bench_sweep.py --engine-only --varieties Bl3P2 \
        --resolutions 12 16 --repeat 1
    python3 benchmarks/bench_sweep.py --engine-only --varieties P1 \
        --resolutions 1024 4096 --repeat 1
"""

import argparse
import sys
import time
from pathlib import Path

from torifan import _sweep_pure, catalog, sweep

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import sweep_oracle  # noqa: E402


def counting(module):
    """Wrap ``module._evaluate`` so that each call is counted in a list."""
    evaluate = module._evaluate
    calls = []

    def counted(variety, c):
        calls.append(None)
        return evaluate(variety, c)

    module._evaluate = counted
    return calls


def best_of(run, args, repeat, calls):
    """Least time of ``repeat`` runs, the result and the calls of one run."""
    times = []
    raw = None
    for _ in range(repeat):
        calls.clear()
        t0 = time.perf_counter()
        raw = run(*args)
        times.append(time.perf_counter() - t0)
    return min(times), raw, len(calls)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--resolutions", type=int, nargs="+", default=[3, 5, 8]
    )
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument(
        "--engine-only",
        action="store_true",
        help="time the engine alone: no point-by-point oracle, no check",
    )
    parser.add_argument(
        "--varieties",
        nargs="+",
        default=None,
        help="catalog names; defaults to every surface plus P3 and P1xP1xP1",
    )
    args = parser.parse_args(argv)

    entries = {v.name: v for v in catalog.bundled_catalog()}
    if args.varieties:
        chosen = [entries[name] for name in args.varieties]
    else:
        chosen = catalog.surface_catalog() + [entries["P3"], entries["P1xP1xP1"]]

    pure_calls = counting(_sweep_pure)
    oracle_calls = counting(sweep_oracle)
    header = f"{'variety':<10} {'res':>4} {'pure (s)':>10}"
    if args.engine_only:
        header += f" {'pure evals':>11}"
    else:
        header += f" {'pointwise (s)':>14} {'ratio':>8}"
        header += f" {'pure evals':>11} {'pointwise evals':>16}"
    print(header)
    for variety in chosen:
        sweep.build_skeleton(variety)
        for resolution in args.resolutions:
            t_pure, raw, n_pure = best_of(
                _sweep_pure.run_sweep,
                (variety, resolution, 0),
                args.repeat,
                pure_calls,
            )
            line = f"{variety.name:<10} {resolution:>4} {t_pure:>10.4f}"
            if args.engine_only:
                print(f"{line} {n_pure:>11}")
                continue
            t_pt, raw_pt, n_pt = best_of(
                sweep_oracle.pointwise_sweep,
                (variety.wall_rows, variety, resolution, 0),
                args.repeat,
                oracle_calls,
            )
            if raw != raw_pt:
                raise SystemExit(
                    f"pure engine and oracle disagree on {variety.name} "
                    f"at resolution {resolution}"
                )
            line += f" {t_pt:>14.4f} {t_pt / t_pure:>7.1f}x"
            line += f" {n_pure:>11} {n_pt:>16}"
            print(line)


if __name__ == "__main__":
    main()
