"""Time ratgeom.enumerate_vertices, its Fraction oracle and the cone table.

Enumerates the section polytope of -K and of seeded ample classes on every
chosen catalog fan, once with ``ratgeom.enumerate_vertices`` and once with
the Fraction enumeration it reduces (tests/vertex_oracle.py), each on a
fresh ``Polytope`` per repeat so that no vertex cache answers.  A third
column reads the same vertices off the cone table, as
``TDivisor.section_polytope()`` does for a nef class: the nef test,
``ToricVariety.nef_vertex_points`` and ``ratgeom.fill_vertices``, then the
same Fraction tuples.  All three must agree.  Prints one row per (variety,
class) with the three times and the oracle's time as a multiple of
enumerate_vertices', then the totals.

    python3 benchmarks/bench_vertices.py --repeat 3 --classes 4
"""

import argparse
import random
import sys
import time
from pathlib import Path

from torifan import catalog, ratgeom
from torifan.ratgeom import Polytope

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from vertex_oracle import fraction_vertices  # noqa: E402


def best_of(run, poly, repeat):
    times = []
    verts = None
    for _ in range(repeat):
        fresh = Polytope(poly.ambient_dim, poly.rows)
        t0 = time.perf_counter()
        verts = run(fresh)
        times.append(time.perf_counter() - t0)
    return min(times), verts


def ample_classes(rng, variety, count):
    """-K and ``count`` seeded ample classes with coefficients in 1..4."""
    out = [variety.anticanonical()]
    while len(out) <= count:
        d = variety.divisor([rng.randint(1, 4) for _ in range(variety.n_rays)])
        if d.is_ample():
            out.append(d)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--classes", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--varieties",
        nargs="+",
        default=None,
        help="catalog names; defaults to every bundled fan",
    )
    args = parser.parse_args(argv)

    entries = {v.name: v for v in catalog.bundled_catalog()}
    chosen = [entries[name] for name in args.varieties or entries]
    rng = random.Random(args.seed)

    header = f"{'variety':<10} {'class':>5} {'vertices':>8}"
    header += f" {'enumerate (s)':>14} {'Fraction (s)':>13} {'ratio':>8}"
    header += f" {'cone table (s)':>15}"
    print(header)
    total_new = total_old = total_table = 0.0
    for variety in chosen:
        for k, divisor in enumerate(ample_classes(rng, variety, args.classes)):

            def cone_table(fresh):
                if not divisor.is_nef():
                    raise SystemExit(f"{variety.name} class {k} is not nef")
                points = variety.nef_vertex_points(divisor.coeffs)
                return ratgeom.enumerate_vertices(ratgeom.fill_vertices(fresh, *points))

            poly = divisor.section_polytope()
            t_new, verts = best_of(ratgeom.enumerate_vertices, poly, args.repeat)
            t_old, oracle = best_of(fraction_vertices, poly, args.repeat)
            t_table, table = best_of(cone_table, poly, args.repeat)
            if not verts == oracle == table:
                raise SystemExit(
                    f"enumerate_vertices, the oracle and the cone table disagree "
                    f"on {variety.name} class {k}"
                )
            total_new += t_new
            total_old += t_old
            total_table += t_table
            line = f"{variety.name:<10} {k:>5} {len(verts):>8}"
            line += f" {t_new:>14.5f} {t_old:>13.5f} {t_old / t_new:>7.1f}x"
            line += f" {t_table:>15.5f}"
            print(line)
    line = f"{'total':<10} {'':>5} {'':>8}"
    line += f" {total_new:>14.5f} {total_old:>13.5f} {total_old / total_new:>7.1f}x"
    line += f" {total_table:>15.5f}"
    print(line)


if __name__ == "__main__":
    main()
