"""Time the fan layer: validate_fan plus build_skeleton, per fan.

Validates every chosen catalog fan and every level of seeded blow-up
towers from its rays and cones, then builds its sweep skeleton, on a fresh
variety per repeat so that no cached table answers.  Prints one row per fan
with the best-of-``--repeat`` time of each step and of both together, then
the totals.

    python3 benchmarks/bench_fans.py --repeat 5
"""

import argparse
import random
import time

from torifan import catalog, sweep, toric

TOWER_STARTS = (
    (catalog.projective_space(2), 3),
    (catalog.hirzebruch_one(), 2),
    (catalog.projective_space(3), 2),
    (catalog.p1_power(3), 2),
    (catalog.projective_space(4), 2),
)


def towers(rng):
    """Each level of blow-ups at seeded fixed points of TOWER_STARTS."""
    out = []
    for start, depth in TOWER_STARTS:
        x = start
        for level in range(1, depth + 1):
            x = toric.blowup_at_fixed_point(x, rng.randrange(len(x.max_cones))).result
            x.name = f"{start.name}+{level}"
            out.append(x)
    return out


def best_of(variety, repeat):
    """Best validate_fan and build_skeleton times on fresh copies of a fan."""
    t_valid = t_skel = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fresh = toric.validate_fan(
            variety.dim, variety.rays, variety.max_cones, variety.name
        )
        t1 = time.perf_counter()
        sweep.build_skeleton(fresh)
        t2 = time.perf_counter()
        t_valid = min(t_valid, t1 - t0)
        t_skel = min(t_skel, t2 - t1)
    return t_valid, t_skel


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5)
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
    chosen += towers(random.Random(args.seed))

    header = f"{'fan':<10} {'rays':>4} {'cones':>5}"
    header += f" {'validate (s)':>13} {'skeleton (s)':>13} {'both (s)':>10}"
    print(header)
    total_valid = total_skel = 0.0
    for variety in chosen:
        t_valid, t_skel = best_of(variety, args.repeat)
        total_valid += t_valid
        total_skel += t_skel
        line = f"{variety.name:<10} {variety.n_rays:>4} {len(variety.max_cones):>5}"
        line += f" {t_valid:>13.6f} {t_skel:>13.6f} {t_valid + t_skel:>10.6f}"
        print(line)
    line = f"{'total':<10} {'':>4} {'':>5}"
    line += f" {total_valid:>13.6f} {total_skel:>13.6f}"
    line += f" {total_valid + total_skel:>10.6f}"
    print(line)


if __name__ == "__main__":
    main()
