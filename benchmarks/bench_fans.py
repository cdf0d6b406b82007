"""Time the fan layer: validate_fan plus the sweep tables, per fan.

Validates every chosen catalog fan and every level of seeded blow-up
towers from its rays and cones, then builds its sweep tables with
``sweep.build_skeleton`` (the curve rows, the triangulation, the class rows
and the class maps with their automorphism search), on a fresh variety per
repeat so that no cached table answers.  Prints one row per fan with the
best-of-``--repeat`` time of each step and of both together, then the
totals.

    python3 benchmarks/bench_fans.py --repeat 5

``--strips K ...`` instead runs ``torifan validate`` in a fresh process
per repeat on each smooth complete surface of 2K + 4 rays
(tests/big_fans.py, far from Fano), and prints the best time of the
command inside the process, the best time of the whole process and the
largest peak RSS the process reports for itself.  The processes inherit
the environment, so ``PYTHONPATH`` picks the package they time:

    python3 benchmarks/bench_fans.py --strips 500 1000 2000 --repeat 3
"""

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from torifan import catalog, sweep, toric

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from big_fans import strip_surface  # noqa: E402

# run in the fresh process: validate the fan in argv[1], then report the
# exit code, the command's seconds and the process's own peak RSS in KB
STRIP_SCRIPT = (
    "import os, resource, sys, time\n"
    "from torifan import cli\n"
    "t0 = time.perf_counter()\n"
    "rc = cli.main(['validate', sys.argv[1], '--out', os.devnull])\n"
    "t = time.perf_counter() - t0\n"
    "print(rc, t, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
)

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
    """Best validate_fan and sweep-table times on fresh copies of a fan."""
    t_valid = t_tables = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fresh = toric.validate_fan(
            variety.dim, variety.rays, variety.max_cones, variety.name
        )
        t1 = time.perf_counter()
        sweep.build_skeleton(fresh)
        t2 = time.perf_counter()
        t_valid = min(t_valid, t1 - t0)
        t_tables = min(t_tables, t2 - t1)
    return t_valid, t_tables


def validate_strip(fan):
    """``(command s, process s, peak RSS MB)`` of one fresh process that
    validates the fan file ``fan``; exits on failure."""
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", STRIP_SCRIPT, fan], capture_output=True, text=True
    )
    elapsed = time.perf_counter() - t0
    fields = done.stdout.split()
    if done.returncode != 0 or fields[:1] != ["0"]:
        sys.exit(f"validate {fan} failed ({done.returncode}): {done.stderr}")
    return float(fields[1]), elapsed, int(fields[2]) / 1024


def strips(ks, repeat):
    """Print one row per strip surface: rays, best times, largest peak."""
    print(f"{'rays':>6} {'validate (s)':>13} {'process (s)':>12} {'peak RSS (MB)':>14}")
    with tempfile.TemporaryDirectory() as scratch:
        for k in ks:
            data = strip_surface(k)
            fan = os.path.join(scratch, f"strip{k}.json")
            with open(fan, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            inner, outer, peak = zip(*(validate_strip(fan) for _ in range(repeat)))
            inner, outer, peak = min(inner), min(outer), max(peak)
            print(f"{len(data['rays']):>6} {inner:>13.3f} {outer:>12.3f} {peak:>14.1f}")


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
    parser.add_argument(
        "--strips",
        type=int,
        nargs="+",
        default=None,
        help="validate the surfaces of 2K + 4 rays in fresh processes instead",
    )
    args = parser.parse_args(argv)
    if args.strips:
        strips(args.strips, args.repeat)
        return

    entries = {v.name: v for v in catalog.bundled_catalog()}
    chosen = [entries[name] for name in args.varieties or entries]
    chosen += towers(random.Random(args.seed))

    header = f"{'fan':<10} {'rays':>4} {'cones':>5}"
    header += f" {'validate (s)':>13} {'tables (s)':>13} {'both (s)':>10}"
    print(header)
    total_valid = total_tables = 0.0
    for variety in chosen:
        t_valid, t_tables = best_of(variety, args.repeat)
        total_valid += t_valid
        total_tables += t_tables
        line = f"{variety.name:<10} {variety.n_rays:>4} {len(variety.max_cones):>5}"
        line += f" {t_valid:>13.6f} {t_tables:>13.6f} {t_valid + t_tables:>10.6f}"
        print(line)
    line = f"{'total':<10} {'':>4} {'':>5}"
    line += f" {total_valid:>13.6f} {total_tables:>13.6f}"
    line += f" {total_valid + total_tables:>10.6f}"
    print(line)


if __name__ == "__main__":
    main()
