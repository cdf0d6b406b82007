"""Time each CLI subcommand as a fresh process, as a user starts it.

Runs every subcommand on the bundled catalog (its P2 file for the
one-fan commands) in a new interpreter per run, as the ``torifan``
console script does, and times the whole process from outside.  Start-up
is most of that time: the interpreter, the imports and loading the input.

Each run is timed in two modes:

- ``compile``: ``PYTHONDONTWRITEBYTECODE=1`` with no bytecode cache, so
  every start compiles the package's modules;
- ``cached``: bytecode written once by an untimed warm-up run, then read.

The package is copied to a temporary directory per tree and mode, so the
trees themselves gain no ``__pycache__``.  With ``--against TREE`` (another
checkout's root) every run is paired with the same run on that tree, the
order alternating from pair to pair.  The table shows per subcommand and
mode the median and quartiles of the wall times in ms, and with
``--against`` the other tree's, the ratio of the medians and in how many
pairs this tree was faster.  The run exits non-zero if any command fails.

    python3 benchmarks/bench_cli.py --repeat 15
    python3 benchmarks/bench_cli.py --repeat 15 --against ../parent
"""

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FAN = str(ROOT / "src" / "torifan" / "data" / "catalog" / "p2.json")
COMMANDS = {
    "validate": ["validate", FAN],
    "invariants": ["invariants", FAN],
    "sweep": ["sweep", FAN, "--resolution", "3"],
    "blowup": ["blowup", FAN, "--cone", "0"],
    "okounkov": ["okounkov", FAN],
    "verify-theorem": ["verify-theorem", "--resolution", "2"],
    "gap-report": ["gap-report", "--resolution", "2"],
}
MODES = ("compile", "cached")
# what the ``torifan`` console script runs
SCRIPT = "import sys; from torifan.cli import main; sys.exit(main())"


def package_copy(tree, scratch, label):
    """A copy of ``tree``'s src directory without bytecode, under scratch."""
    dest = Path(scratch) / label
    shutil.copytree(
        Path(tree) / "src", dest, ignore=shutil.ignore_patterns("__pycache__")
    )
    return str(dest)


def environment(src, mode):
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("TORIFAN_CATALOG", None)  # the bundled catalog, not a user's
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if mode == "compile":
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def timed_run(argv, env):
    """Seconds for one fresh process of ``argv``; exits on failure."""
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, *argv],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        sys.exit(f"torifan {' '.join(argv)} exited {done.returncode}: {done.stderr}")
    return elapsed


def quartiles(times):
    """(first quartile, median, third quartile) in ms."""
    ms = [t * 1000 for t in times]
    if len(ms) < 2:
        return ms[0], ms[0], ms[0]
    return tuple(statistics.quantiles(ms, n=4, method="inclusive"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=15)
    parser.add_argument("--against", help="root of another checkout to pair with")
    args = parser.parse_args(argv)

    trees = [("this", ROOT)] + ([("against", args.against)] if args.against else [])
    times = {}  # (tree label, mode, command) -> list of seconds
    with tempfile.TemporaryDirectory(prefix="bench-cli-") as scratch:
        envs = {
            (label, mode): environment(
                package_copy(tree, scratch, f"{label}-{mode}"), mode
            )
            for label, tree in trees
            for mode in MODES
        }
        for label, _ in trees:  # the cached mode's bytecode
            for command in COMMANDS.values():
                timed_run(command, envs[label, "cached"])
        for i in range(args.repeat):
            for mode in MODES:
                for name, command in COMMANDS.items():
                    order = trees if i % 2 == 0 else trees[::-1]
                    for label, _ in order:
                        elapsed = timed_run(command, envs[label, mode])
                        times.setdefault((label, mode, name), []).append(elapsed)

    header = f"{'mode':<8} {'command':<15} {'median':>8} {'q1':>8} {'q3':>8}"
    if args.against:
        header += f" {'against':>8} {'q1':>8} {'q3':>8} {'ratio':>6} {'faster':>7}"
    print(header + "   (ms)")
    for mode in MODES:
        for name in COMMANDS:
            mine = times["this", mode, name]
            q1, med, q3 = quartiles(mine)
            line = f"{mode:<8} {name:<15} {med:>8.1f} {q1:>8.1f} {q3:>8.1f}"
            if args.against:
                theirs = times["against", mode, name]
                t1, tmed, t3 = quartiles(theirs)
                wins = sum(a < b for a, b in zip(mine, theirs))
                line += f" {tmed:>8.1f} {t1:>8.1f} {t3:>8.1f} {med / tmed:>6.2f}"
                line += f" {wins:>3}/{len(mine)}"
            print(line)


if __name__ == "__main__":
    main()
