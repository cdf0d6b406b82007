"""torifan benchmark: CLI workloads with exact output checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, default seed
    python3 perfbench/run.py --write-expected    # re-record expected.json

Run from the repository root.  The program is imported from ``src/`` with
no build step, exactly as the Tier-1 tests run it, and driven in-process
through ``torifan.cli.main(argv)``.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

import spans
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(BENCH, "expected.json")
SPANS_DIR = os.path.join(ROOT, ".perfbench-out")

DEFAULT_SECONDS = 25
SETUP_REPEATS = 9
SETUP_TIMEOUT = 60
# The reference loop (reference_loop) and its time on the 2-core sandbox
# where the benchmark was written, at its fast state; timings are reported
# at this reference speed.
REFERENCE_SPINS = 8
REFERENCE_SECONDS = 0.0048

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class Unavailable(Exception):
    """The program under test cannot be imported from this checkout."""


def import_program():
    if not os.path.isfile(os.path.join(SRC, "torifan", "cli.py")):
        raise Unavailable(f"no torifan sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import torifan.cli

    where = os.path.dirname(os.path.abspath(torifan.cli.__file__))
    if where != os.path.join(SRC, "torifan"):
        raise Unavailable(f"torifan imported from {where}, not from {SRC}")
    return torifan.cli


# ---------------------------------------------------------------------------
# one op


@dataclass
class OpResult:
    seconds: float
    digest: str
    failure: str | None
    samples: int  # ample samples the output reports, if the op counts them


def run_op(cli, op, expected_digest):
    """Time one CLI call, then check its exit code, output and digest."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(buf):
            code = cli.main(op.argv)
    except (Exception, SystemExit) as exc:  # an op that raises has failed
        code = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    text = buf.getvalue()
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    failure = None
    samples = 0
    if code != 0:
        failure = f"exit {code}"
    else:
        try:
            op.check(text)
            if op.samples_key:
                samples = sum(
                    e[op.samples_key] for e in json.loads(text)["entries"]
                )
        except Exception as exc:  # noqa: BLE001 - any bad output fails the op
            failure = f"check: {type(exc).__name__}: {exc}"
    if failure is None and expected_digest and digest != expected_digest:
        failure = "output digest differs from expected.json"
    return OpResult(seconds, digest, failure, samples)


# ---------------------------------------------------------------------------
# CPU choice and the reference loop


def _spin():
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(1, i)
    return acc


def reference_loop():
    """Seconds to run ``_spin`` REFERENCE_SPINS times in a row."""
    start = time.perf_counter()
    for _ in range(REFERENCE_SPINS):
        _spin()
    return time.perf_counter() - start


def at_reference_speed(seconds, before, after):
    """``seconds`` as they would read with the reference loop at REFERENCE_SECONDS.

    ``before`` and ``after`` are reference-loop times taken on the same CPU
    just before and just after the timed work.  The sandbox's CPU speed
    changes by up to 1.8x over seconds (see README.md, "Steadiness"); work
    timed between two reference loops slows down with them, so the ratio
    cancels the change.  The loop runs no torifan code, so a change to
    torifan moves the result exactly as it moves the raw time.
    """
    return seconds * REFERENCE_SECONDS / ((before + after) / 2)


class CpuPicker:
    """Keeps this process on whichever usable CPU currently runs fastest.

    Each CPU of the sandbox slows down by up to 1.8x, independently of the
    other, for seconds at a time, when the host shares its core with other
    tenants.  Every ``interval`` seconds, between ops and outside the timed
    region, each usable CPU runs the same short exact-arithmetic loop and the
    process moves to the fastest.
    """

    def __init__(self, interval=0.25):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.interval = interval
        self.due = 0.0

    def _probe(self, cpu):
        os.sched_setaffinity(0, {cpu})
        start = time.perf_counter()
        _spin()
        return time.perf_counter() - start

    def pick(self):
        _, cpu = min((self._probe(cpu), cpu) for cpu in self.cpus)
        os.sched_setaffinity(0, {cpu})
        self.due = time.perf_counter() + self.interval

    def before_op(self):
        """Re-pick if due; returns whether the process may have moved."""
        if time.perf_counter() >= self.due:
            self.pick()
            return True
        return False

    def release(self):
        os.sched_setaffinity(0, set(self.cpus))


# ---------------------------------------------------------------------------
# set-up and environment


def measure_setup(wl, workdir, picker):
    """Seconds, in fresh interpreters, to import the CLI and load the inputs.

    Returns the median over SETUP_REPEATS interpreters, each time taken at
    the reference speed (reference loops just before and after it, on the
    CPU it ran on), and the raw times.
    """
    spec = os.path.join(workdir, "setup-spec.json")
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump({
            "catalogs": wl.setup_catalogs,
            "fans": wl.setup_fans,
            "divisors": wl.setup_divisors,
        }, fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    probe = os.path.join(BENCH, "setup_probe.py")
    times, scaled = [], []
    try:
        for _ in range(SETUP_REPEATS):
            picker.pick()  # the probe inherits the CPU it is started on
            before = reference_loop()
            done = subprocess.run(
                [sys.executable, probe, spec], env=env, cwd=ROOT,
                capture_output=True, text=True, timeout=SETUP_TIMEOUT,
            )
            after = reference_loop()
            if done.returncode != 0:
                raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
            times.append(float(done.stdout.strip().splitlines()[-1]))
            scaled.append(at_reference_speed(times[-1], before, after))
    finally:
        picker.release()
    return statistics.median(scaled), times


def environment(wl):
    """What ran, where, and how it was timed."""
    from torifan import sweep
    from torifan.catalog import load_catalog

    try:
        from torifan import _sweepcore  # noqa: F401

        compiled = True
    except ImportError:
        compiled = False
    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "sweepcore_importable": compiled,
        "TORIFAN_SWEEP_ENGINE": os.environ.get("TORIFAN_SWEEP_ENGINE"),
        "TORIFAN_CATALOG": os.environ.get("TORIFAN_CATALOG"),
        "limits": (
            "no system-wide tracing; timings are perf_counter, process_time"
            " and getrusage of this process and its set-up children only"
        ),
    }
    if wl.setup_catalogs:
        argv = wl.ops[0].argv
        res = int(argv[argv.index("--resolution") + 1])
        record["engine_selected"] = {
            v.name: sweep.select_engine(sweep.build_skeleton(v), res)
            for d in wl.setup_catalogs
            for v in load_catalog(d)
        }
    return record


# ---------------------------------------------------------------------------
# measurement


def percentile(values, q):
    """Inclusive-method percentile q in (0, 100) of at least one value."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    """Passes over one workload's ops, every output checked."""

    def __init__(self, cli, wl, expected_digests, picker, tracer=None):
        self.cli = cli
        self.wl = wl
        self.expected = expected_digests  # label -> digest; empty: gate off
        self.picker = picker
        self.tracer = tracer
        self.attempted = 0
        self.failures = []  # (label, reason)
        self.digests = {}  # (label, traced) -> digest
        self.samples = 0  # ample samples the ops of one pass report
        self.op_times = []  # op_times[p][k]: op k's seconds in untraced pass p
        self.op_scaled = []  # the same at the reference speed
        self.traced_times = []  # seconds in ops of each traced pass
        self.elapsed = 0.0
        self.cpu = 0.0

    def one_pass(self, traced):
        """Run every op once; returns each op's seconds, raw and scaled.

        An untraced op is timed between two reference loops on the same
        CPU, and scaled to the reference speed by them; the loop after one
        op is the loop before the next, unless the process moved between.
        """
        times, scaled = [], []
        ref = None
        for i, op in enumerate(self.wl.ops):
            moved = self.picker.before_op()
            if not traced and (moved or ref is None):
                ref = reference_loop()
            if traced:
                self.tracer.op_id = i
            r = run_op(self.cli, op, self.expected.get(op.label))
            if not traced:
                after = reference_loop()
                scaled.append(at_reference_speed(r.seconds, ref, after))
                ref = after
            seen = self.digests.setdefault((op.label, traced), r.digest)
            other = self.digests.get((op.label, not traced), r.digest)
            if r.failure is None and seen != r.digest:
                r.failure = "output differs between passes"
            if r.failure is None and other != r.digest:
                r.failure = "traced output differs from untraced output"
            self.attempted += 1
            if r.failure is not None:
                self.failures.append((op.label, r.failure))
            times.append(r.seconds)
            if not self.op_times:
                self.samples += r.samples
        return times, scaled

    def measure(self, seconds):
        """Warm up, then run passes until ``seconds`` would be exceeded.

        With a tracer, each untraced pass is followed by a traced one.
        """
        for argv in self.wl.warmup:
            with redirect_stdout(io.StringIO()):
                self.cli.main(argv)
        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            while True:
                times, scaled = self.one_pass(traced=False)
                self.op_times.append(times)
                self.op_scaled.append(scaled)
                if self.tracer is not None:
                    self.tracer.install()
                    try:
                        self.traced_times.append(
                            sum(self.one_pass(traced=True)[0]))
                    finally:
                        self.tracer.uninstall()
                self.elapsed = time.perf_counter() - start
                per_round = self.elapsed / len(self.op_times)
                if self.elapsed + per_round > seconds:
                    break
        finally:
            self.picker.release()
        self.cpu = time.process_time() - cpu0


def end_to_end_metrics(setup_s, op_times):
    """Timings from each op's median time over the run's passes.

    op_times[p][k] is op k's seconds in pass p; a pass's wall time is the
    sum of its ops' medians.
    """
    med = [statistics.median(times) for times in zip(*op_times)]
    wall = sum(med)
    passes = len(op_times)
    return {
        "setup_s": (setup_s, SETUP_REPEATS),
        "wall_s": (wall, passes),
        "op_p50_ms": (1000 * percentile(med, 50), passes * len(med)),
        "op_p90_ms": (1000 * percentile(med, 90), passes * len(med)),
        "ops_per_s": (len(med) / wall, passes),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
        ),
    }


def per_layer_metrics(run):
    """Per traced pass: self seconds, call counts, sweep counters; errors."""
    tracer = run.tracer
    n = len(run.traced_times)
    self_s = tracer.self_time
    calls = tracer.calls
    recheck, reports = tracer.sweep_rechecks()
    cand = tracer.candidates / n
    run_s = self_s["sweep_pure.run"] / n
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    for key, name in (
        ("catalog.load_s", "catalog.load"),
        ("toric.validate_fan_s", "toric.validate_fan"),
        ("toric.fans_isomorphic_s", "toric.fans_isomorphic"),
        ("toric.blowup_s", "toric.blowup"),
        ("sweep.skeleton_s", "sweep.skeleton"),
    ):
        put(key, self_s[name] / n, "s")
    put("sweep.skeleton_calls", calls["sweep.skeleton"] / n, "count")
    put("sweep.recheck_s", recheck / n, "s")
    put("sweep.reports_s", reports / n, "s")
    put("sweep.engine_pure", tracer.engines["pure"] / n, "count")
    put("sweep.engine_cython", tracer.engines["cython"] / n, "count")
    put("sweep_pure.run_s", run_s, "s")
    put("sweep_pure.candidates", cand, "count")
    put("sweep_pure.ample", tracer.ample / n, "count")
    put("sweep_pure.ample_ratio", tracer.ample / tracer.candidates
        if tracer.candidates else 0.0, "ratio")
    put("sweep_pure.us_per_candidate", 1e6 * run_s / cand if cand else 0.0,
        "us")
    put("invariants.score_s", self_s["invariants.score"] / n, "s")
    put("invariants.score_calls", calls["invariants.score"] / n, "count")
    for fn in ("fujita_profile", "chain_report"):
        put(f"invariants.{fn}_s", self_s[f"invariants.{fn}"] / n, "s")
    for fn in ("enumerate_vertices", "fan_triangulation", "volume"):
        put(f"ratgeom.{fn}_s", self_s[f"ratgeom.{fn}"] / n, "s")
        put(f"ratgeom.{fn}_calls", calls[f"ratgeom.{fn}"] / n, "count")
    put("ratgeom.barycenter_s", self_s["ratgeom.barycenter"] / n, "s")
    for fn in ("nonnegative_on", "interpolate"):
        put(f"ratpoly.{fn}_s", self_s[f"ratpoly.{fn}"] / n, "s")
        put(f"ratpoly.{fn}_calls", calls[f"ratpoly.{fn}"] / n, "count")
    for fn in ("body", "slice_profile", "bm_concavity", "translation_check",
               "pseff"):
        put(f"okounkov.{fn}_s", self_s[f"okounkov.{fn}"] / n, "s")
    put("harness.self_s", sum(
        v for k, v in self_s.items() if k.startswith("harness.")) / n, "s")
    put("cli.self_s", self_s["cli.main"] / n, "s")
    for name in spans.TRACED:
        put(f"{name}.errors", tracer.errors[name], "count")
    plain = [sum(times) for times in run.op_times]
    put("trace.overhead_ratio", statistics.median(run.traced_times)
        / statistics.median(plain), "ratio")
    return m


def measure(name, seed, seconds, trace, tiny=False, check_digests=True,
            out=sys.stdout):
    """Run one workload and print its report; returns (result, tracer)."""
    cli = import_program()
    expected = load_expected().get(name, {}) if check_digests else {}
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        wl = workloads.BUILDERS[name](ROOT, workdir, seed, tiny=tiny)
        gate = check_digests and (
            wl.seed_invariant or seed == workloads.DEFAULT_SEED
        )
        env = environment(wl)
        picker = CpuPicker()
        setup_s, setup_times = measure_setup(wl, workdir, picker)
        run = Run(cli, wl, expected.get("digests", {}) if gate else {},
                  picker, spans.Tracer() if trace else None)
        run.measure(seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = end_to_end_metrics(setup_s, run.op_scaled)
    raw = end_to_end_metrics(statistics.median(setup_times), run.op_times)
    print(f"workload {name} seed {seed}: {len(run.op_times)} passes of "
          f"{len(wl.ops)} ops in {run.elapsed:.2f} s "
          f"(process_time {run.cpu:.2f} s)", file=out)
    print("env " + json.dumps(env, sort_keys=True), file=out)
    if not env["sweepcore_importable"]:
        print("compiled sweep engine torifan._sweepcore is not importable: "
              "the pure engine is the one measured", file=out)
    print(f"digest gate: {'on' if gate else 'off for this seed'}", file=out)
    for label, why in run.failures:
        print(f"FAILED {label}: {why}", file=out)
    samples = run.samples or sum(expected.get("ample_samples", {}).values())
    if samples:
        print(f"samples_per_s = {samples / e2e['wall_s'][0]:.6g} 1/s"
              f" ({samples} ample samples per pass)", file=out)
    print(f"error_rate = {len(run.failures) / run.attempted:.6g}"
          f" ({len(run.failures)} of {run.attempted} ops)", file=out)

    metrics = {}
    if trace:
        path = os.path.join(SPANS_DIR, f"spans-{name}-seed{seed}.jsonl.gz")
        os.makedirs(SPANS_DIR, exist_ok=True)
        run.tracer.write_spans(path)
        print(f"{len(run.tracer.spans)} spans written to "
              f"{os.path.relpath(path, ROOT)}", file=out)
        for key, (value, unit) in per_layer_metrics(run).items():
            print(f"{key} = {value:.6g} {unit}", file=out)
            metrics[key] = {"value": value, "unit": unit}
    else:
        for key, (value, count) in e2e.items():
            unit = END_TO_END_UNITS[key]
            print(f"{key} = {value:.6g} {unit} (n={count}; unscaled "
                  f"{raw[key][0]:.6g})", file=out)
            metrics[key] = {"value": value, "unit": unit}
        plain = [sum(times) for times in run.op_times]
        print("setup probes " + " ".join(f"{t:.4f}" for t in setup_times),
              file=out)
        print("pass seconds " + " ".join(f"{t:.3f}" for t in plain)
              + f" (median {statistics.median(plain):.3f})", file=out)
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }, run.tracer


# ---------------------------------------------------------------------------
# expected outputs


def load_expected():
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def sweep_samples(cli, op):
    """Ample samples of the sweeps behind a gap-report op, from ``sweep``.

    gap-report does not print sample counts; ``sweep`` on each fan of the
    op's catalog, at the op's resolution, does.
    """
    argv = op.argv
    catalog = argv[argv.index("--catalog") + 1]
    res = argv[argv.index("--resolution") + 1]
    total = 0
    for fname in sorted(os.listdir(catalog)):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["sweep", os.path.join(catalog, fname),
                             "--resolution", res])
        if code != 0:
            raise SystemExit(f"sweep {fname} exited {code}")
        total += json.loads(buf.getvalue())["ample_samples"]
    return total


def write_expected():
    """Record default-seed digests, and gap_surfaces' sample counts."""
    cli = import_program()
    out = {}
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        for name, build in workloads.BUILDERS.items():
            sub = os.path.join(workdir, name)
            os.makedirs(sub)
            wl = build(ROOT, sub, workloads.DEFAULT_SEED)
            digests = {}
            for op in wl.ops:
                r = run_op(cli, op, None)
                if r.failure:
                    raise SystemExit(f"{name}/{op.label}: {r.failure}")
                digests[op.label] = r.digest
            out[name] = {"digests": digests}
            if name == "gap_surfaces":
                out[name]["ample_samples"] = {
                    op.label: sweep_samples(cli, op) for op in wl.ops
                }
            print(f"{name}: {len(digests)} digests", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(workloads.BUILDERS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.write_expected:
            write_expected()
            return 0
        if args.workload != "all":
            result, _ = measure(args.workload, args.seed, args.seconds,
                                args.trace)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0,
                      "metrics": {}}
            for name in workloads.BUILDERS:
                one, _ = measure(name, args.seed, args.seconds, args.trace)
                result["correct"] &= one["correct"]
                result["attempted"] += one["attempted"]
                result["failed"] += one["failed"]
                for key, value in one["metrics"].items():
                    result["metrics"][f"{name}/{key}"] = value
    except Unavailable as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
