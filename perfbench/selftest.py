"""Self-test of the benchmark on tiny inputs (about half a minute).

    python3 perfbench/selftest.py

Checks that every workload runs with no failed op; that ``--trace 0``
emits exactly the end-to-end metrics of BENCHMARK.json and ``--trace 1``
exactly its per-layer metrics, each with its unit; that traced and untraced
passes produce the same output digests (a difference fails the op); that
each traced function records at least one call on the workload predicted to
use it, which catches a binding the tracer failed to patch; and that the
benchmark refuses to run, without printing a result, in a directory holding
only BENCHMARK.json and the benchmark's own files.
"""

import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

import run

# traced function -> workloads on which it must record calls
USED_BY = {
    "catalog.load": {"verify_catalog", "gap_surfaces"},
    "toric.validate_fan": {"verify_catalog", "gap_surfaces", "class_scores",
                           "profiles"},
    "toric.fans_isomorphic": {"verify_catalog", "gap_surfaces"},
    "toric.blowup": {"profiles"},
    "sweep.skeleton": {"verify_catalog", "gap_surfaces"},
    "sweep.select_engine": {"verify_catalog", "gap_surfaces"},
    "sweep.sweep_ample_cone": {"verify_catalog", "gap_surfaces"},
    "sweep_pure.run": {"verify_catalog", "gap_surfaces"},
    "invariants.score": {"verify_catalog", "gap_surfaces", "class_scores"},
    "invariants.fujita_profile": {"profiles"},
    "invariants.chain_report": {"profiles"},
    "ratgeom.enumerate_vertices": {"class_scores", "profiles"},
    "ratgeom.fan_triangulation": {"class_scores", "profiles"},
    "ratgeom.volume": {"class_scores", "profiles"},
    "ratgeom.barycenter": {"class_scores", "profiles"},
    "ratpoly.nonnegative_on": {"profiles"},
    "ratpoly.interpolate": {"profiles"},
    "okounkov.body": {"profiles"},
    "okounkov.slice_profile": {"profiles"},
    "okounkov.bm_concavity": {"profiles"},
    "okounkov.translation_check": {"profiles"},
    "okounkov.pseff": {"profiles"},
    "harness.verify_theorem": {"verify_catalog"},
    "harness.gap_report": {"gap_surfaces"},
    "harness.blowup_command": {"profiles"},
    "harness.okounkov_command": {"profiles"},
    "cli.main": {"verify_catalog", "gap_surfaces", "class_scores", "profiles"},
}


def check_workload(spec, name, problems):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        result, tracer = run.measure(name, 0, 0.1, trace, tiny=True,
                                     check_digests=False, out=io.StringIO())
        if result["failed"] or not result["correct"]:
            problems.append(f"{name} trace={trace}: {result['failed']} ops failed")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            problems.append(
                f"{name} trace={trace}: metrics differ from BENCHMARK.json: "
                f"missing {sorted(set(want) - set(got))}, "
                f"extra {sorted(set(got) - set(want))}, "
                f"units {[k for k in want if k in got and got[k] != want[k]]}"
            )
        if trace:
            for fn, users in USED_BY.items():
                if name in users and tracer.calls[fn] < 1:
                    problems.append(f"{name}: {fn} recorded no call")


def check_refuses_without_sources(problems):
    bare = tempfile.mkdtemp(prefix=".perfbench-bare-", dir=run.ROOT)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "class_scores",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        problems.append("benchmark ran without the program's sources")


def main():
    problems = []
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(run.workloads.BUILDERS):
        problems.append(f"workloads {names} != {sorted(run.workloads.BUILDERS)}")
    for name in names:
        check_workload(spec, name, problems)
        print(f"{name}: checked", flush=True)
    check_refuses_without_sources(problems)
    for p in problems:
        print("PROBLEM", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
