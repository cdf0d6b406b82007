"""The torifan names that the benchmark in ``perfbench/`` reaches must resolve.

``perfbench/spans.py`` patches every ``(module, attribute)`` pair of its
``TRACED`` table, among them ``sweep.build_skeleton`` (which builds a
variety's cached sweep tables and returns the variety),
``sweep.select_engine`` and ``_sweep_pure.run_sweep``, and
``perfbench/run.py`` calls ``sweep.select_engine`` on
``sweep.build_skeleton``.  A rename in ``src`` would break the benchmark
without failing any other test, so these tests resolve every name.  They
read ``perfbench/`` and change nothing there.
"""

import importlib
import importlib.util
from pathlib import Path

from test_catalog import bundled_fan

from torifan import sweep

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_every_traced_name_resolves_to_a_function():
    traced = traced_names()
    assert len(traced) >= 27
    for span, (module, attribute) in traced.items():
        fn = getattr(importlib.import_module(module), attribute, None)
        assert callable(fn), f"{span}: {module}.{attribute} is gone"


def test_run_selects_the_pure_engine_on_a_catalog_skeleton():
    v = bundled_fan("Bl3P2")
    assert sweep.select_engine(sweep.build_skeleton(v), 3) == "pure"
