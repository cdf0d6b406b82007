"""Span tracing of torifan's public functions, installed from outside.

``Tracer.install()`` replaces every binding of each traced function in the
loaded ``torifan`` modules -- the defining module's attribute and every
``from ... import name`` copy, such as ``harness.sweep_ample_cone`` -- with
a wrapper that records a span (name, start, end, parent span, op id).
``uninstall()`` puts the originals back.  Spans stay in memory; the run
writes them out when it ends.  Self time is a span's duration minus the
durations of its direct child spans, which nest inside it because the
program is single-threaded.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter

# span name -> (module, attribute)
TRACED = {
    "catalog.load": ("torifan.catalog", "load_catalog"),
    "toric.validate_fan": ("torifan.toric", "validate_fan"),
    "toric.fans_isomorphic": ("torifan.toric", "fans_isomorphic"),
    "toric.blowup": ("torifan.toric", "blowup_at_fixed_point"),
    "sweep.skeleton": ("torifan.sweep", "build_skeleton"),
    "sweep.select_engine": ("torifan.sweep", "select_engine"),
    "sweep.sweep_ample_cone": ("torifan.sweep", "sweep_ample_cone"),
    "sweep_pure.run": ("torifan._sweep_pure", "run_sweep"),
    "invariants.score": ("torifan.invariants", "score"),
    "invariants.fujita_profile": ("torifan.invariants", "fujita_profile"),
    "invariants.chain_report": ("torifan.invariants", "chain_report"),
    "ratgeom.enumerate_vertices": ("torifan.ratgeom", "enumerate_vertices"),
    "ratgeom.fan_triangulation": ("torifan.ratgeom", "fan_triangulation"),
    "ratgeom.volume": ("torifan.ratgeom", "volume"),
    "ratgeom.barycenter": ("torifan.ratgeom", "barycenter"),
    "ratpoly.nonnegative_on": ("torifan.ratpoly", "nonnegative_on"),
    "ratpoly.interpolate": ("torifan.ratpoly", "interpolate"),
    "okounkov.body": ("torifan.okounkov", "okounkov_body"),
    "okounkov.slice_profile": ("torifan.okounkov", "slice_profile"),
    "okounkov.bm_concavity": ("torifan.okounkov", "bm_concavity_check"),
    "okounkov.translation_check": ("torifan.okounkov", "translation_identity_check"),
    "okounkov.pseff": ("torifan.okounkov", "pseff_threshold"),
    "harness.verify_theorem": ("torifan.harness", "verify_theorem"),
    "harness.gap_report": ("torifan.harness", "gap_report"),
    "harness.blowup_command": ("torifan.harness", "blowup_command"),
    "harness.okounkov_command": ("torifan.harness", "okounkov_command"),
    "cli.main": ("torifan.cli", "main"),
}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, op id)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.engines = defaultdict(int)  # select_engine return values
        self.candidates = 0
        self.ample = 0
        self.op_id = None
        self._stack = []  # [span id, child seconds]
        self._next_id = 0
        self._patched = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - start
                self.self_time[name] += duration - frame[1]
                self.calls[name] += 1
                if parent is not None:
                    parent[1] += duration
                self.spans.append((
                    span_id, name, start, end,
                    None if parent is None else parent[0], self.op_id,
                ))
            if name == "sweep.select_engine":
                self.engines[result] += 1
            elif name == "sweep_pure.run":
                self.candidates += result.candidates
                self.ample += result.ample
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Patch every loaded torifan binding of each traced function."""
        originals = {}
        for name, (mod, attr) in TRACED.items():
            fn = getattr(sys.modules[mod], attr)
            originals[id(fn)] = (name, fn)
        wrappers = {}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "torifan" or mod_name.startswith("torifan.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is None or hit[1] is not value:
                    continue
                name, fn = hit
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, fn)
                setattr(module, attr, wrappers[name])
                self._patched.append((module, attr, fn))
        return sorted(wrappers)

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched = []

    def sweep_rechecks(self):
        """Inclusive seconds of the re-check and of the sample reports.

        Both are ``invariants.score`` spans directly under
        ``sweep.sweep_ample_cone``: the first is the argmax re-check, the
        rest score the collected sample reports.
        """
        sweeps = {s[0] for s in self.spans if s[1] == "sweep.sweep_ample_cone"}
        children = defaultdict(list)
        for s in self.spans:
            if s[1] == "invariants.score" and s[4] in sweeps:
                children[s[4]].append(s)
        recheck = reports = 0.0
        for kids in children.values():
            kids.sort(key=lambda s: s[2])
            recheck += kids[0][3] - kids[0][2]
            reports += sum(s[3] - s[2] for s in kids[1:])
        return recheck, reports

    def write_spans(self, path):
        """One JSON array per line: id, name, start, end, parent, op."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
