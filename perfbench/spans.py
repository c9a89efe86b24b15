"""Spans around the public entry points of mltc, installed from outside.

Each wrapped call records one span: name, parent span, phase, start, end.
Spans stay in memory until the run ends.  A layer's self time is its span
duration minus the durations of the spans nested directly in it.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from mltc import colloc, cross, driver, fem, htensor

# (owner, attribute, span name).  A function imported by name into another
# module is patched where it is called from.
TARGETS = [
    (fem, "assemble", "fem.assemble"),
    (fem, "evaluate", "fields.evaluate"),
    (fem, "solve_at", "fem.solve_at"),
    (driver, "solve_at", "fem.solve_at"),
    (fem, "h1_frame", "fem.h1_frame"),
    (driver, "h1_frame", "fem.h1_frame"),
    (fem.H1Frame, "from_h1", "fem.from_h1"),
    (fem.H1Frame, "to_h1", "fem.to_h1"),
    (colloc.CollocationGrid, "lagrange_weights_many", "colloc.weights"),
    (cross, "greedy_column_basis", "cross.step1"),
    (cross, "hier_cross", "cross.step2"),
    (htensor, "ht_entries", "htensor.ht_entries"),
    (driver, "run_ml", "driver.run_ml"),
    (driver.MLSurrogate, "components_h1", "driver.components_h1"),
    (driver.MLSurrogate, "evaluate_batch", "driver.evaluate_batch"),
    (driver.MLSurrogate, "expectation", "driver.expectation"),
    (driver.MLSurrogate, "expectation_psi", "driver.expectation"),
    (driver, "error_metrics", "driver.error_metrics"),
]


class Tracer:
    """Spans of one run, plus the count of repeated solves within a build."""

    def __init__(self):
        self.spans: list[list] = []     # [name, parent, phase, start, end]
        self.phase = ""
        self.active = True
        self.solve_repeats = 0          # solve_at calls repeating a (level, y) of the build
        self._stack: list[int] = []
        self._solved: set | None = None

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [name, tracer._stack[-1] if tracer._stack else -1,
                    tracer.phase, time.perf_counter(), 0.0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                tracer._stack.pop()

        return wrapper

    def _count_repeats(self, fn):
        """solve_at wrapper counting (level, y) pairs already solved in the build."""
        tracer = self

        def wrapper(y, level, model):
            if tracer.active and tracer._solved is not None:
                key = (level, np.asarray(y, dtype=float).tobytes())
                if key in tracer._solved:
                    tracer.solve_repeats += 1
                else:
                    tracer._solved.add(key)
            return fn(y, level, model)

        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name in TARGETS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                fn = original
                if name == "fem.solve_at":
                    fn = self._count_repeats(fn)
                setattr(owner, attr, self._wrap(name, fn))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def in_phase(self, phase: str):
        """Label spans with the phase; a build counts repeats against its own solves."""
        self.phase = phase
        self._solved = set() if phase == "build" else None
        try:
            yield
        finally:
            self.phase = ""
            self._solved = None

    @contextmanager
    def paused(self):
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def layer_metrics(self, fibers: int, step2_entries: int, points: int) -> dict:
        """Per-layer metrics from the spans and the build's diagnostics."""
        child = [0.0] * len(self.spans)
        components_child = defaultdict(float)   # parent index -> components_h1 seconds
        for name, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
                if name == "driver.components_h1":
                    components_child[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        durations = defaultdict(list)           # (name, phase) -> span durations
        for i, (name, _, phase, start, end) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child[i]
            durations[(name, phase)].append(end - start)
        nodal = sum(end - start - components_child[i]
                    for i, (name, _, _, start, end) in enumerate(self.spans)
                    if name == "driver.evaluate_batch")
        return {
            "fem.assemble.calls": (calls["fem.assemble"], "count"),
            "fem.assemble.s": (total["fem.assemble"], "s"),
            "fields.evaluate.s": (total["fields.evaluate"], "s"),
            "fem.solve_at.calls": (len(durations[("fem.solve_at", "build")]), "count"),
            "fem.solve_at.repeats": (self.solve_repeats, "count"),
            "fem.solve_at.self_s": (self_s["fem.solve_at"], "s"),
            "fem.h1_frame.s": (total["fem.h1_frame"], "s"),
            "fem.from_h1.calls": (calls["fem.from_h1"], "count"),
            "fem.from_h1.s": (total["fem.from_h1"], "s"),
            "fem.to_h1.s": (total["fem.to_h1"], "s"),
            "colloc.weights.s": (total["colloc.weights"], "s"),
            "cross.step1.self_s": (self_s["cross.step1"], "s"),
            "cross.step2.self_s": (self_s["cross.step2"], "s"),
            "cross.fibers": (fibers, "count"),
            "cross.step2_entries": (step2_entries, "count"),
            "cross.fiber_share": (fibers / points, "ratio"),
            "htensor.ht_entries.s": (total["htensor.ht_entries"], "s"),
            "driver.run_ml.s": (statistics.median(durations[("driver.run_ml", "build")]), "s"),
            "driver.components_h1.s": (total["driver.components_h1"], "s"),
            "driver.nodal.s": (nodal, "s"),
            "driver.expectation.s": (total["driver.expectation"], "s"),
            "driver.error_metrics.self_s": (self_s["driver.error_metrics"], "s"),
        }
