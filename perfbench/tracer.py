"""Per-layer tracing of fractalsio from outside the program.

``Tracer.timed_job`` patches the public callables listed in ``LAYERS``,
runs one job inside a root ``job`` span and restores every original object,
so untraced runs see fractalsio exactly as imported.  A function is
replaced wherever a fractalsio module binds it (``from ... import`` copies
the reference), and a method on its class.  A target that no longer exists
is recorded in ``absent`` and skipped, so refactors keep the benchmark
running.

Coarse layers record spans (id, parent span id, layer, start, end); their
self time is the span's duration minus its child spans and the per-word
calls made directly inside it.  Per-word layers (``ifs.compose`` and
``symbolic.validate``, called up to millions of times) keep only aggregate
self time and call counts.  ``geometry`` is not wrapped: the separation
search calls it millions of times, and its time lands in its callers.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import time
from collections import defaultdict

import numpy as np


def _arg(i, name):
    def count(args, kwargs, result):
        return np.size(kwargs[name] if name in kwargs else args[i])
    return count


def _letters(args, kwargs, result):
    word = kwargs.get("word", args[1] if len(args) > 1 else None)
    return len(tuple(word))


def _cells(args, kwargs, result):
    return result.count


def _points(args, kwargs, result):
    return np.size(result)


def _orbit(args, kwargs, result):
    return len(result)


def _n_samples(args, kwargs, result):
    return int(kwargs["n_samples"] if "n_samples" in kwargs else args[2])


# (layer, records spans, counter name, [(target, count of work per call)])
LAYERS = (
    ("cli", True, None, [("fractalsio.cli:main", None)]),
    ("ifs.build", True, None, [("fractalsio.ifs:IFS.from_config", None)]),
    ("ifs.separation", True, None, [("fractalsio.ifs:IFS.check_separation", None)]),
    ("ifs.diameter", True, None, [("fractalsio.ifs:IFS.diam_bracket", None)]),
    ("ifs.compose", False, "letters", [("fractalsio.ifs:IFS.compose", _letters),
                                       ("fractalsio.ifs:IFS.compose_batch", _arg(1, "idx"))]),
    ("symbolic.validate", False, None, [("fractalsio.symbolic:validate_word", None)]),
    ("measure.cells", True, "cells", [("fractalsio.measure:cells_for_words", _cells),
                                      ("fractalsio.measure:region_cells", _cells),
                                      ("fractalsio.measure:net", _cells)]),
    ("measure.sum", True, "values", [("fractalsio.measure:pairwise_sum", _arg(0, "values"))]),
    ("measure.ball", True, None, [("fractalsio.measure:integrate_ball_complement", None)]),
    ("measure.integrate", True, None, [("fractalsio.measure:integrate", None),
                                       ("fractalsio.measure:integrate_cells", None),
                                       ("fractalsio.measure:integrate_complement", None)]),
    ("measure.mc", True, "samples", [("fractalsio.measure:mc_integrate", _n_samples)]),
    ("kernels.eval", True, "points", [
        ("fractalsio.kernels:HomogeneousKernel.displacement", None),
        ("fractalsio.kernels:HomogeneousKernel.pole_terms", None),
        ("fractalsio.kernels:HomogeneousKernel.cell_err_bound", None),
        ("fractalsio.kernels:ConstantOmega.eval", _points),
        ("fractalsio.kernels:SignOmega.eval", _points),
        ("fractalsio.kernels:RieszComponent.eval", _points),
        ("fractalsio.kernels:PolynomialOverNorm.eval", _points),
        ("fractalsio.kernels:PerturbedOmega.eval", _points)]),
    ("sio.driver", True, None, [("fractalsio.sio:" + name, None) for name in (
        "truncated", "pv_trace", "criterion", "maximal_symbolic", "ball_cylinder_gap",
        "divergence_certificate")]),
    ("sio.witness", True, None, [("fractalsio.sio:WitnessIntegrand.__call__", None)]),
    ("ergodic.sample", True, "letters", [("fractalsio.ergodic:sample_orbit", _orbit)]),
    ("ergodic.scan", True, None, [("fractalsio.ergodic:birkhoff_frequency", None),
                                  ("fractalsio.ergodic:hitting_times", None)]),
)


def metric_names() -> list:
    """Per-layer metric names in report order, without the run-level ones."""
    names = []
    for layer, _, counter, _ in LAYERS:
        names += [f"{layer}.self_s", f"{layer}.calls"]
        if counter:
            names.append(f"{layer}.{counter}")
    return names


def _resolve(target):
    """(owner, attribute name, raw object) for 'module:Qualified.name'."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, raw


class _Frame:
    __slots__ = ("span", "spans", "child", "fine")

    def __init__(self, span, spans):
        self.span = span      # id of the nearest enclosing span (own id for a span)
        self.spans = spans    # whether this frame is a span
        self.child = 0.0      # time of wrapped calls made directly inside
        self.fine = 0.0       # of which per-word calls, charged to this span


class Tracer:
    def __init__(self):
        self.spans = []                  # (id, parent id, layer, start, end, fine, under_fine)
        self.fine_self = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.absent = set()
        self._stack = []
        self._patches = []
        self._ids = itertools.count()

    # ---- patching -------------------------------------------------------

    def _wrap(self, layer, spans, fn, count, counter):
        stack = self._stack
        span_list = self.spans
        ids = self._ids

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = _Frame(next(ids) if spans else parent.span, spans)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                parent.child += dur
                self.calls[layer] += 1
                if spans:
                    span_list.append((frame.span, parent.span, layer, t0, t1, frame.fine,
                                      not parent.spans))
                else:
                    self.fine_self[layer] += dur - frame.child
                    if parent.spans:
                        parent.fine += dur
            if count is not None:
                self.counts[f"{layer}.{counter}"] += int(count(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "fractalsio" or name.startswith("fractalsio.")]
        for layer, spans, counter, targets in LAYERS:
            for target, count in targets:
                try:
                    owner, name, raw = _resolve(target)
                except (ImportError, AttributeError, KeyError):
                    self.absent.add(target)
                    continue
                if isinstance(owner, type):
                    is_cm = isinstance(raw, classmethod)
                    wrapped = self._wrap(layer, spans, raw.__func__ if is_cm else raw,
                                         count, counter)
                    self._patches.append((owner, name, raw))
                    setattr(owner, name, classmethod(wrapped) if is_cm else wrapped)
                    continue
                wrapped = self._wrap(layer, spans, raw, count, counter)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is raw:
                            self._patches.append((module, attr, raw))
                            setattr(module, attr, wrapped)

    def uninstall(self):
        while self._patches:
            owner, name, raw = self._patches.pop()
            setattr(owner, name, raw)

    def timed_job(self, fn):
        """Run ``fn`` traced under a root ``job`` span; returns (seconds, fn())."""
        self.install()
        root = _Frame(next(self._ids), True)
        self._stack.append(root)
        try:
            t0 = time.perf_counter()
            result = fn()
            t1 = time.perf_counter()
        finally:
            self._stack.pop()
            self.uninstall()
        self.spans.append((root.span, None, "job", t0, t1, root.fine, False))
        return t1 - t0, result

    # ---- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Totals over everything traced: self seconds, calls and counts per layer."""
        child = defaultdict(float)
        for span, parent, _, t0, t1, _, under_fine in self.spans:
            if parent is not None and not under_fine:
                child[parent] += t1 - t0
        self_s = defaultdict(float, self.fine_self)
        job_s = 0.0
        for span, _, layer, t0, t1, fine, _ in self.spans:
            self_s[layer] += (t1 - t0) - child[span] - fine
            if layer == "job":
                job_s += t1 - t0
        values = {}
        for layer, _, counter, _ in LAYERS:
            values[f"{layer}.self_s"] = self_s[layer]
            values[f"{layer}.calls"] = self.calls[layer]
            if counter:
                values[f"{layer}.{counter}"] = self.counts[f"{layer}.{counter}"]
        return {"layers": values, "job_s": job_s, "unattributed_s": self_s["job"],
                "absent": sorted(self.absent)}
