"""Span tracer for the traced benchmark run.

Wrappers installed from here time the calls into each layer's public
callables. Every wrapper is patched where its caller looks the callable up:
on the class for methods, and on the importing module for functions. They
are installed before the first plan compile, so the per-segment kernel
calls of every compiled plan are caught.

Spans stay in memory and are written out when the run ends. A span's self
time is its duration minus the time its child spans cover. The run is
single-threaded (inline executor, inline lifecycle cycles), so spans nest
strictly and one stack is enough.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# (span name, module, attribute path) for every wrapped callable.
TARGETS = [
    ("data.load_dataset", "repro.data", "load_dataset"),
    ("cluster.select_k_elbow", "repro.core.candidate_selection", "select_k_elbow"),
    ("cluster.KMeans.fit", "repro.cluster.kmeans", "KMeans.fit"),
    ("nn.SADAutoencoder.fit", "repro.nn.autoencoder", "SADAutoencoder.fit"),
    ("model.fit", "repro.core.model", "TargAD.fit"),
    ("model.incremental_fit", "repro.core.model", "TargAD.incremental_fit"),
    ("core.classifier_loss", "repro.core.model", "classifier_loss"),
    ("autodiff.Tensor.backward", "repro.autodiff.tensor", "Tensor.backward"),
    ("nn.Adam.step", "repro.nn.optimizers", "Adam.step"),
    ("core.update_weights", "repro.core.model", "update_weights"),
    ("nn.forward_in_batches", "repro.core.model", "forward_in_batches"),
    ("model.logits", "repro.core.model", "TargAD.logits"),
    ("model.score_batch", "repro.core.model", "TargAD.score_batch"),
    ("core.route_from_logits", "repro.core.model", "route_from_logits"),
    ("nn.plan", "repro.nn.inference", "CompiledInference.__call__"),
    ("backend.fused_dense_act", "repro.backend.ops", "fused_dense_act"),
    ("serve.process", "repro.serving.pipeline", "ScoringPipeline.process"),
    ("resilience.sanitize_batch", "repro.serving.pipeline", "sanitize_batch"),
    ("serving.FallbackChain.score", "repro.serving.executor", "FallbackChain.score"),
    ("serving.DriftMonitor.check", "repro.serving.drift", "DriftMonitor.check"),
    ("serving.DriftMonitor.fit", "repro.serving.drift", "DriftMonitor.fit"),
    ("serving.swap_model", "repro.serving.pipeline", "ScoringPipeline.swap_model"),
    ("resilience.fallback_calibrate", "repro.resilience.fallback",
     "ReconstructionFallback.calibrate"),
    ("lifecycle.process", "repro.lifecycle.manager", "LifecycleManager.process"),
    ("lifecycle.refit_now", "repro.lifecycle.manager", "LifecycleManager.refit_now"),
    ("lifecycle.rank_for_labeling", "repro.lifecycle.manager", "rank_for_labeling"),
] + [
    (f"obs.{method}", "repro.obs.registry", f"TelemetryRegistry.{method}")
    for method in ("increment", "set_gauge", "observe", "record_event")
]


class Tracer:
    """In-memory span recorder.

    ``spans`` holds ``[name, start, end, parent, ctx, tag]`` lists; ``parent``
    is the index of the enclosing span (or -1) and ``ctx`` the request, batch
    or fit id the harness set when the span opened.
    """

    def __init__(self):
        self.spans = []
        self.ctx = None
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------
    def _open(self, name, tag=None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.ctx, tag])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, tag=None):
        index = self._open(name, tag)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name, func, tag_of=None):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = self._open(name, tag_of(args) if tag_of else None)
            try:
                return func(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    # -- installation ------------------------------------------------------
    def install(self):
        """Patch every callable in :data:`TARGETS`; :meth:`uninstall` undoes it."""
        for name, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            tag_of = None
            if name == "backend.fused_dense_act":
                # Record the weight shape: it names the plan segment.
                tag_of = lambda args: tuple(args[1].shape)  # noqa: E731
            setattr(owner, attr, self._wrap(name, original, tag_of))
            self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    # -- analysis ----------------------------------------------------------
    def durations(self):
        return [s[2] - s[1] for s in self.spans]

    def self_times(self):
        """Per-span duration minus the time its direct children cover."""
        dur = self.durations()
        own = list(dur)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                own[s[3]] -= dur[i]
        return own

    def children(self):
        kids = defaultdict(list)
        for i, s in enumerate(self.spans):
            kids[s[3]].append(i)
        return kids

    def ancestors(self, index):
        names = []
        parent = self.spans[index][3]
        while parent >= 0:
            names.append(self.spans[parent][0])
            parent = self.spans[parent][3]
        return names

    def breakdown(self, wall_s):
        """Self time per span name plus the untraced remainder; sums to ``wall_s``."""
        own = self.self_times()
        by_name = defaultdict(lambda: [0, 0.0])
        for s, t in zip(self.spans, own):
            by_name[s[0]][0] += 1
            by_name[s[0]][1] += t
        covered = sum(d for s, d in zip(self.spans, self.durations()) if s[3] < 0)
        rows = {name: {"calls": c, "self_s": t} for name, (c, t) in sorted(by_name.items())}
        return rows, wall_s - covered

    def dump(self, path, extra):
        payload = {
            "fields": ["name", "start", "end", "parent", "ctx", "tag"],
            "spans": self.spans,
            **extra,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
