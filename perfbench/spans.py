"""Timing shims for the traced benchmark run.

The benchmark measures the program from outside: :class:`Tracer` wraps the
public calls of each ``src/repro`` layer in a timing shim while it is
active and restores the original attributes afterwards, so untraced runs
execute the unmodified program.  Each shim records one span
``(name, start, end, parent, ident)`` in memory; ``parent`` is the index of
the enclosing span (``-1`` at top level) and ``ident`` is the request index
(``q<index>``) or sampler batch number (``b<n>``) the span belongs to,
inherited from the parent when the call itself carries none.  Spans are
written out once, when the run ends (:meth:`Tracer.dump`).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

#: (module, class, method, span name) of every shimmed public call.
SHIMS = (
    ("repro.core.made", "MADEModel", "conditional_probs", "core.made.conditional_probs"),
    ("repro.core.progressive", "ProgressiveSampler", "estimate_selectivity_batch",
     "core.progressive.estimate_selectivity_batch"),
    ("repro.core.estimator", "NaruEstimator", "fit", "core.training.fit"),
    ("repro.core.estimator", "NaruEstimator", "refresh", "core.training.refresh"),
    ("repro.serve.cache", "CachedConditionalModel", "conditional_probs",
     "serve.cache.conditional_probs"),
    ("repro.serve.cache", "PackedConditionalCache", "bulk_get", "serve.cache.bulk_get"),
    ("repro.serve.cache", "PackedConditionalCache", "bulk_put", "serve.cache.bulk_put"),
    ("repro.serve.cache", "ResultCache", "get", "serve.cache.result_get"),
    ("repro.serve.cache", "ResultCache", "put", "serve.cache.result_put"),
    ("repro.serve.engine", "EstimationEngine", "submit", "serve.engine.submit"),
    ("repro.serve.engine", "EstimationEngine", "flush", "serve.engine.flush"),
    ("repro.serve.router", "FleetRouter", "submit", "serve.router.submit"),
    ("repro.serve.router", "FleetRouter", "run", "serve.router.run"),
    ("repro.serve.router", "FleetRouter", "flush", "serve.router.flush"),
    ("repro.serve.router", "FleetRouter", "tick", "serve.router.tick"),
    ("repro.serve.router", "FleetRouter", "report", "serve.router.report"),
    ("repro.serve.procfleet", "ProcessFleet", "run", "serve.procfleet.run"),
    ("repro.serve.registry", "ModelRegistry", "fit_all", "serve.registry.fit_all"),
    ("repro.serve.registry", "ModelRegistry", "ingest", "serve.registry.ingest"),
    ("repro.serve.refresh", "RefreshController", "ingest", "serve.refresh.ingest"),
    ("repro.serve.refresh", "RefreshController", "drift_bits", "serve.refresh.drift_bits"),
    ("repro.serve.refresh", "RefreshController", "refresh", "serve.refresh.refresh"),
    ("repro.estimators.sampling", "SamplingEstimator", "estimate_selectivity",
     "estimators.sampling.estimate_selectivity"),
)


class Tracer:
    """Installs the timing shims on demand and keeps their spans in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        #: (id(cache), column) -> packed prefixes looked up, for the working set.
        self.prefixes: dict[tuple[int, int], list[np.ndarray]] = defaultdict(list)
        #: id(cache) -> its entry budget.
        self.budgets: dict[int, int] = {}
        self._stack: list[int] = []
        self._batches = 0
        self._saved: list[tuple[type, str, object]] = []

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracing shims are already installed")
        for module_name, class_name, method, span_name in SHIMS:
            cls = getattr(importlib.import_module(module_name), class_name)
            original = cls.__dict__[method]
            self._saved.append((cls, method, original))
            setattr(cls, method, self._shim(original, span_name))

    def remove(self) -> None:
        for cls, method, original in reversed(self._saved):
            setattr(cls, method, original)
        self._saved = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # ------------------------------------------------------------------ #
    def _ident(self, span_name: str, args, kwargs) -> str | None:
        """Own identifier of a call: request index or sampler batch number."""
        if span_name == "serve.router.submit":
            index = kwargs.get("index", args[2] if len(args) > 2 else None)
            return f"q{args[0].next_index if index is None else index}"
        if span_name == "core.progressive.estimate_selectivity_batch":
            self._batches += 1
            return f"b{self._batches}"
        return None

    def _before(self, span_name: str, args):
        """Counters recorded at the same boundaries as the spans (pre-call)."""
        if span_name == "core.made.conditional_probs":
            self.counts["made_calls"] += 1
            self.counts["made_rows"] += int(np.shape(args[2])[0])
        elif span_name == "serve.cache.bulk_get":
            self.prefixes[(id(args[0]), int(args[1]))].append(
                np.array(args[2], copy=True))
            self.budgets[id(args[0])] = int(args[0].max_entries)
        elif span_name == "serve.cache.bulk_put":
            return args[0].stats.evictions
        elif span_name == "serve.cache.result_get":
            return args[0].stats.stale_rejects
        return None

    def _after(self, span_name: str, args, result, before) -> None:
        """Counters recorded at the same boundaries as the spans (post-call)."""
        if span_name == "serve.cache.bulk_get":
            self.counts["cond_lookups"] += int(np.size(args[2]))
            self.counts["cond_hits"] += int(np.count_nonzero(result[0]))
        elif span_name == "serve.cache.bulk_put":
            self.counts["cond_evictions"] += args[0].stats.evictions - before
        elif span_name == "serve.cache.result_get":
            self.counts["result_lookups"] += 1
            self.counts["result_hits"] += result is not None
            self.counts["result_stale_rejects"] += (
                args[0].stats.stale_rejects - before)

    def _shim(self, function, span_name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(function)
        def shim(*args, **kwargs):
            parent = stack[-1] if stack else -1
            ident = self._ident(span_name, args, kwargs)
            if ident is None and parent >= 0:
                ident = spans[parent][4]
            before = self._before(span_name, args)
            slot = len(spans)
            spans.append((span_name, 0.0, 0.0, parent, ident))
            stack.append(slot)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (span_name, start, end, parent, ident)
            self._after(span_name, args, result, before)
            return result

        return shim

    def checkpoint(self) -> int:
        """Start a new section: zero the counters, return the span position."""
        self.counts.clear()
        self.prefixes.clear()
        self.budgets.clear()
        return len(self.spans)

    # ------------------------------------------------------------------ #
    def summary(self, since: int = 0, until: int | None = None) -> dict[str, dict]:
        """Per span name over spans ``[since, until)``: calls, total and self seconds.

        Self time is a span's duration minus the time its direct children
        cover (children of one parent never overlap: the program is
        single-threaded under the event loop).
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for position in range(since, len(self.spans) if until is None else until):
            name, start, end, parent, _ = self.spans[position]
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[position]
        return out

    def durations(self, name: str, *, parent: str | None = None,
                  since: int = 0) -> list[float]:
        """Durations of the spans called ``name`` (directly under ``parent``)."""
        return [end - start
                for span_name, start, end, parent_slot, _ in self.spans[since:]
                if span_name == name and (
                    parent is None
                    or (parent_slot >= 0 and self.spans[parent_slot][0] == parent))]

    def top_level_s(self, prefixes: tuple[str, ...], since: int = 0) -> float:
        """Summed duration of top-level spans whose name has one of ``prefixes``."""
        return sum(end - start for name, start, end, parent, _ in self.spans[since:]
                   if parent < 0 and name.startswith(prefixes))

    def working_set(self) -> dict[int, tuple[int, int]]:
        """Per conditional cache: (distinct prefixes looked up, entry budget)."""
        distinct: dict[int, int] = defaultdict(int)
        for (cache, _), arrays in self.prefixes.items():
            distinct[cache] += int(np.unique(np.concatenate(arrays)).size)
        return {cache: (count, self.budgets[cache])
                for cache, count in distinct.items()}

    def dump(self, path: str, header: dict) -> None:
        """Write every span (names interned) plus ``header`` as one JSON file."""
        names = sorted({span[0] for span in self.spans})
        position = {name: index for index, name in enumerate(names)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "fields": ["name", "start", "end", "parent", "id"],
                       "names": names,
                       "spans": [[position[name], round(start, 7), round(end, 7),
                                  parent, ident]
                                 for name, start, end, parent, ident in self.spans]},
                      handle, separators=(",", ":"))
