"""Correctness gate applied to every estimate a benchmark run serves.

* Every selectivity is finite and in ``[0, 1]``.
* Every model-served estimate checked against the reference equals, bit for
  bit, what :func:`repro.serve.run_fleet_sequential` computes for the same
  ``(seed, global index)``: primaries through the unfused one-query-at-a-time
  :func:`repro.serve.run_sequential` at the served index, fallbacks through
  the fallback estimator's own ``estimate_selectivity``.  The reference is
  about ten times slower than serving, so a run checks every fallback answer
  and a seeded sample of the primary answers; the check runs between
  writes, against the model version that served the answer.
* A result-cache hit returns exactly an estimate the fleet computed for
  the same canonical query in the same serving epoch (every scope a run
  serves, warm-up included, passes through :meth:`Gate.observe`).
* A query is answered by the unit capability routing assigns it: disjunctions
  above the primary's branch bound by the fallback, never the primary.

Any failed check counts as a failed query and makes the run incorrect.
"""

from __future__ import annotations

import math

import numpy as np

from repro.serve import FleetRouter, run_sequential
from repro.serve.cache import canonical_query_key


class Gate:
    """Accumulates checks over a run; :attr:`mismatches` must stay empty."""

    def __init__(self, registry, *, num_samples: int, seed: int,
                 sample_rng: np.random.Generator) -> None:
        self.registry = registry
        self.num_samples = num_samples
        self.seed = seed
        self.rng = sample_rng
        # Routing decisions come from a router that never serves: resolving
        # a query's unit is a pure function of the registry.
        self._resolver = FleetRouter(registry, use_cache=False)
        #: (canonical key, serving epoch) -> model-served selectivities.
        self._answers: dict[tuple, set[float]] = {}
        self._queued: list = []
        self.mismatches: list[str] = []
        self.checked = 0
        self.max_drift = 0.0

    def _fail(self, message: str) -> None:
        self.mismatches.append(message)

    def observe(self, results) -> None:
        """Check one scope's results; queue its primaries for :meth:`settle`."""
        for result in results:
            value = result.selectivity
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                self._fail(f"index {result.index}: selectivity {value!r} "
                           "outside [0, 1]")
                continue
            epoch = self.registry.serving_epoch(result.route)
            key = (canonical_query_key(result.query, route=result.route), epoch)
            if result.from_result_cache:
                if value not in self._answers.get(key, ()):
                    self._fail(f"index {result.index}: result-cache hit "
                               f"{value!r} was never computed for its query")
                continue
            route, role = self._resolver.resolve_serving(result.query)
            if route != result.route:
                self._fail(f"index {result.index}: routed to {result.route}, "
                           f"capability routing says {route}")
                continue
            self._answers.setdefault(key, set()).add(value)
            if role == "fallback":
                fallback = self.registry.fallback(route)
                if result.estimator != fallback.name:
                    self._fail(f"index {result.index}: {role} query answered "
                               f"by {result.estimator!r}")
                    continue
                self._compare(result, fallback.estimate_selectivity(result.query))
            else:
                self._queued.append(result)

    def settle(self, count: int) -> None:
        """Replay ``count`` queued primaries (seeded pick) and clear the queue.

        Must run before the next write to the served relations, so that
        :attr:`registry` still holds the model that served them.
        """
        queued, self._queued = self._queued, []
        if not queued or count <= 0:
            return
        picks = sorted(self.rng.choice(len(queued), size=min(count, len(queued)),
                                       replace=False).tolist())
        by_route: dict[str, list] = {}
        for position in picks:
            by_route.setdefault(queued[position].route, []).append(queued[position])
        for route, chosen in by_route.items():
            reference = run_sequential(
                self.registry.estimator(route), [r.query for r in chosen],
                num_samples=self.num_samples, seed=self.seed,
                indices=[r.index for r in chosen])
            for result, expected in zip(chosen, reference.results):
                self._compare(result, expected.selectivity)

    def _compare(self, result, expected: float) -> None:
        self.checked += 1
        drift = abs(float(result.selectivity) - float(expected))
        self.max_drift = max(self.max_drift, drift)
        if drift != 0.0:
            self._fail(f"index {result.index} on {result.route}: served "
                       f"{result.selectivity!r}, reference {expected!r}")
