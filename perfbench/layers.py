"""Per-layer metrics of a traced run, named ``<module>.<metric>``.

Span-derived figures cover the traced serving stretches (``Tracer`` spans
after set-up); report-derived figures cover the reports of those same
stretches; traffic shares cover every result the run served.  Layers that
run inside ``ProcessFleet`` worker processes are not shimmed, so on
``procfleet-mixed`` the in-process layer figures read 0 and the worker
tallies carry the split.
"""

from __future__ import annotations

import statistics

import numpy as np

from repro.query.predicates import DNFQuery, dnf_expansion
from repro.query.shapes import query_shape

#: name -> (unit, better) of every per-layer metric, in BENCHMARK.json order.
METRICS = {
    "core.made.forward_calls_per_query": ("count", "lower"),
    "core.made.rows_per_query": ("count", "lower"),
    "core.made.self_ms_per_query": ("ms", "lower"),
    "core.progressive.rows_submitted_per_query": ("count", "lower"),
    "core.progressive.unique_rows_per_query": ("count", "lower"),
    "core.progressive.dedup_ratio": ("x", "higher"),
    "core.progressive.self_ms_per_query": ("ms", "lower"),
    "core.training.fit_s": ("s", "lower"),
    "core.training.finetune_s": ("s", "lower"),
    "serve.cache.cond_hit_rate": ("ratio", "higher"),
    "serve.cache.cond_evictions": ("count", "lower"),
    "serve.cache.cond_working_set": ("count", "lower"),
    "serve.cache.cond_working_set_vs_budget": ("ratio", "lower"),
    "serve.cache.cond_self_ms_per_query": ("ms", "lower"),
    "serve.cache.result_hit_rate": ("ratio", "higher"),
    "serve.cache.result_stale_rejects": ("count", "lower"),
    "serve.cache.result_ms_per_query": ("ms", "lower"),
    "serve.engine.batches": ("count", "higher"),
    "serve.engine.mean_batch": ("count", "higher"),
    "serve.engine.timeout_flushes": ("count", "lower"),
    "serve.engine.dispatch_ms_p50": ("ms", "lower"),
    "serve.engine.dispatch_ms_p99": ("ms", "lower"),
    "serve.engine.queue_wait_ms_p50": ("ms", "lower"),
    "serve.engine.queue_wait_ms_p99": ("ms", "lower"),
    "serve.router.submit_self_ms": ("ms", "lower"),
    "serve.router.shed": ("count", "lower"),
    "serve.router.peak_pending": ("count", "lower"),
    "serve.router.fallback_share": ("ratio", "lower"),
    "serve.loadgen.lateness_p99_ms": ("ms", "lower"),
    "serve.loadgen.max_lateness_ms": ("ms", "lower"),
    "query.predicates.ie_terms_per_query": ("count", "lower"),
    "query.predicates.dnf_share": ("ratio", "lower"),
    "query.predicates.prefix_share": ("ratio", "lower"),
    "query.predicates.conjunctive_share": ("ratio", "higher"),
    "estimators.sampling.fallback_queries": ("count", "lower"),
    "estimators.sampling.fallback_ms_per_query": ("ms", "lower"),
    "estimators.sampling.fallback_table_rows": ("count", "higher"),
    "estimators.sampling.relation_rows": ("count", "higher"),
    "serve.refresh.ingest_s": ("s", "lower"),
    "serve.refresh.drift_s": ("s", "lower"),
    "serve.refresh.finetunes": ("count", "higher"),
    "serve.refresh.rebuilds": ("count", "lower"),
    "serve.procfleet.spawn_s": ("s", "lower"),
    "serve.procfleet.busy_cpu_ms_per_worker": ("ms", "lower"),
    "serve.procfleet.imbalance": ("ratio", "lower"),
    "serve.procfleet.transport_ms_per_query": ("ms", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "gate.failed_frac": ("ratio", "lower"),
    "gate.checked": ("count", "higher"),
    "gate.max_drift": ("abs", "lower"),
}


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def quantile(values, q: float) -> float:
    return float(np.quantile(values, q)) if len(values) else 0.0


def tail_quantile(values, q: float, windows: int = 5) -> float:
    """Median, over ``windows`` consecutive slices, of each slice's quantile.

    A closed loop yields a few hundred latencies in groups that share one
    dispatch, so a plain p99 rests on one or two requests and a single host
    stall moves it; here a stall moves at most one slice.
    """
    slices = np.array_split(np.asarray(values, dtype=float), windows)
    return median([quantile(part, q) for part in slices if part.size])


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Traffic:
    """Measured shares of the traffic properties a workload depends on.

    Counts are taken scope by scope, so a run keeps no served results.
    """

    def __init__(self) -> None:
        self.served = self.hits = self.fallback = self.terms = 0
        self.shapes: dict[str, int] = {}

    def add(self, results) -> None:
        for result in results:
            self.served += 1
            self.hits += result.from_result_cache
            fallback = result.estimator.startswith("Sample")
            self.fallback += fallback
            shape = query_shape(result.query).value
            self.shapes[shape] = self.shapes.get(shape, 0) + 1
            query = result.query
            expanded = (isinstance(query, DNFQuery) and len(query.branches) > 1
                        and not fallback and not result.from_result_cache)
            self.terms += len(dnf_expansion(query)) if expanded else 1

    def shares(self) -> dict[str, float]:
        return {
            "served": self.served,
            "result_hit_share": ratio(self.hits, self.served),
            "fallback_share": ratio(self.fallback, self.served),
            # Sampler terms per query: inclusion-exclusion expands a
            # multi-branch disjunction the primary serves into 2^k - 1.
            "ie_terms_per_query": ratio(self.terms, self.served),
            **{f"{shape}_share": ratio(count, self.served)
               for shape, count in sorted(self.shapes.items())},
        }


def per_layer(outcome, tracer, gate_failed_frac: float) -> dict[str, float]:
    """Every metric of :data:`METRICS` for one traced run."""
    since = outcome.serve_since
    spans = tracer.summary(since=since)
    setup = tracer.summary(until=since)
    counts = tracer.counts
    reports = outcome.traced_reports
    queries = sum(len(report.results) for report in reports)

    def self_ms(*names: str) -> float:
        return ratio(sum(spans.get(name, {}).get("self_s", 0.0)
                          for name in names) * 1000.0, queries)

    batches, sizes, dispatch, waits, timeouts = 0, [], [], [], 0
    rows_submitted = unique_rows = shed = 0
    busy: dict[str, float] = {}
    critical_path_s = 0.0
    for report in reports:
        stats = report.stats
        rows_submitted += stats.rows_submitted
        unique_rows += stats.unique_rows
        shed += stats.shed
        for unit, engine_reports in report.routes.items():
            if unit.endswith("@fallback"):
                continue
            for engine_report in engine_reports:
                for batch in engine_report.batches:
                    batches += 1
                    sizes.append(batch.num_queries)
                    dispatch.append(batch.latency_ms)
                    waits.extend(batch.queue_wait_ms)
                    timeouts += batch.timeout_flush
        if stats.workers:
            tallies = {worker: entry["busy_cpu_ms"]
                       for worker, entry in stats.workers.items()}
            for worker, value in tallies.items():
                busy[worker] = busy.get(worker, 0.0) + value
            critical_path_s += max(tallies.values()) / 1000.0

    shares = outcome.traffic.shares()
    fallback_calls = spans.get("estimators.sampling.estimate_selectivity", {})
    finetunes = tracer.durations("core.training.refresh",
                                 parent="serve.refresh.refresh", since=since)
    refreshes = spans.get("serve.refresh.refresh", {}).get("calls", 0)
    busy_mean = ratio(sum(busy.values()), len(busy))
    working_set = tracer.working_set().values()
    metrics = {
        "core.made.forward_calls_per_query": ratio(counts["made_calls"], queries),
        "core.made.rows_per_query": ratio(counts["made_rows"], queries),
        "core.made.self_ms_per_query": self_ms("core.made.conditional_probs"),
        "core.progressive.rows_submitted_per_query": ratio(rows_submitted, queries),
        "core.progressive.unique_rows_per_query": ratio(unique_rows, queries),
        "core.progressive.dedup_ratio": ratio(rows_submitted, unique_rows),
        "core.progressive.self_ms_per_query":
            self_ms("core.progressive.estimate_selectivity_batch"),
        "core.training.fit_s": sum(setup.get(name, {}).get("total_s", 0.0)
                                   for name in ("core.training.fit",
                                                "core.training.refresh")),
        "core.training.finetune_s": median(finetunes),
        "serve.cache.cond_hit_rate": ratio(counts["cond_hits"],
                                            counts["cond_lookups"]),
        "serve.cache.cond_evictions": counts["cond_evictions"],
        "serve.cache.cond_working_set": sum(count for count, _ in working_set),
        # The fullest cache: distinct prefixes it was asked for over its budget.
        "serve.cache.cond_working_set_vs_budget": max(
            (ratio(count, budget) for count, budget in working_set),
            default=0.0),
        "serve.cache.cond_self_ms_per_query": self_ms(
            "serve.cache.conditional_probs", "serve.cache.bulk_get",
            "serve.cache.bulk_put"),
        "serve.cache.result_hit_rate": ratio(counts["result_hits"],
                                              counts["result_lookups"]),
        "serve.cache.result_stale_rejects": counts["result_stale_rejects"],
        "serve.cache.result_ms_per_query": ratio(
            sum(spans.get(name, {}).get("total_s", 0.0)
                for name in ("serve.cache.result_get", "serve.cache.result_put"))
            * 1000.0, queries),
        "serve.engine.batches": batches,
        "serve.engine.mean_batch": ratio(sum(sizes), len(sizes)),
        "serve.engine.timeout_flushes": timeouts,
        "serve.engine.dispatch_ms_p50": quantile(dispatch, 0.50),
        "serve.engine.dispatch_ms_p99": quantile(dispatch, 0.99),
        "serve.engine.queue_wait_ms_p50": quantile(waits, 0.50),
        "serve.engine.queue_wait_ms_p99": quantile(waits, 0.99),
        "serve.router.submit_self_ms": ratio(
            spans.get("serve.router.submit", {}).get("self_s", 0.0) * 1000.0,
            spans.get("serve.router.submit", {}).get("calls", 0)),
        "serve.router.shed": shed,
        "serve.router.peak_pending": outcome.facts.get("open_phase", {}).get(
            "peak_pending", 0),
        "serve.router.fallback_share": shares["fallback_share"],
        "serve.loadgen.lateness_p99_ms": quantile(outcome.lateness_ms, 0.99),
        "serve.loadgen.max_lateness_ms": max(outcome.lateness_ms, default=0.0),
        "query.predicates.ie_terms_per_query": shares["ie_terms_per_query"],
        "query.predicates.dnf_share": shares.get("disjunctive_share", 0.0),
        "query.predicates.prefix_share": shares.get("prefix_share", 0.0),
        "query.predicates.conjunctive_share": shares.get("conjunctive_share", 0.0),
        "estimators.sampling.fallback_queries": fallback_calls.get("calls", 0),
        "estimators.sampling.fallback_ms_per_query": ratio(
            fallback_calls.get("total_s", 0.0) * 1000.0,
            fallback_calls.get("calls", 0)),
        "estimators.sampling.fallback_table_rows":
            outcome.facts.get("fallback_table_rows", 0),
        "estimators.sampling.relation_rows": outcome.facts.get("relation_rows", 0),
        "serve.refresh.ingest_s": median(tracer.durations("serve.refresh.ingest",
                                                           since=since)),
        "serve.refresh.drift_s": median(tracer.durations(
            "serve.refresh.drift_bits", since=since)),
        "serve.refresh.finetunes": len(finetunes),
        "serve.refresh.rebuilds": refreshes - len(finetunes),
        "serve.procfleet.spawn_s": median(outcome.facts.get("spawn_s", [])),
        "serve.procfleet.busy_cpu_ms_per_worker": busy_mean,
        "serve.procfleet.imbalance": ratio(max(busy.values(), default=0.0),
                                            busy_mean),
        "serve.procfleet.transport_ms_per_query": ratio(
            (outcome.traced_wall_s - critical_path_s) * 1000.0, queries)
            if busy else 0.0,
        "trace.overhead": ratio(
            ratio(outcome.traced_cost, outcome.traced_queries),
            ratio(outcome.untraced_cost, outcome.untraced_queries)),
        "trace.coverage": ratio(
            tracer.top_level_s(("serve.router.", "serve.procfleet."), since=since),
            outcome.traced_wall_s),
        "gate.failed_frac": gate_failed_frac,
        "gate.checked": outcome.gate.checked,
        "gate.max_drift": outcome.gate.max_drift,
    }
    return {name: metrics[name] for name in METRICS}
