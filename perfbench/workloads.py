"""The benchmark's four serving workloads.

Each workload builds its inputs from the run's seed, sets its system up
several times (the median is ``setup_s``), serves through one of the real
frontends for the requested number of seconds, gates every estimate
(:mod:`gate`) and returns an :class:`Outcome`.  The relations and models are
the same on every seed; the seed picks the queries and arrival times, so the
runs of one workload differ only in the traffic they serve.

In a traced run the serving loop alternates untraced and traced stretches
of the same traffic on the same system: the traced stretches give the
per-layer split, the untraced ones the baseline for ``trace.overhead``.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import NaruConfig, NaruEstimator
from repro.data import JoinSpec, make_dmv, make_sessions, make_users
from repro.data.shift import (PartitionedIngest, encode_with_dictionaries,
                              partition_by_column)
from repro.estimators import SamplingEstimator
from repro.query import WorkloadGenerator, q_error, true_selectivity
from repro.serve import (AdmissionError, FleetRouter, ModelRegistry,
                         ProcessFleet, RefreshController, RoutingError,
                         generate_mixed_workload, generate_shape_workload,
                         poisson_arrivals, run_open_loop, stream_workload)
from repro.serve.cache import canonical_query_key

from gate import Gate
from host import HostSpeed
from layers import Traffic, quantile

#: Base seed of the per-query random streams inside the fleet.
SERVE_SEED = 0
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Ingest + refresh rounds behind ``refresh_s`` on workloads whose traffic
#: has no writes of its own.
REFRESH_ROUNDS = 5
#: Host probes on each side of a set-up or a refresh; the section is scaled
#: by the median of the SECTION_PROBES probes centred on it.
PROBE_REPEATS = 5
SECTION_PROBES = 41
#: Closed-loop requests take one probe on each side and are scaled by the
#: median of the REQUEST_PROBES probes centred on them (about ten requests).
REQUEST_PROBES = 21
#: Seed offset of warm-up traffic, disjoint from every timed seed.
WARM_SEED = 1_000_003
#: Seed of the fixed accuracy set behind ``qerror_*``: the same queries on
#: every run, so the figures move only when the estimates do.
ACCURACY_SEED = 2_000_003
#: Size of each workload's fixed accuracy set.
ACCURACY_QUERIES = {"dmv-distinct": 96, "fleet-hot-open": 384,
                    "dmv-ingest-shapes": 96, "procfleet-mixed": 384}

# dmv-distinct and dmv-ingest-shapes: the paper's DMV relation.
DMV_ROWS = 6_000
DMV_CONFIG = dict(hidden_sizes=(64, 64), batch_size=256, seed=0)
DMV_EPOCHS = 2
DMV_SAMPLES = 500
DMV_BATCH = 4
#: Queries per closed-loop request of the one caller (one micro-batch).
DMV_CHUNK = 4
DMV_E2E_LIMIT_MS = 1_000.0

# dmv-ingest-shapes.
INGEST_PARTITIONS = 4
INGEST_EPOCHS = 4
INGEST_SAMPLES = 300
#: Queries the replays after each write draw from; more than they reach.
INGEST_POOL = 512
INGEST_FALLBACK_SAMPLE = 1_000
#: One query per request: a request's latency is then its own query's cost,
#: not that of the costliest disjunction batched beside it.
INGEST_BATCH = 1
INGEST_E2E_LIMIT_MS = 2_000.0

# fleet-hot-open and procfleet-mixed: users, sessions and their join.
FLEET_USERS = 600
FLEET_SESSIONS = 6_000
FLEET_CONFIG = dict(hidden_sizes=(64, 64), batch_size=256, seed=0)
FLEET_EPOCHS = 2
FLEET_SAMPLES = 400
FLEET_BATCH = 8
FLEET_REPLICAS = 2

# fleet-hot-open: a fixed absolute open-loop rate and e2e limit, never
# recalibrated from the host's measured capacity.
HOT_OPEN_QPS = 3_000.0
HOT_E2E_LIMIT_MS = 100.0
HOT_FLUSH_AFTER_MS = 10.0
HOT_MAX_PENDING = 32
HOT_POOL = 400
HOT_ZIPF = 1.1
#: Queries per request of the steady phase's one caller, and how many of
#: them are novel: the rest are Zipf draws from the pool, warmed before
#: timing, so every request carries the same number of result-cache misses.
HOT_CHUNK = 32
HOT_FRESH = 6
#: Every HOT_OPEN_FRESH-th arrival of the open phase is a novel query.
HOT_OPEN_FRESH = 64
#: Share of the run in the steady phase; the rest is the open phase.
HOT_STEADY_SHARE = 0.7

# procfleet-mixed.
PROC_CHUNK = 48
PROC_E2E_LIMIT_MS = 1_000.0

#: Primary estimates replayed against the sequential reference per run.
GATE_CHECKS = {"dmv-distinct": 8, "fleet-hot-open": 24,
               "dmv-ingest-shapes": 6, "procfleet-mixed": 24}


@dataclass
class Outcome:
    """Everything one run measured, before it is turned into metrics."""

    workload: str
    gate: Gate | None = None
    setup_s: list[float] = field(default_factory=list)
    refresh_s: list[float] = field(default_factory=list)
    #: Queries offered in the timed region, and those that failed (typed
    #: refusals and errors of closed-loop requests; gate mismatches are added
    #: later; open-loop sheds miss goodput instead).
    attempted: int = 0
    failed: int = 0
    untyped_errors: list[str] = field(default_factory=list)
    #: Results and wall time of the closed-loop requests.
    completed: int = 0
    serve_wall_s: float = 0.0
    #: Latency of every closed-loop query an estimator answered.
    latencies_ms: list[float] = field(default_factory=list)
    #: Completions within the workload's e2e limit, over ``good_window_s``.
    good: int = 0
    good_window_s: float = 0.0
    #: q-errors of the fixed accuracy set, and of the timed traffic.
    qerrors: list[float] = field(default_factory=list)
    served_qerrors: list[float] = field(default_factory=list)
    model_bytes: int = 0
    #: Shares of the traffic served in the timed region, all phases.
    traffic: Traffic = field(default_factory=Traffic)
    #: Submission lateness of every open-loop query, ms.
    lateness_ms: list[float] = field(default_factory=list)
    #: Workload-specific facts recorded beside the metrics.
    facts: dict = field(default_factory=dict)
    #: Traced-run bookkeeping: reports of the traced stretches, the wall
    #: time and query count of traced vs untraced closed-loop requests, and
    #: the wall time of every traced stretch.
    traced_reports: list = field(default_factory=list)
    traced_cost: float = 0.0
    traced_queries: int = 0
    untraced_cost: float = 0.0
    untraced_queries: int = 0
    traced_wall_s: float = 0.0
    #: Position of the first span recorded after set-up.
    serve_since: int = 0
    #: Timings of closed sections (set-up, refresh, closed-loop requests)
    #: are kept at the reference host speed; ``raw`` holds them as measured.
    #: Until :func:`run` scales them once every probe is taken, ``sections``
    #: holds ``(kind, probe position, wall)`` of set-ups and refreshes and
    #: ``requests`` ``(probe position, wall, estimator-answered e2e ms,
    #: result-cache hits, e2e limit)`` of closed-loop requests.
    host: HostSpeed = field(default_factory=HostSpeed)
    sections: list = field(default_factory=list)
    requests: list = field(default_factory=list)
    raw: dict = field(default_factory=lambda: {
        "setup_s": [], "refresh_s": [], "serve_wall_s": 0.0, "latencies_ms": []})


class _Truth:
    """Exact selectivities from the executor, memoised per serving epoch."""

    def __init__(self, registry) -> None:
        self.registry = registry
        self._memo: dict[tuple, float] = {}

    def qerrors(self, results) -> list[float]:
        errors = []
        for result in results:
            relation = self.registry.relation(result.route)
            key = (canonical_query_key(result.query, route=result.route),
                   self.registry.serving_epoch(result.route))
            truth = self._memo.get(key)
            if truth is None:
                truth = self._memo[key] = true_selectivity(relation, result.query)
            errors.append(q_error(result.cardinality, truth * relation.num_rows))
        return errors


def _novel(queries, seen: set) -> list:
    """Drop queries whose canonical form was already generated this run."""
    fresh = []
    for query in queries:
        key = canonical_query_key(query, route=query.table)
        if key not in seen:
            seen.add(key)
            fresh.append(query)
    return fresh


def _traced(tracer, on: bool = True):
    return tracer if tracer is not None and on else contextlib.nullcontext()


def _bracket(outcome: Outcome, call, repeats: int = PROBE_REPEATS):
    """Run ``call`` between host probes; return (result, wall s, position).

    Nothing of the program runs while a probe does (closed sections only),
    so the probes see the host, not the program.  ``position`` is that of
    the first probe after ``call``, the centre of the probes around it.
    """
    outcome.host.take(repeats)
    start = time.perf_counter()
    result = call()
    wall = time.perf_counter() - start
    return result, wall, outcome.host.take(repeats)


def _setups(build, outcome: Outcome, tracer):
    """Run ``build`` SETUP_REPEATS times (once when traced); keep the last.

    ``build`` returns ``(system, close)``; every earlier system is closed
    before the next one is built, so only one is alive at a time.
    """
    repeats = 1 if tracer is not None else SETUP_REPEATS
    def traced_build():
        with _traced(tracer):
            return build()

    for attempt in range(repeats):
        gc.collect()  # the benchmark's own garbage is not the program's cost
        (system, close), wall, position = _bracket(outcome, traced_build)
        outcome.raw["setup_s"].append(wall)
        outcome.sections.append(("setup_s", position, wall))
        if attempt + 1 < repeats:
            close()
            system = close = None  # free it before the next build
    if tracer is not None:
        outcome.serve_since = tracer.checkpoint()
    return system


def _account(outcome: Outcome, traced: bool, report, queries: int,
             wall: float) -> None:
    """Book one closed-loop request for ``trace.overhead`` and the split."""
    if traced:
        outcome.traced_reports.append(report)
        outcome.traced_cost += wall
        outcome.traced_queries += queries
        outcome.traced_wall_s += wall
    else:
        outcome.untraced_cost += wall
        outcome.untraced_queries += queries


def _serve_closed(outcome: Outcome, serve_chunk, chunks, budget_s: float,
                  tracer, limit_ms: float | None, gate: Gate, truth: _Truth,
                  stretch: int = 0) -> int:
    """One caller, closed loop: submit a chunk, wait for its answers, repeat.

    ``serve_chunk`` serves one request through the frontend and returns
    its report; it must look the frontend's method up on each call, so the
    tracing shims apply.  Serves for ``budget_s`` seconds of serving wall time, or
    until ``chunks`` runs out; a traced run traces every other chunk.
    Completions within ``limit_ms`` count towards goodput (``None``: the
    workload takes goodput elsewhere).  Returns the stretch counter to
    continue the traced/untraced alternation from.
    """
    gc.collect()
    spent = 0.0
    while spent < budget_s:
        chunk = next(chunks, None)
        if chunk is None:
            break
        traced = tracer is not None and stretch % 2 == 1
        stretch += 1
        outcome.attempted += len(chunk)

        def serve():
            with _traced(tracer, traced):
                try:
                    return serve_chunk(chunk)
                except (AdmissionError, RoutingError):
                    return None  # a typed refusal: counted as failed below
                except Exception as error:  # an untyped failure fails the run
                    outcome.untyped_errors.append(
                        f"{type(error).__name__}: {error}")
                    return None

        report, wall, position = _bracket(outcome, serve, repeats=1)
        spent += wall
        outcome.raw["serve_wall_s"] += wall
        results = report.results if report is not None else []
        outcome.failed += len(chunk) - len(results)
        if report is None:
            continue
        outcome.completed += len(results)
        # Result-cache hits never reach an estimator: they count as good
        # completions but stay out of the latency percentiles.
        e2e = [result.e2e_ms for result in results
               if not result.from_result_cache]
        outcome.raw["latencies_ms"].extend(e2e)
        outcome.requests.append((position, wall, e2e, len(results) - len(e2e),
                                 limit_ms))
        _account(outcome, traced, report, len(results), wall)
        gate.observe(results)
        outcome.served_qerrors.extend(truth.qerrors(results))
        outcome.traffic.add(results)
    return stretch


def _accuracy(outcome: Outcome, registry, queries, *, num_samples: int,
              batch_size: int) -> None:
    """q-errors of a fixed query set, outside the timed region.

    Served by a fresh in-process router without a result cache, so every
    estimate is the model's own answer at a fixed ``(seed, index)`` and the
    q-errors are the same on every run of the same program.  The q-errors
    of the timed traffic (taken at serve time) depend on the seed; they are
    recorded as facts.
    """
    served = outcome.served_qerrors
    if served:
        outcome.facts["served_qerror_p50"] = float(np.quantile(served, 0.50))
        outcome.facts["served_qerror_p99"] = float(np.quantile(served, 0.99))
    router = FleetRouter(registry, batch_size=batch_size,
                         num_samples=num_samples, seed=SERVE_SEED)
    outcome.qerrors = _Truth(registry).qerrors(router.run(queries).results)


def _refresh(outcome: Outcome, controller, name: str, rows, tracer) -> None:
    """One write: ``RefreshController.ingest`` then ``refresh``, timed."""
    def write():
        with _traced(tracer):
            controller.ingest(name, rows)
            controller.refresh(name)

    _, wall, position = _bracket(outcome, write)
    outcome.raw["refresh_s"].append(wall)
    outcome.sections.append(("refresh_s", position, wall))


def _refresh_rounds(outcome: Outcome, registry, name: str, column: str,
                    tracer) -> None:
    """REFRESH_ROUNDS ingests of a 5% slice of the relation, each refreshed.

    ``refresh_s`` is the time from rows landing to the relation serving a
    refreshed model version: ``RefreshController.ingest`` + ``refresh``.
    """
    controller = RefreshController(registry, max_staleness=0)
    slices = partition_by_column(registry.relation(name), column, 20)
    for part in slices[:REFRESH_ROUNDS]:
        gc.collect()
        _refresh(outcome, controller, name, part, tracer)


# --------------------------------------------------------------------------- #
# dmv-distinct
# --------------------------------------------------------------------------- #
def _dmv_generator(table, seed: int) -> WorkloadGenerator:
    """The paper's Table 3 query shape: 5 to 11 filters."""
    return WorkloadGenerator(table, min_filters=5,
                             max_filters=min(11, table.num_columns), seed=seed)


def _dmv_queries(table, count: int, seed: int) -> list:
    return [query.qualified("dmv")
            for query in _dmv_generator(table, seed).generate(count)]


def dmv_distinct(seed: int, seconds: float, tracer) -> Outcome:
    """Closed loop, one caller, never-repeating DMV conjunctions."""
    outcome = Outcome("dmv-distinct")
    table = make_dmv(DMV_ROWS)
    seen: set = set()

    def chunks(generator_seed: int):
        generator = _dmv_generator(table, generator_seed)
        while True:
            fresh = _novel([query.qualified("dmv")
                            for query in generator.generate(DMV_CHUNK)], seen)
            if fresh:
                yield fresh

    def build():
        registry = ModelRegistry(default_config=NaruConfig(
            epochs=DMV_EPOCHS, progressive_samples=DMV_SAMPLES, **DMV_CONFIG))
        registry.register_table(make_dmv(DMV_ROWS), name="dmv")
        registry.fit_all()
        router = FleetRouter(registry, batch_size=DMV_BATCH,
                             num_samples=DMV_SAMPLES, seed=SERVE_SEED,
                             result_cache=True)
        warm = router.run(next(chunks(WARM_SEED + seed)))
        return (registry, router, warm), lambda: None

    registry, router, warm = _setups(build, outcome, tracer)
    outcome.gate = gate = Gate(registry, num_samples=DMV_SAMPLES,
                               seed=SERVE_SEED,
                               sample_rng=np.random.default_rng(seed))
    gate.observe(warm.results)
    gate.settle(0)
    _serve_closed(outcome, lambda chunk: router.run(chunk), chunks(seed),
                  seconds, tracer, DMV_E2E_LIMIT_MS, gate, _Truth(registry))
    gate.settle(GATE_CHECKS["dmv-distinct"])
    _accuracy(outcome, registry,
              _dmv_queries(table, ACCURACY_QUERIES["dmv-distinct"], ACCURACY_SEED),
              num_samples=DMV_SAMPLES, batch_size=DMV_BATCH)
    outcome.model_bytes = registry.size_bytes()
    _refresh_rounds(outcome, registry, "dmv", "valid_date", tracer)
    return outcome


# --------------------------------------------------------------------------- #
# users / sessions / join fleet shared by fleet-hot-open and procfleet-mixed
# --------------------------------------------------------------------------- #
def _fleet_registry() -> ModelRegistry:
    registry = ModelRegistry(default_config=NaruConfig(
        epochs=FLEET_EPOCHS, progressive_samples=FLEET_SAMPLES, **FLEET_CONFIG))
    registry.register_table(make_users(FLEET_USERS), replicas=FLEET_REPLICAS)
    registry.register_table(make_sessions(FLEET_SESSIONS, num_users=FLEET_USERS),
                            replicas=FLEET_REPLICAS)
    registry.register_join(JoinSpec("sessions", "users", "user_id", "user_id"),
                           replicas=FLEET_REPLICAS)
    registry.fit_all()
    return registry


def _fleet_queries(registry, count: int, seed: int) -> list:
    queries = generate_mixed_workload(
        {name: registry.relation(name) for name in registry.names},
        count, min_filters=2, max_filters=5, seed=seed)
    return _novel(queries, set())


# --------------------------------------------------------------------------- #
# fleet-hot-open
# --------------------------------------------------------------------------- #
def _zipf_stream(ranked: list, count: int, rng) -> list:
    """``count`` draws from ``ranked`` (most popular first), Zipf(HOT_ZIPF)."""
    weights = np.arange(1, len(ranked) + 1, dtype=float) ** -HOT_ZIPF
    picks = rng.choice(len(ranked), size=count, p=weights / weights.sum())
    return [ranked[pick] for pick in picks]


def _open_phase(router, queries, rate: float, duration: float, seed: int):
    """One ``run_open_loop`` call at a fixed rate.

    Returns the loop's result plus, per answered query, its open-loop
    latency (completion minus *scheduled* arrival, as ``run_open_loop``
    measures it) and its submission lateness, both in ms.  Completion times
    come from the router's ``on_result`` observer.
    """
    arrivals = poisson_arrivals(rate, duration, seed=seed)
    done: dict[int, float] = {}
    router.on_result = lambda result: done.__setitem__(result.index,
                                                       router.clock())
    try:
        result = run_open_loop(router, queries, arrivals, duration_s=duration)
    finally:
        router.on_result = None
    submitted = {r.index: done[r.index] - r.e2e_ms / 1000.0
                 for r in result.report.results}
    # The loop's own start instant is not exported; the earliest
    # submission relative to its schedule bounds it (lateness >= 0).
    start = min((at - arrivals[index] for index, at in submitted.items()),
                default=0.0)
    e2e = [(done[index] - start - arrivals[index]) * 1000.0
           for index in submitted]
    lateness = [(at - start - arrivals[index]) * 1000.0
                for index, at in submitted.items()]
    return result, len(arrivals), e2e, lateness


def fleet_hot_open(seed: int, seconds: float, tracer) -> Outcome:
    """Zipf traffic: a streamed closed loop, then an open loop at a fixed rate."""
    outcome = Outcome("fleet-hot-open")

    def build():
        registry = _fleet_registry()
        router = FleetRouter(registry, batch_size=FLEET_BATCH,
                             num_samples=FLEET_SAMPLES, seed=SERVE_SEED,
                             result_cache=True, max_pending=HOT_MAX_PENDING,
                             overflow="shed", flush_after_ms=HOT_FLUSH_AFTER_MS)
        warm = stream_workload(router, _fleet_queries(registry, HOT_CHUNK,
                                                      WARM_SEED + seed))
        return (registry, router, warm), lambda: None

    registry, router, warm = _setups(build, outcome, tracer)
    outcome.gate = gate = Gate(registry, num_samples=FLEET_SAMPLES,
                               seed=SERVE_SEED,
                               sample_rng=np.random.default_rng(seed))
    gate.observe(warm.results)
    gate.settle(0)
    rng = np.random.default_rng(seed)
    # The seed also ranks the pool: one popularity order for the whole run.
    pool = _fleet_queries(registry, HOT_POOL, seed)
    pool = [pool[position] for position in rng.permutation(len(pool))]

    # The whole pool is served once before timing, so pool draws are hits
    # from the first request on and the steady phase is stationary.
    seen: set = set()
    _novel(pool, seen)
    for start in range(0, len(pool), HOT_CHUNK):
        gate.observe(stream_workload(router, pool[start:start + HOT_CHUNK]).results)

    # Novel queries, never served before in this run: the only result-cache
    # misses of the timed region, mixed into both phases at a fixed rate.
    novel = itertools.chain.from_iterable(
        _novel(_fleet_queries(registry, 8 * HOT_CHUNK,
                              seed * 1_000 + generation), seen)
        for generation in itertools.count())

    def requests():
        # Steady phase: one caller streams HOT_CHUNK-query requests through
        # the asyncio client and waits for each; HOT_FRESH novel queries at
        # random positions per request keep the engines, their flush
        # deadlines and queue waits busy at a constant rate.  (Open-loop
        # latency percentiles at a fixed rate spread 0.3-0.9 IQR/median
        # across seeds on a shared 2-vCPU host, wider than any usable bound;
        # the open loop is kept below for goodput, lateness and shedding.)
        while True:
            chunk = _zipf_stream(pool, HOT_CHUNK - HOT_FRESH, rng)
            for position in rng.integers(0, HOT_CHUNK - HOT_FRESH + 1, HOT_FRESH):
                chunk.insert(int(position), next(novel))
            yield chunk

    _serve_closed(outcome, lambda chunk: stream_workload(router, chunk),
                  requests(), seconds * HOT_STEADY_SHARE, tracer, None, gate,
                  _Truth(registry))
    gate.settle(GATE_CHECKS["fleet-hot-open"] // 2)

    # Open phase: open loop at a fixed rate; goodput counts completions
    # within the e2e limit.  Every HOT_OPEN_FRESH-th arrival is a novel
    # query, so first sightings keep reaching the engines (and their flush
    # deadlines) at a constant rate while the Zipf head stays cached.
    length = seconds * (1 - HOT_STEADY_SHARE)
    stream = _zipf_stream(pool, int(HOT_OPEN_QPS * length * 2) + 64, rng)
    for position in range(HOT_OPEN_FRESH - 1, len(stream), HOT_OPEN_FRESH):
        stream[position] = next(novel)
    gc.collect()
    with _traced(tracer):
        result, offered, e2e, lateness = _open_phase(
            router, stream, HOT_OPEN_QPS, length, seed)
    results = result.report.results
    if tracer is not None:
        outcome.traced_reports.append(result.report)
        outcome.traced_wall_s += result.wall_s
    outcome.attempted += offered  # sheds here miss goodput, not the gate
    outcome.good = sum(value <= HOT_E2E_LIMIT_MS for value in e2e)
    outcome.good_window_s = length
    outcome.lateness_ms = lateness
    outcome.facts["open_phase"] = {
        "offered_qps": HOT_OPEN_QPS, "offered": offered,
        "completed": len(results), "shed": result.shed,
        "peak_pending": result.peak_pending,
        "max_lateness_ms": result.max_lateness_ms,
        "e2e_p50_ms": quantile(e2e, 0.50), "e2e_p99_ms": quantile(e2e, 0.99)}
    gate.observe(results)
    gate.settle(GATE_CHECKS["fleet-hot-open"] // 2)
    outcome.served_qerrors.extend(_Truth(registry).qerrors(results))
    outcome.traffic.add(results)
    _accuracy(outcome, registry,
              _fleet_queries(registry, ACCURACY_QUERIES["fleet-hot-open"],
                             ACCURACY_SEED),
              num_samples=FLEET_SAMPLES, batch_size=FLEET_BATCH)
    outcome.model_bytes = registry.size_bytes()
    _refresh_rounds(outcome, registry, "sessions", "user_id", tracer)
    return outcome


# --------------------------------------------------------------------------- #
# dmv-ingest-shapes
# --------------------------------------------------------------------------- #
def _shape_pool(table, count: int, seed: int) -> list:
    """``count`` DMV queries of the shape mix, stratified in blocks of 8.

    Every block holds 4 conjunctions, 2 ``LIKE`` prefixes and 2
    disjunctions whose branch counts cycle through 2, 4 and 6 (6 exceeds
    Naru's ``max_dnf_branches`` and goes to the fallback), so any prefix a
    cycle replays carries the same mix whatever the seed.
    """
    blocks = -(-count // 8)

    def shapes(number: int, offset: int, **mix) -> list:
        return generate_shape_workload({"dmv": table}, number, min_filters=3,
                                       max_filters=6, seed=seed * 8 + offset,
                                       **mix)

    conjunctions = iter(shapes(4 * blocks, 0, dnf_fraction=0.0, like_fraction=0.0))
    prefixes = iter(shapes(2 * blocks, 1, dnf_fraction=0.0, like_fraction=1.0))
    disjunctions = {branches: iter(shapes(blocks, branches, dnf_fraction=1.0,
                                          like_fraction=0.0,
                                          dnf_branches=branches))
                    for branches in (2, 4, 6)}
    pool = []
    for block in range(blocks):
        counts = [(2, 4, 6)[(2 * block + k) % 3] for k in (0, 1)]
        for source in ("c", "l", "c", 0, "c", "l", "c", 1):
            if source == "c":
                pool.append(next(conjunctions))
            elif source == "l":
                pool.append(next(prefixes))
            else:
                pool.append(next(disjunctions[counts[source]]))
    return pool[:count]


def dmv_ingest_shapes(seed: int, seconds: float, tracer) -> Outcome:
    """Partition-by-partition ingest with a shape-mixed read load between writes."""
    outcome = Outcome("dmv-ingest-shapes")
    table = make_dmv(DMV_ROWS)

    def build():
        ingest = PartitionedIngest(table, "valid_date", INGEST_PARTITIONS)
        visible = ingest.ingest_next()
        # Full-table dictionaries ("domain from user annotation", §6.7.3),
        # weights trained on the first partition only, so every later
        # ingest takes the fine-tune path.
        estimator = NaruEstimator(table, NaruConfig(
            epochs=0, progressive_samples=INGEST_SAMPLES, **DMV_CONFIG))
        estimator.fit(epochs=0)
        estimator.refresh(encode_with_dictionaries(table, visible),
                          epochs=INGEST_EPOCHS)
        estimator.set_row_count(visible.num_rows)
        registry = ModelRegistry(default_config=estimator.config)
        registry.register_table(visible, name="dmv", estimator=estimator,
                                fallback=SamplingEstimator(
                                    visible, sample_size=INGEST_FALLBACK_SAMPLE,
                                    seed=0))
        controller = RefreshController(registry, max_staleness=0)
        router = FleetRouter(registry, batch_size=INGEST_BATCH,
                             num_samples=INGEST_SAMPLES, seed=SERVE_SEED,
                             result_cache=True)
        warm = router.run(_shape_pool(table, 8, WARM_SEED + seed))
        return (ingest, registry, controller, router, warm), lambda: None

    ingest, registry, controller, router, warm = _setups(build, outcome, tracer)
    outcome.gate = gate = Gate(registry, num_samples=INGEST_SAMPLES,
                               seed=SERVE_SEED,
                               sample_rng=np.random.default_rng(seed))
    gate.observe(warm.results)
    gate.settle(0)
    truth = _Truth(registry)
    pool = _shape_pool(table, INGEST_POOL, seed)
    chunks = [pool[start:start + INGEST_BATCH]
              for start in range(0, len(pool), INGEST_BATCH)]
    stale_before = router.result_cache.stats.as_dict()["lifetime"]["stale_rejects"]
    cycles = ingest.remaining()
    stretch = start = 0
    for _ in range(cycles):
        part = ingest.partitions[ingest.num_ingested]
        ingest.ingest_next()
        gc.collect()
        _refresh(outcome, controller, "dmv", part, tracer)
        # Between writes the pool is replayed from halfway through the
        # previous replay: every write leaves the result cache holding only
        # stale entries, half of the replay asks for them again and half is
        # new to the run, so the latencies rest on more distinct queries.
        before = outcome.attempted
        stretch = _serve_closed(outcome, lambda chunk: router.run(chunk),
                                iter(chunks[start:]), seconds / cycles, tracer,
                                INGEST_E2E_LIMIT_MS, gate, truth, stretch)
        start += (outcome.attempted - before) // (2 * INGEST_BATCH)
        gate.settle(GATE_CHECKS["dmv-ingest-shapes"] // cycles)
    _accuracy(outcome, registry,
              _shape_pool(table, ACCURACY_QUERIES["dmv-ingest-shapes"],
                          ACCURACY_SEED),
              num_samples=INGEST_SAMPLES, batch_size=DMV_BATCH)
    outcome.model_bytes = registry.size_bytes()
    outcome.facts.update({
        "result_stale_rejects": router.result_cache.stats.as_dict()
        ["lifetime"]["stale_rejects"] - stale_before,
        # RefreshController.refresh re-registers the relation but keeps the
        # fallback built at registration: its table stays the first partition.
        "fallback_table_rows": registry.fallback("dmv").table.num_rows,
        "relation_rows": registry.relation("dmv").num_rows,
    })
    return outcome


# --------------------------------------------------------------------------- #
# procfleet-mixed
# --------------------------------------------------------------------------- #
def procfleet_mixed(seed: int, seconds: float, tracer) -> Outcome:
    """Closed loop, one caller, distinct mixed queries over worker processes."""
    outcome = Outcome("procfleet-mixed")
    workers = os.cpu_count() or 1
    outcome.facts["workers"] = workers

    def build():
        registry = _fleet_registry()
        start = time.perf_counter()
        fleet = ProcessFleet(registry, workers=workers, batch_size=FLEET_BATCH,
                             num_samples=FLEET_SAMPLES, seed=SERVE_SEED)
        outcome.facts.setdefault("spawn_s", []).append(
            time.perf_counter() - start)
        try:
            warm = fleet.run(_fleet_queries(registry, PROC_CHUNK,
                                            WARM_SEED + seed))
        except BaseException:
            fleet.close()
            raise
        return (registry, fleet, warm), fleet.close

    registry, fleet, warm = _setups(build, outcome, tracer)
    seen: set = set()

    def chunks():
        for generation in itertools.count():
            fresh = _novel(_fleet_queries(registry, PROC_CHUNK,
                                          seed * 1_000 + generation), seen)
            if fresh:
                yield fresh

    try:
        outcome.gate = gate = Gate(registry, num_samples=FLEET_SAMPLES,
                                   seed=SERVE_SEED,
                                   sample_rng=np.random.default_rng(seed))
        gate.observe(warm.results)
        gate.settle(0)
        _serve_closed(outcome, lambda chunk: fleet.run(chunk), chunks(),
                      seconds, tracer, PROC_E2E_LIMIT_MS, gate,
                      _Truth(registry))
    finally:
        fleet.close()
    gate.settle(GATE_CHECKS["procfleet-mixed"])
    _accuracy(outcome, registry,
              _fleet_queries(registry, ACCURACY_QUERIES["procfleet-mixed"],
                             ACCURACY_SEED),
              num_samples=FLEET_SAMPLES, batch_size=FLEET_BATCH)
    outcome.model_bytes = registry.size_bytes()
    _refresh_rounds(outcome, registry, "sessions", "user_id", tracer)
    return outcome


def _scale(outcome: Outcome) -> None:
    """Express the closed sections and requests at the reference host speed.

    Each is divided by the host's slowdown around it, once all the run's
    probes are taken, so the probes after it count as much as those before.
    """
    host = outcome.host
    for kind, position, wall in outcome.sections:
        getattr(outcome, kind).append(wall / host.around(position,
                                                         SECTION_PROBES))
    for position, wall, e2e, hits, limit_ms in outcome.requests:
        factor = host.around(position, REQUEST_PROBES)
        outcome.serve_wall_s += wall / factor
        outcome.latencies_ms.extend(value / factor for value in e2e)
        if limit_ms is not None:
            # Result-cache hits are answered at submission: good completions.
            outcome.good_window_s += wall / factor
            outcome.good += hits + sum(value / factor <= limit_ms
                                       for value in e2e)


def run(workload: str, seed: int, seconds: float, tracer) -> Outcome:
    """Serve ``workload`` and return its outcome, timings host-scaled."""
    outcome = WORKLOADS[workload](seed, seconds, tracer)
    _scale(outcome)
    return outcome


WORKLOADS = {
    "dmv-distinct": dmv_distinct,
    "fleet-hot-open": fleet_hot_open,
    "dmv-ingest-shapes": dmv_ingest_shapes,
    "procfleet-mixed": procfleet_mixed,
}


def parameters(workload: str) -> dict:
    """The fixed parameters a workload runs with, for the run record."""
    dmv = {"rows": DMV_ROWS, "hidden": DMV_CONFIG["hidden_sizes"],
           "batch": DMV_BATCH, "chunk": DMV_CHUNK}
    fleet = {"users": FLEET_USERS, "sessions": FLEET_SESSIONS,
             "hidden": FLEET_CONFIG["hidden_sizes"], "epochs": FLEET_EPOCHS,
             "samples": FLEET_SAMPLES, "batch": FLEET_BATCH,
             "replicas": FLEET_REPLICAS}
    return {
        "dmv-distinct": {**dmv, "epochs": DMV_EPOCHS, "samples": DMV_SAMPLES,
                         "e2e_limit_ms": DMV_E2E_LIMIT_MS},
        "fleet-hot-open": {**fleet, "chunk": HOT_CHUNK, "fresh": HOT_FRESH,
                           "open_fresh_every": HOT_OPEN_FRESH,
                           "steady_share": HOT_STEADY_SHARE,
                           "open_qps": HOT_OPEN_QPS,
                           "e2e_limit_ms": HOT_E2E_LIMIT_MS,
                           "flush_after_ms": HOT_FLUSH_AFTER_MS,
                           "max_pending": HOT_MAX_PENDING, "pool": HOT_POOL,
                           "zipf": HOT_ZIPF},
        "dmv-ingest-shapes": {**dmv, "batch": INGEST_BATCH,
                              "chunk": INGEST_BATCH,
                              "partitions": INGEST_PARTITIONS,
                              "epochs": INGEST_EPOCHS,
                              "samples": INGEST_SAMPLES, "pool": INGEST_POOL,
                              "fallback_sample": INGEST_FALLBACK_SAMPLE,
                              "e2e_limit_ms": INGEST_E2E_LIMIT_MS},
        "procfleet-mixed": {**fleet, "chunk": PROC_CHUNK,
                            "e2e_limit_ms": PROC_E2E_LIMIT_MS},
    }[workload] | {"serve_seed": SERVE_SEED, "setup_repeats": SETUP_REPEATS,
                   "refresh_rounds": REFRESH_ROUNDS,
                   "accuracy_queries": ACCURACY_QUERIES[workload],
                   "gate_checks": GATE_CHECKS[workload]}
