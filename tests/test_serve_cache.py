"""Direct unit tests for the serving caches: eviction order, canonical keys
and the shared ``cache_entries`` budget split across models, replicas and the
fleet result cache."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NaruConfig
from repro.data import make_users
from repro.query import Operator, Predicate, Query
from repro.serve import (
    CachedConditionalModel,
    ConditionalProbCache,
    FleetRouter,
    ModelRegistry,
    PackedConditionalCache,
    ResultCache,
    canonical_query_key,
)

_CONFIG = NaruConfig(epochs=1, hidden_sizes=(8, 8), batch_size=128,
                     progressive_samples=30, seed=0)


class TestCanonicalQueryKey:
    def test_predicate_order_is_irrelevant(self):
        forward = Query.from_tuples([("a", "=", 1), ("b", "<=", 4)])
        backward = Query.from_tuples([("b", "<=", 4), ("a", "=", 1)])
        assert canonical_query_key(forward) == canonical_query_key(backward)

    def test_in_lists_deduplicate_and_sort(self):
        left = Query([Predicate("a", Operator.IN, ["x", "y", "x"])])
        right = Query([Predicate("a", Operator.IN, ["y", "x"])])
        assert canonical_query_key(left) == canonical_query_key(right)

    def test_numpy_scalars_unwrap(self):
        plain = Query.from_tuples([("a", "=", 3)])
        numpyish = Query.from_tuples([("a", "=", np.int64(3))])
        assert canonical_query_key(plain) == canonical_query_key(numpyish)
        between = Query([Predicate("a", Operator.BETWEEN,
                                   (np.int64(1), np.int64(5)))])
        assert canonical_query_key(between) == canonical_query_key(
            Query([Predicate("a", Operator.BETWEEN, (1, 5))]))

    def test_distinct_queries_stay_distinct(self):
        base = Query.from_tuples([("a", "=", 1)])
        assert canonical_query_key(base) != canonical_query_key(
            Query.from_tuples([("a", "=", 2)]))          # literal
        assert canonical_query_key(base) != canonical_query_key(
            Query.from_tuples([("a", "<=", 1)]))         # operator
        assert canonical_query_key(base) != canonical_query_key(
            Query.from_tuples([("b", "=", 1)]))          # column
        assert canonical_query_key(base) != canonical_query_key(
            Query.from_tuples([("a", "=", 1), ("b", "=", 1)]))  # extra filter

    def test_incomparable_literal_types_do_not_crash(self):
        # Two predicates on one column+operator with incomparable literals
        # (a contradictory but syntactically valid conjunction, e.g. from a
        # hand-written workload file) must canonicalise, not raise TypeError.
        mixed = Query.from_tuples([("a", "=", 1), ("a", "=", "x")])
        flipped = Query.from_tuples([("a", "=", "x"), ("a", "=", 1)])
        assert canonical_query_key(mixed) == canonical_query_key(flipped)
        ins = Query([Predicate("a", Operator.IN, [1, 2]),
                     Predicate("a", Operator.IN, ["x", "y"])])
        assert canonical_query_key(ins)  # just must not crash

    def test_route_wins_over_query_qualifier(self):
        query = Query.from_tuples([("a", "=", 1)], table="users")
        explicit = canonical_query_key(query, route="users")
        default_routed = canonical_query_key(
            Query.from_tuples([("a", "=", 1)]), route="users")
        assert explicit == default_routed
        assert canonical_query_key(query) == explicit  # falls back to .table
        assert canonical_query_key(query, route="other") != explicit


class TestResultCache:
    def test_lru_eviction_order(self):
        cache = ResultCache(max_entries=2)
        cache.put(("a",), 0.1)
        cache.put(("b",), 0.2)
        assert cache.get(("a",)) == 0.1        # refresh "a"
        cache.put(("c",), 0.3)                 # evicts "b", the LRU entry
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == 0.1
        assert cache.get(("c",)) == 0.3
        assert cache.stats.evictions == 1
        assert len(cache) == 2

    def test_zero_selectivity_is_a_hit_not_a_miss(self):
        cache = ResultCache()
        cache.put(("empty",), 0.0)
        assert cache.get(("empty",)) == 0.0
        assert cache.stats.hits == 1
        assert cache.stats.misses == 0

    def test_zero_capacity_disables_storage(self):
        cache = ResultCache(max_entries=0)
        cache.put(("a",), 0.5)
        assert cache.get(("a",)) is None
        assert len(cache) == 0

    def test_counters_and_contains(self):
        cache = ResultCache()
        assert cache.get(("a",)) is None
        cache.put(("a",), 0.4)
        assert ("a",) in cache
        assert ("b",) not in cache
        assert cache.get(("a",)) == 0.4
        assert cache.stats.lookups == 2
        assert cache.stats.hit_rate == pytest.approx(0.5)
        assert cache.stats.as_dict() == {
            "hits": 1, "misses": 1, "evictions": 0, "hit_rate": 0.5,
            "stale_rejects": 0,
            "lifetime": {"hits": 1, "misses": 1, "evictions": 0,
                         "stale_rejects": 0},
        }
        cache.clear()
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=-1)

    def test_epoch_mismatch_is_a_counted_miss(self):
        # The docstring contract: an entry stored at one epoch can never be
        # served at another — the lookup rejects it, drops it and counts it.
        cache = ResultCache()
        cache.put(("q",), 0.25, epoch=(0, 0))
        assert cache.get(("q",), epoch=(1, 0)) is None   # data epoch moved
        assert cache.stats.stale_rejects == 1
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0
        assert ("q",) not in cache                       # dropped, not kept
        cache.put(("q",), 0.5, epoch=(1, 0))
        assert cache.get(("q",), epoch=(1, 1)) is None   # model epoch moved
        assert cache.stats.stale_rejects == 2

    def test_matching_epoch_serves_and_epoch_of_peeks(self):
        cache = ResultCache()
        assert cache.epoch_of(("q",)) is None
        cache.put(("q",), 0.25, epoch=(2, 1))
        assert cache.epoch_of(("q",)) == (2, 1)
        assert cache.get(("q",), epoch=(2, 1)) == 0.25
        # epoch_of is a peek: it neither counts nor touches LRU order.
        assert cache.stats.lookups == 1

    def test_default_epoch_keeps_legacy_call_sites_valid(self):
        # Two-argument put / one-argument get (the pre-epoch API) agree on
        # the default epoch, so single-epoch users see plain LRU behaviour.
        cache = ResultCache()
        cache.put(("q",), 0.75)
        assert cache.get(("q",)) == 0.75
        assert cache.stats.stale_rejects == 0

    def test_clear_folds_scope_counters_into_lifetime(self):
        # Regression: clear() used to leave the scope counters untouched, so
        # a fleet's per-run stats bled across scope boundaries.  Now clear()
        # zeroes the scope counters while the lifetime rollup keeps the total.
        cache = ResultCache()
        cache.put(("a",), 0.1, epoch=0)
        assert cache.get(("a",), epoch=0) == 0.1     # 1 hit
        assert cache.get(("b",), epoch=0) is None    # 1 miss
        assert cache.get(("a",), epoch=1) is None    # 1 stale reject (+miss)
        cache.clear()
        assert cache.stats.hits == 0
        assert cache.stats.misses == 0
        assert cache.stats.stale_rejects == 0
        rollup = cache.stats.as_dict()["lifetime"]
        assert rollup == {"hits": 1, "misses": 2, "evictions": 0,
                          "stale_rejects": 1}
        # Post-clear activity lands in the fresh scope *and* the rollup.
        cache.put(("c",), 0.3, epoch=1)
        assert cache.get(("c",), epoch=1) == 0.3
        assert cache.stats.hits == 1
        assert cache.stats.as_dict()["lifetime"]["hits"] == 2


class TestSharedBudgetSplit:
    """One ``cache_entries`` budget, split across every cache in the fleet."""

    @pytest.fixture(scope="class")
    def registry(self):
        fleet = ModelRegistry(default_config=_CONFIG)
        fleet.register_table(make_users(num_users=60, seed=4))
        fleet.register_table(make_users(num_users=60, seed=5), name="users_b",
                             replicas=3)
        return fleet

    def test_split_counts_replicas(self, registry):
        # 1 + 3 replicas, no result cache: four equal slices.
        router = FleetRouter(registry, cache_entries=400)
        assert router.cache_entries_per_model == 100
        # Enabling the result cache adds a fifth slice.
        cached = FleetRouter(registry, cache_entries=400, result_cache=True)
        assert cached.cache_entries_per_model == 80
        assert cached.result_cache.max_entries == 80

    def test_replicas_pool_their_slices_into_one_group_cache(self, registry):
        router = FleetRouter(registry, cache_entries=400, result_cache=True)
        for route in registry.names:
            group = router.group(route)
            replicas = registry.replicas(route)
            assert len(group) == replicas
            # The group's conditional cache pools its replicas' slices (the
            # replicas front the same model, so entries are shareable) and
            # every engine uses that one cache.
            assert group.cache.max_entries == 80 * replicas
            for engine in group.engines:
                assert engine._cache is group.cache

    def test_budget_never_rounds_to_zero(self, registry):
        router = FleetRouter(registry, cache_entries=2, result_cache=True)
        assert router.cache_entries_per_model == 1

    def test_disabled_conditional_caches_free_their_slices(self, registry):
        # With use_cache=False the conditional caches do not exist, so the
        # result cache — the only cache storing anything — gets the whole
        # budget instead of a 1/(replicas+1) sliver.
        router = FleetRouter(registry, cache_entries=400, use_cache=False,
                             result_cache=True)
        assert router.result_cache.max_entries == 400

    def test_split_is_stable_after_retuning(self, registry):
        router = FleetRouter(registry, cache_entries=400)
        registry.set_replicas("users_b", 1)
        try:
            # The router sized its slices at construction; a later registry
            # re-tune does not shrink or grow the running caches.
            assert router.cache_entries_per_model == 100
            assert len(router.group("users_b")) == 3
        finally:
            registry.set_replicas("users_b", 3)


class TestPackedConditionalCache:
    """The vectorized store behind the deduplicating serve path."""

    def _distributions(self, keys):
        # A distinct, recognisable row per key so lookups are checkable.
        return np.stack([np.full(4, float(key)) for key in keys])

    def test_bulk_roundtrip_and_counters(self):
        cache = PackedConditionalCache()
        keys = np.array([40, 10, 30], dtype=np.int64)
        cache.bulk_put(0, keys, self._distributions(keys))
        probe = np.array([10, 20, 30, 40, 99], dtype=np.int64)
        found, values = cache.bulk_get(0, probe)
        np.testing.assert_array_equal(found, [True, False, True, True, False])
        np.testing.assert_allclose(values[:, 0], [10.0, 30.0, 40.0])
        assert len(cache) == 3
        assert cache.stats.hits == 3 and cache.stats.misses == 2

    def test_merge_insert_keeps_store_sorted(self):
        cache = PackedConditionalCache()
        first = np.array([50, 10], dtype=np.int64)
        second = np.array([30, 70, 5], dtype=np.int64)
        cache.bulk_put(2, first, self._distributions(first))
        cache.bulk_put(2, second, self._distributions(second))
        probe = np.array([5, 10, 30, 50, 70], dtype=np.int64)
        found, values = cache.bulk_get(2, probe)
        assert found.all()
        np.testing.assert_allclose(values[:, 0], probe.astype(float))

    def test_columns_are_independent(self):
        cache = PackedConditionalCache()
        keys = np.array([7], dtype=np.int64)
        cache.bulk_put(0, keys, self._distributions(keys))
        found, values = cache.bulk_get(1, keys)
        assert not found.any() and values is None

    def test_generational_eviction_bounds_size(self):
        cache = PackedConditionalCache(max_entries=8)
        for batch in range(6):
            keys = np.arange(batch * 4, batch * 4 + 4, dtype=np.int64)
            cache.bulk_put(0, keys, self._distributions(keys))
        assert len(cache) <= 8
        assert cache.stats.evictions > 0
        # The newest batch always survives an eviction sweep.
        newest = np.arange(20, 24, dtype=np.int64)
        found, _ = cache.bulk_get(0, newest)
        assert found.all()

    def test_oversized_put_does_not_wipe_out_the_store(self):
        cache = PackedConditionalCache(max_entries=8)
        older = np.arange(3, dtype=np.int64)
        newest = np.arange(10, 16, dtype=np.int64)
        cache.bulk_put(0, older, self._distributions(older))
        cache.bulk_put(0, newest, self._distributions(newest))
        # The newest batch holds more than half the entries, so the median
        # stamp is its own; it still fits the budget and must survive.
        assert len(cache) == 6
        assert cache.stats.evictions == 3
        found, values = cache.bulk_get(0, newest)
        assert found.all()
        np.testing.assert_array_equal(values[:, 0], newest.astype(float))

    def test_batch_larger_than_budget_terminates(self):
        cache = PackedConditionalCache(max_entries=4)
        keys = np.arange(10, dtype=np.int64)
        cache.bulk_put(0, keys[:2], self._distributions(keys[:2]))
        cache.bulk_put(1, keys, self._distributions(keys))
        assert len(cache) == 0
        assert cache.stats.evictions == 12

    def test_zero_capacity_disables_storage(self):
        cache = PackedConditionalCache(max_entries=0)
        keys = np.array([1, 2], dtype=np.int64)
        cache.bulk_put(0, keys, self._distributions(keys))
        found, values = cache.bulk_get(0, keys)
        assert not found.any() and values is None and len(cache) == 0

    def test_clear_and_negative_capacity(self):
        cache = PackedConditionalCache()
        keys = np.array([1], dtype=np.int64)
        cache.bulk_put(0, keys, self._distributions(keys))
        cache.clear()
        assert len(cache) == 0
        with pytest.raises(ValueError):
            PackedConditionalCache(max_entries=-1)

    def test_invalidate_drops_entries_and_stamps_epoch(self):
        cache = PackedConditionalCache()
        keys = np.array([1, 2], dtype=np.int64)
        cache.bulk_put(0, keys, self._distributions(keys))
        assert cache.epoch == 0
        cache.invalidate(3)
        assert cache.epoch == 3
        assert len(cache) == 0
        found, values = cache.bulk_get(0, keys)
        assert not found.any() and values is None

    def test_requires_assume_unique_wrapper(self, users_model):
        with pytest.raises(ValueError):
            CachedConditionalModel(users_model,
                                   cache=PackedConditionalCache())

    def test_wrapped_model_is_bit_exact(self, users_model, users_table):
        wrapped = CachedConditionalModel(users_model, assume_unique=True)
        assert isinstance(wrapped.cache, PackedConditionalCache)
        codes = users_table.encoded()[:64]
        for column in range(users_table.num_columns):
            unique_codes = np.unique(codes[:, :], axis=0)
            expected = users_model.conditional_probs(column, unique_codes)
            # Cold pass evaluates, warm pass must serve the same bits.
            cold = wrapped.conditional_probs(column, unique_codes)
            warm = wrapped.conditional_probs(column, unique_codes)
            assert np.array_equal(cold, expected)
            assert np.array_equal(warm, expected)
        assert wrapped.stats.hits > 0


class _ReferenceGenerationalStore:
    """Plain-dict model of PackedConditionalCache's generational policy."""

    def __init__(self, max_entries: int) -> None:
        self.max_entries = max_entries
        self.entries: dict[int, dict[int, tuple[np.ndarray, int]]] = {}
        self.clock = 0
        self.hits = self.misses = self.evictions = 0

    def __len__(self) -> int:
        return sum(len(column) for column in self.entries.values())

    def get(self, column, keys):
        stored = self.entries.get(column, {})
        found = np.array([int(key) in stored for key in keys], dtype=bool)
        self.hits += int(found.sum())
        self.misses += int((~found).sum())
        rows = [stored[int(key)][0] for key in keys if int(key) in stored]
        return found, (np.stack(rows) if rows else None)

    def put(self, column, keys, rows):
        if self.max_entries == 0 or len(keys) == 0:
            return
        stored = self.entries.setdefault(column, {})
        for key, row in zip(keys, rows):
            stored[int(key)] = (row.copy(), self.clock)
        self.clock += 1
        while len(self) > self.max_entries:
            stamps = [stamp for entries in self.entries.values()
                      for _, stamp in entries.values()]
            newest = self.clock - 1
            cutoff = min(float(np.median(stamps)), newest - 1)
            if min(stamps) > cutoff:
                cutoff = newest
            for entries in self.entries.values():
                for key in [key for key, (_, stamp) in entries.items()
                            if stamp <= cutoff]:
                    del entries[key]
                    self.evictions += 1

    def clear(self):
        self.entries.clear()


_DOMAINS = (2, 3, 5)

_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, len(_DOMAINS) - 1),
                  st.lists(st.integers(0, 40), max_size=12)),
        st.tuples(st.just("get"), st.integers(0, len(_DOMAINS) - 1),
                  st.lists(st.integers(0, 40), max_size=12)),
        st.tuples(st.just("invalidate"), st.just(0), st.just([]))),
    max_size=40)


def _arena_rows(cache: PackedConditionalCache) -> int:
    """Distribution rows allocated across every column's arena."""
    return sum(store.arena.shape[0] for store in cache._columns.values())


class TestPackedCacheAgainstReference:
    """Random put/get/invalidate interleavings against a plain-dict model."""

    @given(max_entries=st.integers(0, 16), operations=_OPERATIONS)
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_store(self, max_entries, operations):
        cache = PackedConditionalCache(max_entries=max_entries)
        reference = _ReferenceGenerationalStore(max_entries)
        serial = 0
        for kind, column, keys in operations:
            if kind == "invalidate":
                cache.invalidate(cache.epoch + 1)
                reference.clear()
            elif kind == "get":
                probe = np.array(keys, dtype=np.int64)
                found, values = cache.bulk_get(column, probe)
                expected_found, expected_values = reference.get(column, probe)
                assert np.array_equal(found, expected_found)
                if expected_values is None:
                    assert values is None
                else:
                    assert np.array_equal(values, expected_values)
            else:
                # The wrapper's contract: only distinct keys that just missed.
                stored = reference.entries.get(column, {})
                fresh = np.array(sorted({key for key in keys if key not in stored},
                                        key=keys.index), dtype=np.int64)
                # A row unique to this (put, key), so a survivor that came
                # back with another key's row after a compaction is caught.
                rows = (serial * 1000.0 + fresh[:, None] * 10.0
                        + np.arange(_DOMAINS[column]))
                serial += 1
                cache.bulk_put(column, fresh, rows)
                reference.put(column, fresh, rows)
            assert len(cache) == len(reference)
            assert (cache.stats.hits, cache.stats.misses, cache.stats.evictions) == (
                reference.hits, reference.misses, reference.evictions)
        for column in range(len(_DOMAINS)):
            every_key = np.arange(41, dtype=np.int64)
            found, values = cache.bulk_get(column, every_key)
            expected_found, expected_values = reference.get(column, every_key)
            assert np.array_equal(found, expected_found)
            assert (values is None) == (expected_values is None)
            if values is not None:
                assert np.array_equal(values, expected_values)


class TestPackedCacheArenaMemory:
    def test_capacity_bounded_under_sustained_puts(self):
        max_entries = 64
        cache = PackedConditionalCache(max_entries=max_entries)
        rng = np.random.default_rng(0)
        next_key = 0
        for _ in range(400):
            column = int(rng.integers(3))
            size = int(rng.integers(1, max_entries // 2))
            keys = np.arange(next_key, next_key + size, dtype=np.int64)
            next_key += size
            cache.bulk_put(column, keys, np.ones((size, 7)))
            assert len(cache) <= max_entries
            assert _arena_rows(cache) <= 2 * max_entries
        assert cache.stats.evictions > 0

    def test_clear_and_invalidate_release_the_arenas(self):
        cache = PackedConditionalCache(max_entries=32)
        keys = np.arange(8, dtype=np.int64)
        for column in range(3):
            cache.bulk_put(column, keys, np.ones((8, 5)))
        assert _arena_rows(cache) >= 24
        cache.clear()
        assert _arena_rows(cache) == 0 and not cache._columns
        for column in range(3):
            cache.bulk_put(column, keys, np.ones((8, 5)))
        cache.invalidate(1)
        assert _arena_rows(cache) == 0 and not cache._columns


@pytest.fixture(scope="module")
def users_table():
    return make_users(num_users=80, seed=6)


@pytest.fixture(scope="module")
def users_model(users_table):
    from repro.core import MADEModel
    return MADEModel(users_table, hidden_sizes=(8, 8), seed=0)


class TestConditionalBudgetUnderReplication:
    def test_eviction_respects_per_replica_slice(self):
        cache = ConditionalProbCache(max_entries=3)
        for key in range(5):
            cache.put((0, key), np.array([float(key)]))
        assert len(cache) == 3
        assert cache.stats.evictions == 2
        # The survivors are the three most recently inserted entries.
        assert cache.get((0, 0)) is None
        assert cache.get((0, 4)) is not None

    def test_invalidate_drops_entries_and_stamps_epoch(self):
        cache = ConditionalProbCache(max_entries=4)
        cache.put((0, 1), np.array([0.5]))
        assert cache.epoch == 0
        cache.invalidate(2)
        assert cache.epoch == 2
        assert len(cache) == 0
        assert cache.get((0, 1)) is None
