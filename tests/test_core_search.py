"""Tests for repro.core.simulator, greedy_grid, beam_search and sharder."""

import math

import numpy as np
import pytest

from repro.config import SearchConfig
from repro.core import (
    CostCache,
    NeuroShard,
    NeuroShardSimulator,
    beam_search,
    greedy_grid_search,
)
from repro.core.beam_search import _candidates
from repro.data import ShardingTask
from repro.data.table import TableConfig, table_set_key
from repro.hardware.memory import MemoryModel
from repro.perf import SearchProfile


@pytest.fixture()
def simulator(tiny_bundle) -> NeuroShardSimulator:
    return NeuroShardSimulator(tiny_bundle, CostCache())


@pytest.fixture()
def memory(cluster2) -> MemoryModel:
    return MemoryModel(cluster2.config.memory_bytes)


FAST_SEARCH = SearchConfig(top_n=3, beam_width=2, max_steps=3, grid_points=4)


class TestSimulator:
    def test_empty_device_is_free(self, simulator):
        assert simulator.device_compute_costs([[]]) == [0.0]

    def test_costs_positive(self, simulator, tasks2):
        tables = list(tasks2[0].tables)
        assert simulator.device_compute_costs([tables])[0] > 0

    def test_caching_works(self, tiny_bundle, tasks2):
        cache = CostCache()
        simulator = NeuroShardSimulator(tiny_bundle, cache)
        tables = list(tasks2[0].tables)
        a = simulator.device_compute_costs([tables])[0]
        b = simulator.device_compute_costs([tables])[0]
        assert a == b
        assert cache.hits == 1
        assert cache.get(table_set_key(tables)) == a

    def test_order_invariance_through_cache_key(self, simulator, tasks2):
        tables = list(tasks2[0].tables)
        a = simulator.device_compute_costs([tables])[0]
        b = simulator.device_compute_costs([list(reversed(tables))])[0]
        assert a == b

    def test_plan_cost_breakdown(self, simulator, tasks2):
        task = tasks2[0]
        half = len(task.tables) // 2
        per_device = [list(task.tables[:half]), list(task.tables[half:])]
        cost = simulator.plan_cost(per_device)
        assert cost.max_cost_ms == max(cost.device_costs_ms)
        assert all(c >= 0 for c in cost.fwd_comm_ms)
        assert all(c >= 0 for c in cost.bwd_comm_ms)

    def test_plan_cost_validates_device_count(self, simulator, tasks2):
        with pytest.raises(ValueError):
            simulator.plan_cost([list(tasks2[0].tables)])

    def test_single_table_costs_shape(self, simulator, tasks2):
        tables = list(tasks2[0].tables)
        singles = simulator.single_table_costs(tables)
        assert singles.shape == (len(tables),)
        assert np.all(singles > 0)


class TestGreedyGridSearch:
    def test_finds_feasible_assignment(self, simulator, memory, tasks2):
        task = tasks2[0]
        result = greedy_grid_search(
            list(task.tables), 2, simulator, memory, FAST_SEARCH
        )
        assert result.feasible
        assert len(result.assignment) == task.num_tables
        assert all(0 <= d < 2 for d in result.assignment)
        assert math.isfinite(result.cost_ms)

    def test_respects_memory(self, simulator, tasks2):
        task = tasks2[0]
        # Budget fits the largest table but not everything on one device.
        largest = max(t.size_bytes + t.hash_size * 4 for t in task.tables)
        memory = MemoryModel(max(largest * 2, task.total_size_bytes // 2))
        result = greedy_grid_search(
            list(task.tables), 2, simulator, memory, FAST_SEARCH
        )
        if result.feasible:
            per_device_bytes = [0, 0]
            for t, d in zip(task.tables, result.assignment):
                per_device_bytes[d] += memory.table_bytes(t)
            assert all(b <= memory.memory_bytes for b in per_device_bytes)

    def test_infeasible_when_nothing_fits(self, simulator, tasks2):
        memory = MemoryModel(1024)  # nothing fits
        result = greedy_grid_search(
            list(tasks2[0].tables), 2, simulator, memory, FAST_SEARCH
        )
        assert not result.feasible
        assert result.cost_ms == math.inf
        assert result.assignment == ()

    def test_without_grid_search_single_pass(self, simulator, memory, tasks2):
        cfg = FAST_SEARCH.with_ablation("grid_search")
        result = greedy_grid_search(
            list(tasks2[0].tables), 2, simulator, memory, cfg
        )
        assert result.feasible
        assert result.max_dim_used is None  # unconstrained pass

    def test_grid_no_worse_than_no_grid(self, simulator, memory, tasks2):
        """The grid search includes the unconstrained pass, so it can only
        match or beat the ablated version (on predicted cost)."""
        for task in tasks2[:3]:
            with_grid = greedy_grid_search(
                list(task.tables), 2, simulator, memory, FAST_SEARCH
            )
            without = greedy_grid_search(
                list(task.tables),
                2,
                simulator,
                memory,
                FAST_SEARCH.with_ablation("grid_search"),
            )
            assert with_grid.cost_ms <= without.cost_ms + 1e-9

    def test_rejects_empty(self, simulator, memory):
        with pytest.raises(ValueError):
            greedy_grid_search([], 2, simulator, memory, FAST_SEARCH)


class _StubSimulator:
    """Deterministic single-table costs for candidate-order tests."""

    def __init__(self, costs):
        self._costs = np.asarray(costs, dtype=np.float64)

    def single_table_costs(self, tables):
        return self._costs[: len(tables)]


class TestCandidates:
    def _tables(self, dims, sizes):
        return [
            TableConfig(
                table_id=i,
                hash_size=size,
                dim=dim,
                pooling_factor=10.0,
                zipf_alpha=1.0,
            )
            for i, (dim, size) in enumerate(zip(dims, sizes))
        ]

    def test_order_pinned_cost_block_then_unseen_size(self):
        # Costs rank: 2, 0, 3, 1, 4; sizes (hash*dim) rank: 4, 1, 0, 3, 2.
        tables = self._tables(
            dims=[8, 8, 8, 8, 8], sizes=[3000, 4000, 1000, 2000, 5000]
        )
        sim = _StubSimulator([4.0, 2.0, 5.0, 3.0, 1.0])
        # top-3 by cost: [2, 0, 3]; top-3 by size: [4, 1, 0] -> merged
        # keeps the cost block, then appends unseen size entries in order.
        assert _candidates(tables, sim, top_n=3) == [2, 0, 3, 4, 1]

    def test_duplicates_removed_once(self):
        tables = self._tables(dims=[8, 8], sizes=[2000, 1000])
        sim = _StubSimulator([2.0, 1.0])
        # Both rankings produce [0, 1]; dedup keeps a single copy each.
        assert _candidates(tables, sim, top_n=2) == [0, 1]

    def test_unsplittable_dim4_skipped(self):
        tables = self._tables(dims=[4, 8], sizes=[9000, 1000])
        sim = _StubSimulator([9.0, 1.0])
        assert _candidates(tables, sim, top_n=2) == [1]

    def test_no_splittable_tables(self):
        tables = self._tables(dims=[4, 4], sizes=[1000, 2000])
        sim = _StubSimulator([1.0, 2.0])
        assert _candidates(tables, sim, top_n=2) == []


class TestSearchFastPaths:
    def test_batch_costs_match_table_list_route(self, tiny_bundle, tasks2):
        """Bank-row-id scoring equals table-list scoring bit for bit,
        with and without the appended candidate row (fresh caches, so
        both sides really predict)."""
        tables = list(tasks2[0].tables)[:4]
        sets = [tables, tables[:1], tables[1:3]]
        general = NeuroShardSimulator(
            tiny_bundle, CostCache()
        ).device_compute_costs(sets)
        batched = NeuroShardSimulator(tiny_bundle, CostCache())
        featurizer = batched.featurizer
        entries = [
            (
                table_set_key(tables),
                featurizer.row_indices(tables[:-1]).tolist(),
                featurizer.row_index(tables[-1]),
            ),
        ] + [
            (table_set_key(s), featurizer.row_indices(s).tolist(), None)
            for s in sets[1:]
        ]
        assert batched.device_compute_costs_batch(entries) == general

    def test_duplicate_sets_each_count_as_a_miss(self, tiny_bundle, tasks2):
        """``device_compute_costs`` looks every set up on its own: a set
        repeated inside one call is two misses and two predictions (no
        in-call dedupe), so hit-rate columns stay where they were."""
        cache = CostCache()
        simulator = NeuroShardSimulator(tiny_bundle, cache)
        tables = list(tasks2[0].tables)
        a, b = tables[:2], tables[2:4]
        # A reordered copy is the same multiset, hence the same key.
        first = simulator.device_compute_costs([a, b, list(reversed(a)), []])
        assert first[0] == first[2]
        assert first[3] == 0.0
        assert (cache.hits, cache.misses, len(cache)) == (0, 3, 2)
        second = simulator.device_compute_costs([a, b, a])
        assert second == first[:3]
        assert (cache.hits, cache.misses, len(cache)) == (3, 3, 2)

    def test_plan_cost_matches_keyed_batch(self, tiny_bundle, tasks2):
        """``plan_cost`` on table lists and ``plan_costs_keyed_batch`` on
        bank row ids agree bitwise on the same placement, breakdown
        included."""
        tables = list(tasks2[0].tables)
        per_device = [tables[0::2], tables[1::2]]
        expected = NeuroShardSimulator(tiny_bundle, CostCache()).plan_cost(
            per_device
        )
        batched = NeuroShardSimulator(tiny_bundle, CostCache())
        featurizer = batched.featurizer
        (got,) = batched.plan_costs_keyed_batch(
            [(
                [table_set_key(dev) for dev in per_device],
                [featurizer.row_indices(dev).tolist() for dev in per_device],
                [sum(t.dim for t in dev) for dev in per_device],
            )]
        )
        assert got == expected
        assert got.compute_ms == expected.compute_ms
        assert got.fwd_comm_ms == expected.fwd_comm_ms
        assert got.bwd_comm_ms == expected.bwd_comm_ms

    def test_single_table_costs_memoized_per_uid(self, tiny_bundle, tasks2):
        cache = CostCache()
        simulator = NeuroShardSimulator(tiny_bundle, cache)
        tables = list(tasks2[0].tables)
        first = simulator.single_table_costs(tables)
        lookups_after_first = cache.lookups
        second = simulator.single_table_costs(tables)
        assert np.array_equal(first, second)
        # Served from the uid memo, recorded as external cache hits.
        assert cache.lookups == lookups_after_first + len(tables)
        assert cache.hits >= len(tables)

    def test_plan_memo_reduces_grid_searches(self, tiny_bundle, tasks2):
        profile = SearchProfile()
        cache = CostCache()
        simulator = NeuroShardSimulator(tiny_bundle, cache, profile=profile)
        task = tasks2[0]
        largest = max(t.size_bytes + t.hash_size * 4 for t in task.tables)
        memory = MemoryModel(max(int(largest * 0.75), 1))
        result = beam_search(
            list(task.tables), 2, simulator, memory,
            SearchConfig(top_n=4, beam_width=2, max_steps=5, grid_points=4),
            profile=profile,
        )
        counters = profile.counters
        assert counters["evaluations"] == result.evaluations
        assert counters["unique_evaluations"] <= result.evaluations
        # Permutation-duplicate expansions must actually be deduplicated.
        assert counters.get("plan_memo_hits", 0) > 0
        assert (
            counters["unique_evaluations"]
            + counters.get("plan_memo_hits", 0)
            == counters["evaluations"]
        )


class TestBeamSearch:
    def test_returns_complete_plan(self, simulator, memory, tasks2):
        task = tasks2[0]
        result = beam_search(
            list(task.tables), 2, simulator, memory, FAST_SEARCH
        )
        assert result.feasible
        plan = result.plan
        sharded = plan.sharded_tables(task.tables)
        assert len(sharded) == task.num_tables + plan.num_splits
        assert result.evaluations > 1

    def test_splits_resolve_oversized_tables(self, simulator, tasks2):
        """When one table alone busts the budget, only column splitting
        can make the task feasible — beam search must find that."""
        task = tasks2[0]
        memory_model = MemoryModel(1)  # placeholder, rebuilt below
        largest = max(
            t.size_bytes + t.hash_size * 4 for t in task.tables
        )
        # Budget below the largest table but above half of it.
        budget = int(largest * 0.75)
        memory_model = MemoryModel(budget)
        no_beam = beam_search(
            list(task.tables),
            2,
            simulator,
            memory_model,
            FAST_SEARCH.with_ablation("beam_search"),
        )
        assert not no_beam.feasible  # table-wise only cannot fit
        with_beam = beam_search(
            list(task.tables), 2, simulator, memory_model,
            SearchConfig(top_n=4, beam_width=2, max_steps=6, grid_points=3),
        )
        assert with_beam.feasible
        assert with_beam.plan.num_splits >= 1

    def test_no_beam_means_no_splits(self, simulator, memory, tasks2):
        result = beam_search(
            list(tasks2[0].tables),
            2,
            simulator,
            memory,
            FAST_SEARCH.with_ablation("beam_search"),
        )
        assert result.feasible
        assert result.plan.num_splits == 0

    def test_beam_never_worse_than_no_beam(self, simulator, memory, tasks2):
        for task in tasks2[:3]:
            full = beam_search(
                list(task.tables), 2, simulator, memory, FAST_SEARCH
            )
            ablated = beam_search(
                list(task.tables),
                2,
                simulator,
                memory,
                FAST_SEARCH.with_ablation("beam_search"),
            )
            assert full.cost_ms <= ablated.cost_ms + 1e-9


class TestNeuroShardFacade:
    def test_shard_returns_diagnostics(self, tiny_bundle, tasks2):
        sharder = NeuroShard(tiny_bundle, search=FAST_SEARCH)
        result = sharder.shard(tasks2[0])
        assert result.feasible
        assert result.sharding_time_s > 0
        assert 0 <= result.cache_hit_rate <= 1
        assert result.evaluations > 0

    def test_lifelong_cache_improves_hit_rate(self, tiny_bundle, tasks2):
        sharder = NeuroShard(tiny_bundle, search=FAST_SEARCH, lifelong_cache=True)
        first = sharder.shard(tasks2[0])
        second = sharder.shard(tasks2[0])  # identical task re-sharded
        assert second.cache_hit_rate >= first.cache_hit_rate
        assert second.cache_hit_rate > 0.95

    def test_device_count_mismatch_rejected(self, tiny_bundle, tasks2):
        sharder = NeuroShard(tiny_bundle, search=FAST_SEARCH)
        task = tasks2[0]
        bad = ShardingTask(
            tables=task.tables, num_devices=4, memory_bytes=task.memory_bytes
        )
        with pytest.raises(ValueError, match="pre-trained for"):
            sharder.shard(bad)

    def test_from_directory(self, tiny_bundle, tasks2, tmp_path):
        tiny_bundle.save(tmp_path / "m")
        sharder = NeuroShard.from_directory(tmp_path / "m", search=FAST_SEARCH)
        result = sharder.shard(tasks2[0])
        assert result.feasible

    def test_cache_disabled_ablation(self, tiny_bundle, tasks2):
        cfg = SearchConfig(
            top_n=2, beam_width=1, max_steps=2, grid_points=3, use_cache=False
        )
        sharder = NeuroShard(tiny_bundle, search=cfg)
        result = sharder.shard(tasks2[0])
        assert result.feasible
        assert result.cache_hit_rate == 0.0
